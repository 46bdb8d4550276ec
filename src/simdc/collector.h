// Experiment instrumentation: implements the protocol StatsSink and the
// QueryObserver, accumulates exactly the quantities plotted in the paper's
// figures, and samples ring-occupancy time series on a simulator timer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "core/stats_sink.h"
#include "sim/simulator.h"
#include "simdc/query_model.h"

namespace dcy::simdc {

/// \brief Central metrics store for one simulation run.
class ExperimentCollector : public core::StatsSink, public QueryObserver {
 public:
  struct Options {
    uint32_t num_bats = 0;
    /// Number of workload tags tracked separately (Fig. 8); tag 0..n-1.
    uint32_t num_tags = 1;
    /// Maps a BAT to a workload tag for per-hot-set byte accounting; null
    /// means "no per-tag byte series".
    std::function<uint32_t(core::BatId)> bat_tag;
  };

  explicit ExperimentCollector(Options options);

  /// Starts the ring-load sampler, one sample per simulated second (Figs.
  /// 7, 8); it records a sample at t=0 too.
  /// Every StartSampling must be paired with FinishSampling before `sim` is
  /// destroyed: the sampler cancels its pending event on teardown. Prefer
  /// ScopedSampling below, which enforces the pairing on every exit path.
  void StartSampling(sim::Simulator* sim);
  /// Records one final sample and releases the sampler (call after the run
  /// completes, while the simulator is still alive).
  void FinishSampling(sim::Simulator* sim);

  // --- StatsSink ---------------------------------------------------------
  void OnRequestDispatched(core::NodeId node, core::BatId bat, bool resend) override;
  void OnRequestEntryCreated(core::NodeId node, core::BatId bat) override;
  void OnBatTouched(core::NodeId node, core::BatId bat, uint32_t blocked_pins) override;
  void OnBatLoaded(core::NodeId owner, core::BatId bat, uint64_t size) override;
  void OnBatUnloaded(core::NodeId owner, core::BatId bat, uint64_t size, uint32_t cycles,
                     double loi) override;
  void OnCycleCompleted(core::NodeId owner, core::BatId bat, uint32_t cycles,
                        SimTime rotation) override;
  void OnRequestSatisfied(core::NodeId node, core::BatId bat, SimTime latency) override;
  void OnPinSatisfied(core::NodeId node, core::QueryId query, core::BatId bat,
                      SimTime wait) override;
  void OnBatPending(core::NodeId owner, core::BatId bat) override;
  void OnBatPresumedLost(core::NodeId owner, core::BatId bat) override;

  // --- QueryObserver ------------------------------------------------------
  void OnQueryRegistered(core::NodeId node, const QuerySpec& spec) override;
  void OnQueryFinished(core::NodeId node, const QuerySpec& spec, SimTime arrival,
                       SimTime finish, bool failed) override;

  // --- results -------------------------------------------------------------

  /// Ring occupancy series: "total_bytes", "total_bats", and per-tag
  /// "tag<i>_bytes" when a bat_tag mapper was provided (Figs. 7a/b, 8a).
  const SeriesTable& ring_series() const { return ring_series_; }

  /// Cumulative completed queries per tag over time (Figs. 6a, 8b) and the
  /// cumulative registered series.
  const SeriesTable& query_series() const { return query_series_; }

  /// Query lifetimes (gross execution time) in seconds (Fig. 6b).
  const std::vector<double>& lifetimes_sec() const { return lifetimes_; }

  // Per-BAT counters (Figs. 9-11).
  const std::vector<uint64_t>& touches() const { return touches_; }       // Fig. 9a
  /// Per-BAT S2 entry creations: the paper's Fig. 9a "number of requests".
  const std::vector<uint64_t>& requests() const { return requests_; }     // Fig. 9a
  /// Per-BAT request *messages* dispatched (first sends + resends).
  const std::vector<uint64_t>& dispatches() const { return dispatches_; }
  const std::vector<uint64_t>& loads() const { return loads_; }           // Fig. 9b
  const std::vector<uint32_t>& max_cycles() const { return max_cycles_; } // Fig. 11
  /// Max registration-to-delivery latency per BAT, seconds.
  const std::vector<double>& max_request_latency_sec() const { return max_latency_; }
  /// Max blocked-pin wait (data-access latency) per BAT, seconds — the
  /// paper's Figure 10 quantity: "the access cost to these BATs is only
  /// affected by the latency of its movement in the ring" (§6.3).
  const std::vector<double>& max_pin_wait_sec() const { return max_pin_wait_; }
  const RunningStat& pin_wait_sec() const { return pin_wait_stat_; }

  uint64_t total_dispatches() const { return total_dispatches_; }
  uint64_t total_resends() const { return total_resends_; }
  uint64_t total_registered() const { return total_registered_; }
  uint64_t total_finished() const { return total_finished_; }
  uint64_t total_failed() const { return total_failed_; }
  uint64_t total_loads() const { return total_loads_; }
  uint64_t total_unloads() const { return total_unloads_; }
  uint64_t total_pending_tags() const { return total_pending_; }
  uint64_t total_presumed_lost() const { return total_lost_; }
  uint64_t current_ring_bytes() const { return ring_bytes_; }
  uint64_t current_ring_bats() const { return ring_bats_; }
  const RunningStat& rotation_sec() const { return rotation_sec_; }
  const RunningStat& lifetime_stat() const { return lifetime_stat_; }

 private:
  void Sample(SimTime now);

  Options options_;
  SeriesTable ring_series_;
  SeriesTable query_series_;

  uint64_t ring_bytes_ = 0;
  uint64_t ring_bats_ = 0;
  std::vector<uint64_t> tag_bytes_;      // per workload tag
  std::vector<uint64_t> tag_finished_;   // per workload tag
  std::vector<uint64_t> bat_in_ring_size_;  // size while hot (for lost accounting)

  std::vector<uint64_t> touches_;
  std::vector<uint64_t> requests_;
  std::vector<uint64_t> dispatches_;
  uint64_t total_dispatches_ = 0;
  uint64_t total_resends_ = 0;
  std::vector<uint64_t> loads_;
  std::vector<uint32_t> max_cycles_;
  std::vector<double> max_latency_;
  std::vector<double> max_pin_wait_;
  RunningStat pin_wait_stat_;
  std::vector<double> lifetimes_;

  uint64_t total_registered_ = 0;
  uint64_t total_finished_ = 0;
  uint64_t total_failed_ = 0;
  uint64_t total_loads_ = 0;
  uint64_t total_unloads_ = 0;
  uint64_t total_pending_ = 0;
  uint64_t total_lost_ = 0;
  RunningStat rotation_sec_;
  RunningStat lifetime_stat_;

  std::unique_ptr<sim::PeriodicTimer> sampler_;
};

/// \brief RAII pairing of StartSampling/FinishSampling. Declare it after the
/// cluster/simulator so it unwinds first: the sampler is then released on
/// every exit path (early returns, failed ASSERTs) while the simulator is
/// still alive, instead of use-after-free-cancelling into a dead one.
class ScopedSampling {
 public:
  ScopedSampling(ExperimentCollector* collector, sim::Simulator* sim)
      : collector_(collector), sim_(sim) {
    collector_->StartSampling(sim_);
  }
  ~ScopedSampling() { collector_->FinishSampling(sim_); }
  ScopedSampling(const ScopedSampling&) = delete;
  ScopedSampling& operator=(const ScopedSampling&) = delete;

 private:
  ExperimentCollector* collector_;
  sim::Simulator* sim_;
};

}  // namespace dcy::simdc
