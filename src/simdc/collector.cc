#include "simdc/collector.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/logging.h"

namespace dcy::simdc {

ExperimentCollector::ExperimentCollector(Options options) : options_(std::move(options)) {
  const size_t n = options_.num_bats;
  touches_.assign(n, 0);
  requests_.assign(n, 0);
  dispatches_.assign(n, 0);
  loads_.assign(n, 0);
  max_cycles_.assign(n, 0);
  max_latency_.assign(n, 0.0);
  max_pin_wait_.assign(n, 0.0);
  bat_in_ring_size_.assign(n, 0);
  tag_bytes_.assign(std::max<uint32_t>(options_.num_tags, 1), 0);
  tag_finished_.assign(std::max<uint32_t>(options_.num_tags, 1), 0);
}

void ExperimentCollector::StartSampling(sim::Simulator* sim) {
  Sample(sim->Now());
  sampler_ = std::make_unique<sim::PeriodicTimer>(sim, kSecond,
                                                  [this, sim] { Sample(sim->Now()); });
  sampler_->Start();
}

void ExperimentCollector::FinishSampling(sim::Simulator* sim) {
  // Release the timer while `sim` is still alive: its destructor cancels the
  // pending event, so it must never outlive the simulator it schedules on.
  sampler_.reset();
  Sample(sim->Now());
}

void ExperimentCollector::Sample(SimTime now) {
  const double t = ToSeconds(now);
  ring_series_.Series("total_bytes").Add(t, static_cast<double>(ring_bytes_));
  ring_series_.Series("total_bats").Add(t, static_cast<double>(ring_bats_));
  if (options_.bat_tag) {
    for (uint32_t tag = 0; tag < options_.num_tags; ++tag) {
      ring_series_.Series("tag" + std::to_string(tag) + "_bytes")
          .Add(t, static_cast<double>(tag_bytes_[tag]));
    }
  }
  query_series_.Series("registered").Add(t, static_cast<double>(total_registered_));
  query_series_.Series("finished").Add(t, static_cast<double>(total_finished_));
  if (options_.num_tags > 1) {
    for (uint32_t tag = 0; tag < options_.num_tags; ++tag) {
      query_series_.Series("tag" + std::to_string(tag) + "_finished")
          .Add(t, static_cast<double>(tag_finished_[tag]));
    }
  }
}

void ExperimentCollector::OnRequestDispatched(core::NodeId, core::BatId bat, bool resend) {
  ++total_dispatches_;
  if (resend) ++total_resends_;
  if (bat < dispatches_.size()) ++dispatches_[bat];
}

void ExperimentCollector::OnRequestEntryCreated(core::NodeId, core::BatId bat) {
  if (bat < requests_.size()) ++requests_[bat];
}

void ExperimentCollector::OnBatTouched(core::NodeId, core::BatId bat, uint32_t blocked_pins) {
  if (blocked_pins > 0 && bat < touches_.size()) ++touches_[bat];
}

void ExperimentCollector::OnBatLoaded(core::NodeId, core::BatId bat, uint64_t size) {
  ++total_loads_;
  ring_bytes_ += size;
  ++ring_bats_;
  if (bat < loads_.size()) {
    ++loads_[bat];
    bat_in_ring_size_[bat] = size;
  }
  if (options_.bat_tag) {
    const uint32_t tag = options_.bat_tag(bat);
    if (tag < tag_bytes_.size()) tag_bytes_[tag] += size;
  }
}

void ExperimentCollector::OnBatUnloaded(core::NodeId, core::BatId bat, uint64_t size,
                                        uint32_t cycles, double) {
  ++total_unloads_;
  if (bat < max_cycles_.size()) {
    max_cycles_[bat] = std::max(max_cycles_[bat], cycles);
    // A BAT presumed lost and later re-adopted was already written off the
    // occupancy books; only decrement when the load is still on them.
    if (bat_in_ring_size_[bat] == 0) return;
    bat_in_ring_size_[bat] = 0;
  }
  DCY_DCHECK(ring_bytes_ >= size);
  ring_bytes_ -= size;
  --ring_bats_;
  if (options_.bat_tag) {
    const uint32_t tag = options_.bat_tag(bat);
    if (tag < tag_bytes_.size()) tag_bytes_[tag] -= size;
  }
}

void ExperimentCollector::OnCycleCompleted(core::NodeId, core::BatId bat, uint32_t cycles,
                                           SimTime rotation) {
  if (bat < max_cycles_.size()) max_cycles_[bat] = std::max(max_cycles_[bat], cycles);
  if (rotation > 0 && cycles > 1) rotation_sec_.Add(ToSeconds(rotation));
}

void ExperimentCollector::OnRequestSatisfied(core::NodeId, core::BatId bat, SimTime latency) {
  if (bat < max_latency_.size()) {
    max_latency_[bat] = std::max(max_latency_[bat], ToSeconds(latency));
  }
}

void ExperimentCollector::OnPinSatisfied(core::NodeId, core::QueryId, core::BatId bat,
                                         SimTime wait) {
  if (wait <= 0) return;  // local/cache hits are not ring accesses
  const double w = ToSeconds(wait);
  pin_wait_stat_.Add(w);
  if (bat < max_pin_wait_.size()) max_pin_wait_[bat] = std::max(max_pin_wait_[bat], w);
}

void ExperimentCollector::OnBatPending(core::NodeId, core::BatId) { ++total_pending_; }

void ExperimentCollector::OnBatPresumedLost(core::NodeId, core::BatId bat) {
  ++total_lost_;
  // The owner wrote the BAT off: remove it from the occupancy accounting.
  if (bat < bat_in_ring_size_.size() && bat_in_ring_size_[bat] > 0) {
    const uint64_t size = bat_in_ring_size_[bat];
    bat_in_ring_size_[bat] = 0;
    DCY_DCHECK(ring_bytes_ >= size);
    ring_bytes_ -= size;
    --ring_bats_;
    if (options_.bat_tag) {
      const uint32_t tag = options_.bat_tag(bat);
      if (tag < tag_bytes_.size()) tag_bytes_[tag] -= size;
    }
  }
}

void ExperimentCollector::OnQueryRegistered(core::NodeId, const QuerySpec&) {
  ++total_registered_;
}

void ExperimentCollector::OnQueryFinished(core::NodeId, const QuerySpec& spec, SimTime arrival,
                                          SimTime finish, bool failed) {
  if (failed) {
    ++total_failed_;
    return;
  }
  ++total_finished_;
  const double life = ToSeconds(finish - arrival);
  lifetimes_.push_back(life);
  lifetime_stat_.Add(life);
  if (spec.tag < tag_finished_.size()) ++tag_finished_[spec.tag];
}

}  // namespace dcy::simdc
