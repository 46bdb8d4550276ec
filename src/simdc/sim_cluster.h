// SimCluster: assembles a complete simulated Data Cyclotron ring — the
// discrete-event kernel, the ring network, one DcNode (protocol instance) +
// QueryDriver per node, the protocol timers, and the experiment collector
// wiring. This is the top-level object every §5 experiment instantiates.
#pragma once

#include <memory>
#include <vector>

#include "common/random.h"
#include "core/dc_node.h"
#include "net/ring_network.h"
#include "sim/simulator.h"
#include "simdc/collector.h"
#include "simdc/query_model.h"

namespace dcy::simdc {

/// \brief Full configuration of a simulated ring (defaults = paper §5 Setup).
struct ClusterOptions {
  uint32_t num_nodes = 10;

  /// Link bandwidth (paper: 10 Gb/s duplex links with a 350 us delay).
  double link_gbps = 10.0;
  /// Per-node BAT queue (paper: 200 MB -> ring capacity 2 GB at 10 nodes).
  /// This is the *logical* capacity the protocol's admission control and
  /// LOIT adaptation reason about.
  uint64_t bat_queue_capacity = 200 * kMB;
  /// Fault injection on the wire (0 in paper-faithful runs).
  double loss_probability = 0.0;

  /// Cold-storage read bandwidth applied to loads (the paper cites 400 MB/s
  /// RAID as the reference disk speed); 0 disables the disk model.
  double disk_bytes_per_sec = 400e6;

  /// LOIT policy: static sweep value (§5.1) or the adaptive ladder (§5.2).
  bool adaptive_loit = false;
  double static_loit = 0.5;

  /// Protocol tunables; node_id/ring_size are filled in per node.
  core::DcNodeOptions node;

  /// CPU cores per node for the query model; 0 = unbounded (§5.1-§5.3).
  uint32_t cores_per_node = 0;

  uint64_t seed = 42;
};

/// \brief A fully wired simulated ring.
class SimCluster {
 public:
  /// `collector` may be null; when given it receives both protocol events
  /// and query completions. It must outlive the cluster.
  explicit SimCluster(ClusterOptions options, ExperimentCollector* collector = nullptr);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Registers a BAT with its owner node (cold on the owner's disk).
  void AddBat(core::BatId bat, uint64_t size, core::NodeId owner);

  /// Starts the protocol timers (loadAll / maintenance / LOIT adaptation),
  /// staggered across nodes to avoid synchronized storms.
  void Start();

  /// Runs the simulation until no events remain or `deadline` passes.
  void RunUntil(SimTime deadline) { sim_.RunUntil(deadline); }
  /// Runs to completion (drains all queries, then goes quiet).
  /// Note: with periodic timers running this never returns; use
  /// RunUntilQuiesced instead once timers are started.
  void RunAll() { sim_.Run(); }

  /// Runs until all submitted queries finished (checked every `poll`), or
  /// `deadline` hits. Returns true if everything finished.
  bool RunUntilQueriesDrain(SimTime deadline, SimTime poll = FromMillis(500));

  sim::Simulator& simulator() { return sim_; }
  net::RingNetwork& network() { return *network_; }
  Rng& rng() { return rng_; }
  uint32_t num_nodes() const { return options_.num_nodes; }
  core::DcNode& node(uint32_t i) { return *nodes_[i].dc; }
  QueryDriver& driver(uint32_t i) { return *nodes_[i].driver; }
  core::LoitPolicy& loit(uint32_t i) { return *nodes_[i].loit; }
  const ClusterOptions& options() const { return options_; }

  uint64_t total_registered() const;
  uint64_t total_finished() const;
  uint64_t total_failed() const;
  uint64_t total_expected() const;
  /// Sum of per-node CPU busy time (Table 4's CPU% numerator).
  SimTime total_cpu_busy() const;
  /// Latest query finish time across nodes (Table 4's exec column).
  SimTime last_finish_time() const;
  /// Count of data-channel DropTail drops across the ring.
  uint64_t total_data_drops() const;

 private:
  class NodeEnv;

  ClusterOptions options_;
  Rng rng_;
  sim::Simulator sim_;
  std::unique_ptr<net::RingNetwork> network_;
  ExperimentCollector* collector_;

  struct NodeRuntime {
    std::unique_ptr<NodeEnv> env;
    std::unique_ptr<core::LoitPolicy> loit;
    std::unique_ptr<core::DcNode> dc;
    std::unique_ptr<QueryDriver> driver;
    std::unique_ptr<sim::PeriodicTimer> load_all_timer;
    std::unique_ptr<sim::PeriodicTimer> maintenance_timer;
    std::unique_ptr<sim::PeriodicTimer> adapt_timer;
  };
  std::vector<NodeRuntime> nodes_;
};

}  // namespace dcy::simdc
