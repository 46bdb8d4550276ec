#include "simdc/sim_cluster.h"

#include "common/logging.h"
#include "core/types.h"

namespace dcy::simdc {

namespace {

/// One-way propagation delay of every link (paper §5 Setup: 350 us).
constexpr SimTime kLinkDelay = FromMicros(350);
/// DropTail threshold of each request link.
constexpr uint64_t kRequestQueueCapacity = 4 * kMB;

}  // namespace

/// DcEnv implementation binding one protocol instance to the simulated ring.
class SimCluster::NodeEnv final : public core::DcEnv {
 public:
  NodeEnv(SimCluster* cluster, core::NodeId id) : cluster_(cluster), id_(id) {}

  SimTime Now() override { return cluster_->sim_.Now(); }

  void SendRequestMsg(const core::RequestMsg& msg) override {
    // Requests travel anti-clockwise: to the predecessor.
    auto& net = *cluster_->network_;
    const core::NodeId target = net.Predecessor(id_);
    net.SendRequest(id_, core::kRequestWireBytes, [cluster = cluster_, target, msg] {
      cluster->nodes_[target].dc->OnRequestMsg(msg);
    });
  }

  void SendBatMsg(const core::BatHeader& header, bool is_load) override {
    const double disk_bps = cluster_->options_.disk_bytes_per_sec;
    if (is_load && disk_bps > 0) {
      // Loads come off the owner's cold storage first.
      const SimTime disk_time =
          static_cast<SimTime>(static_cast<double>(header.bat_size) / disk_bps * 1e9);
      cluster_->sim_.Schedule(disk_time, [this, header] { ForwardBat(header); });
    } else {
      ForwardBat(header);
    }
  }

  void DeliverToQuery(core::QueryId query, core::BatId bat) override {
    // Decoupled so the protocol never re-enters itself mid-iteration.
    cluster_->sim_.Schedule(0, [cluster = cluster_, id = id_, query, bat] {
      cluster->nodes_[id].driver->OnDelivered(query, bat);
    });
  }

  void FailQuery(core::QueryId query, core::BatId bat) override {
    cluster_->sim_.Schedule(0, [cluster = cluster_, id = id_, query, bat] {
      cluster->nodes_[id].driver->OnFailed(query, bat);
    });
  }

  uint64_t BatQueueLoadBytes() override { return cluster_->network_->DataQueueBytes(id_); }

  uint64_t BatQueueCapacityBytes() override {
    return cluster_->options_.bat_queue_capacity;
  }

 private:
  void ForwardBat(const core::BatHeader& header) {
    auto& net = *cluster_->network_;
    const core::NodeId target = net.Successor(id_);
    const uint64_t wire = header.bat_size + core::kBatHeaderWireBytes;
    // The data channel is lossless, so the send always succeeds.
    net.SendData(id_, wire, [cluster = cluster_, target, header] {
      cluster->nodes_[target].dc->OnBatMsg(header);
    });
  }

  SimCluster* cluster_;
  core::NodeId id_;
};

SimCluster::SimCluster(ClusterOptions options, ExperimentCollector* collector)
    : options_(options), rng_(options.seed), collector_(collector) {
  net::RingNetwork::Options net_opts;
  net_opts.num_nodes = options_.num_nodes;
  net_opts.data.bandwidth_bytes_per_sec = GbpsToBytesPerSec(options_.link_gbps);
  net_opts.data.propagation_delay = kLinkDelay;
  // The data channel is lossless: an RDMA/TCP fabric applies backpressure
  // rather than dropping, and the protocol's load admission already bounds
  // steady-state occupancy at the logical capacity — transient bunching of
  // forwarded BATs above it models bounded flow-control drift.
  net_opts.data.queue_capacity_bytes = 0;
  net_opts.data.loss_probability = options_.loss_probability;
  net_opts.request.bandwidth_bytes_per_sec = GbpsToBytesPerSec(options_.link_gbps);
  net_opts.request.propagation_delay = kLinkDelay;
  net_opts.request.queue_capacity_bytes = kRequestQueueCapacity;
  net_opts.request.loss_probability = options_.loss_probability;
  network_ = std::make_unique<net::RingNetwork>(&sim_, net_opts, &rng_);

  nodes_.resize(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    NodeRuntime& rt = nodes_[i];
    rt.env = std::make_unique<NodeEnv>(this, i);
    if (options_.adaptive_loit) {
      rt.loit = std::make_unique<core::AdaptiveLoit>(core::AdaptiveLoit::Options());
    } else {
      rt.loit = std::make_unique<core::StaticLoit>(options_.static_loit);
    }
    core::DcNodeOptions node_opts = options_.node;
    node_opts.node_id = i;
    node_opts.ring_size = options_.num_nodes;
    rt.dc = std::make_unique<core::DcNode>(node_opts, rt.env.get(), rt.loit.get(), collector_);
    rt.driver = std::make_unique<QueryDriver>(&sim_, rt.dc.get(), options_.cores_per_node,
                                              collector_);
  }
}

SimCluster::~SimCluster() = default;

void SimCluster::AddBat(core::BatId bat, uint64_t size, core::NodeId owner) {
  DCY_CHECK(owner < options_.num_nodes);
  DCY_CHECK(nodes_[owner].dc->AddOwnedBat(bat, size)) << "duplicate BAT " << bat;
}

void SimCluster::Start() {
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    NodeRuntime& rt = nodes_[i];
    core::DcNode* dc = rt.dc.get();
    const auto& node_opts = dc->options();
    rt.load_all_timer = std::make_unique<sim::PeriodicTimer>(
        &sim_, node_opts.load_all_period, [dc] { dc->OnLoadAllTimer(); });
    rt.maintenance_timer = std::make_unique<sim::PeriodicTimer>(
        &sim_, node_opts.maintenance_period, [dc] { dc->OnMaintenanceTimer(); });
    rt.adapt_timer = std::make_unique<sim::PeriodicTimer>(
        &sim_, node_opts.adapt_period, [dc] { dc->OnAdaptTimer(); });
    // Stagger the first tick of each node's timers.
    const SimTime offset = node_opts.load_all_period * i / options_.num_nodes;
    sim_.Schedule(offset, [&rt] {
      rt.load_all_timer->Start();
      rt.maintenance_timer->Start();
      rt.adapt_timer->Start();
    });
  }
}

bool SimCluster::RunUntilQueriesDrain(SimTime deadline, SimTime poll) {
  const uint64_t expected = total_expected();
  while (sim_.Now() < deadline) {
    const SimTime next = std::min(deadline, sim_.Now() + poll);
    sim_.RunUntil(next);
    if (expected > 0 && total_finished() + total_failed() >= expected) return true;
  }
  return expected > 0 && total_finished() + total_failed() >= expected;
}

uint64_t SimCluster::total_expected() const {
  uint64_t n = 0;
  for (const auto& rt : nodes_) n += rt.driver->expected();
  return n;
}

uint64_t SimCluster::total_registered() const {
  uint64_t n = 0;
  for (const auto& rt : nodes_) n += rt.driver->registered();
  return n;
}

uint64_t SimCluster::total_finished() const {
  uint64_t n = 0;
  for (const auto& rt : nodes_) n += rt.driver->finished();
  return n;
}

uint64_t SimCluster::total_failed() const {
  uint64_t n = 0;
  for (const auto& rt : nodes_) n += rt.driver->failed();
  return n;
}

SimTime SimCluster::total_cpu_busy() const {
  SimTime n = 0;
  for (const auto& rt : nodes_) n += rt.driver->cpu().busy_time();
  return n;
}

SimTime SimCluster::last_finish_time() const {
  SimTime latest = 0;
  for (const auto& rt : nodes_) latest = std::max(latest, rt.driver->last_finish_time());
  return latest;
}

uint64_t SimCluster::total_data_drops() const {
  uint64_t n = 0;
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    n += network_->data_link(i).stats().messages_dropped_queue;
  }
  return n;
}

}  // namespace dcy::simdc
