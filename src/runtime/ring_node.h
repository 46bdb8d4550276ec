// The network layer of one live ring node (paper §4.3) around its Data
// Cyclotron layer (core::DcNode, §4.2). One service thread owns the protocol
// state, drains the inbound channels, moves BAT and request frames over one
// reliable link per neighbour, sends heartbeats and runs the protocol timers.
// The node also keeps the ring copies its queries pin, their pin waiters, and
// its admission queue.
#pragma once

#include <array>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <utility>

#include "bat/serialize.h"
#include "runtime/ring_cluster.h"

namespace dcy::runtime {

class RingNode final : public core::DcEnv {
 public:
  /// A neighbour, named by the channel class of the frames this node sends
  /// it (data to the successor, requests to the predecessor).
  enum Side : uint32_t {
    kSuccessor = rdma::kFaultChannelData,
    kPredecessor = rdma::kFaultChannelRequest,
  };

  RingNode(RingCluster* cluster, core::NodeId id);

  core::NodeId id() const { return id_; }
  RingCluster* cluster() const { return cluster_; }
  core::DcNode& dc() { return *dc_; }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  storage::MemoryMetrics memory() const { return store_.Metrics(); }
  AdmissionMetrics admission_metrics() const { return admission_.metrics(); }
  /// Payload bytes that reached this node's data channel.
  uint64_t data_bytes_in() const {
    return in_[rdma::kFaultChannelData]->stats().payload_bytes.load();
  }

  /// Wires a neighbour before Start.
  void SetNeighbour(Side side, RingNode* peer) {
    links_[side].peer.store(peer, std::memory_order_release);
  }
  /// Ring re-splice, posted onto the service thread: the sender towards the
  /// new neighbour resets (fresh epoch) so its receiver adopts it cleanly,
  /// and the liveness clock restarts.
  void Adopt(Side side, RingNode* peer);

  /// Starts the service thread and the query runners.
  void Start();
  /// Fails queued and running queries with `error` and joins the runners,
  /// while the service thread still runs (running queries unwind through
  /// Unpin posts to it).
  void StopQueries(const Status& error);
  /// Closes the channels and joins the service thread.
  void Stop();
  /// Abrupt node death: queries fail with Unavailable, the service thread
  /// exits and the ring copies are lost. Post/PostSync keep working (tasks
  /// run inline, serialized), so no caller can hang on a corpse.
  void Crash();
  /// Comes back amnesiac after Crash(): fresh protocol state, reopened
  /// channels, senders on new epochs.
  void Restart(RingNode* successor, RingNode* predecessor);

  /// Runs `task` on the service thread, the only thread touching dc_; on a
  /// crashed node inline, serialized by dead_exec_mu_.
  void Post(std::function<void()> task);
  /// Posts `task` and waits for it to finish.
  void PostSync(std::function<void()> task);

  /// Queues one submission, shedding load while the ring is degraded or the
  /// node is under memory pressure.
  Status Submit(AdmissionQueue::Item item);

  /// Registers a waiter resolved by DeliverToQuery/FailQuery.
  std::future<Result<bat::BatPtr>> AddWaiter(core::QueryId query, core::BatId bat);
  /// Drops a waiter that was satisfied through the immediate path.
  void RemoveWaiter(core::QueryId query, core::BatId bat);
  /// Resolves one waiter; a no-op when another path resolved it first.
  void ResolveWaiter(core::QueryId query, core::BatId bat, Result<bat::BatPtr> value);
  /// Fails every outstanding waiter of `query` (cooperative Cancel()).
  void AbortQueryWaiters(core::QueryId query) {
    FailWaiters(query, query, Status::Aborted("query cancelled"));
  }

  /// Adds the link and hop counters to *out. Both read service-thread
  /// state: call them via PostSync.
  void SnapshotResilience(RingCluster::ResilienceMetrics* out) const;
  /// Wire-compression counters, with the memoized frame gauge.
  RingCluster::BandwidthMetrics wire() const;

  /// core::DcEnv, on the service thread. Now() is the node's one clock.
  SimTime Now() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void SendRequestMsg(const core::RequestMsg& msg) override;
  void SendBatMsg(const core::BatHeader& header, bool is_load) override;
  void DeliverToQuery(core::QueryId query, core::BatId bat) override;
  void FailQuery(core::QueryId query, core::BatId bat) override;
  uint64_t BatQueueLoadBytes() override;
  uint64_t BatQueueCapacityBytes() override;

 private:
  /// The reliable link to one neighbour (service-thread state).
  struct Link {
    std::atomic<RingNode*> peer{nullptr};
    net::ReliableSender out;  ///< frames this node sends the peer
    net::ReliableReceiver in;  ///< frames the peer sends this node
    SimTime last_heard = 0;
  };

  /// The wire frame of one payload object of an owned fragment, with its
  /// codec stats (its CRC is in hashed_).
  struct EncodedFrame {
    std::weak_ptr<const bat::Bat> source;  ///< the payload object encoded
    rdma::Buffer frame;                    ///< exact-size, shared read-only
    bat::CodecStats stats;
  };

  /// The CRC of one payload object's bytes, valid while the object lives.
  struct HashedPayload {
    std::weak_ptr<const std::string> object;
    uint32_t crc = 0;
  };

  /// The link whose peer sends this node frames of channel class `cls`.
  Link& From(uint32_t cls) {
    return links_[cls == rdma::kFaultChannelData ? kPredecessor : kSuccessor];
  }
  void ResetProtocol();
  void FailWaiters(core::QueryId first, core::QueryId last, const Status& error);
  void SendFramed(Side side, const rdma::MetaBlob& meta, uint64_t seq,
                  rdma::Buffer payload);
  bool SendCtrl(RingNode* to, net::CtrlKind kind, uint32_t cls, uint32_t epoch,
                uint64_t seq);
  void NoteHeardFrom(core::NodeId sender);
  template <typename Verify>
  bool Accept(uint32_t cls, const net::FrameHeader& h, Verify verify);
  template <typename FrameT>
  void AckDrainedBatch(uint32_t cls);
  void HandleCtrl(const rdma::Message& m);
  void HandleRequestFrame(const rdma::Message& m);
  void HandleDataFrame(const rdma::Message& m);
  void Heartbeat(SimTime now);
  void ServiceLoop();
  const EncodedFrame* OwnedFrame(core::BatId id);
  uint32_t PayloadCrc(const rdma::Buffer& payload);
  void TrimMemos();
  void TrimCopies();

  RingCluster* const cluster_;
  const core::NodeId id_;
  storage::FragmentStore store_;
  core::AdaptiveLoit loit_{core::AdaptiveLoit::Options()};  // the §5.2 ladder
  std::unique_ptr<core::DcNode> dc_;

  /// Inbound channels by class: data from the predecessor, requests from
  /// the successor, control (ACK/NACK/heartbeat) from any node.
  std::array<std::unique_ptr<rdma::Channel>, 3> in_;
  std::array<Link, 2> links_;  ///< by Side
  /// Liveness and hop counters beyond the links' ReliableMetrics.
  RingCluster::ResilienceMetrics hop_;
  RingCluster::BandwidthMetrics wire_;

  std::atomic<bool> crashed_{false};
  std::mutex dead_exec_mu_;  ///< serializes inline tasks while crashed

  std::thread service_;
  std::atomic<bool> stop_{false};
  std::mutex mailbox_mu_;
  std::condition_variable mailbox_cv_;
  std::deque<std::function<void()>> mailbox_;
  AdmissionQueue admission_;

  /// The payload of the frame being handled, which a forward ships on.
  rdma::Buffer current_payload_;
  /// Memoized load frames of owned fragments (OwnedFrame, TrimMemos).
  std::unordered_map<core::BatId, EncodedFrame> encoded_;
  /// CRCs of the payload objects this node has hashed or encoded, keyed by
  /// object identity (PayloadCrc, TrimMemos).
  std::unordered_map<const std::string*, HashedPayload> hashed_;
  std::vector<rdma::Message> drain_;  ///< service-loop batch receive scratch
  /// Copies the store refused under budget, read by DeliverToQuery until no
  /// pin is blocked on them (TrimCopies).
  std::unordered_map<core::BatId, Status> decode_rejected_;

  std::mutex waiters_mu_;
  std::map<std::pair<core::QueryId, core::BatId>, std::promise<Result<bat::BatPtr>>>
      waiters_;
};

}  // namespace dcy::runtime
