#include "runtime/ring_cluster.h"

#include <algorithm>
#include <chrono>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <unordered_set>

#include "bat/serialize.h"
#include "common/logging.h"
#include "sql/compiler.h"

namespace dcy::runtime {

namespace {

constexpr uint32_t kOpBat = 1;
constexpr uint32_t kOpRequest = 2;
constexpr uint32_t kOpCtrl = 3;
constexpr uint32_t kOpDelta = 4;

/// Envelope + routing header of a circulating delta frame (ISSUE-9): the
/// payload is one write::SerializeDelta wire image. Deltas ride the data
/// channel and share its go-back-N sequence space with BAT frames, so loss,
/// reordering, and corruption are handled by the same hop machinery. Padded
/// to sizeof(net::DataFrame): the drain loop's coalesced-ACK scan filters on
/// that size, and the envelope sits at offset 0 in both frames.
struct DeltaFrame {
  net::FrameHeader frame;
  uint32_t fragment = 0;  ///< base fragment the delta applies to
  uint32_t origin = 0;    ///< committing node; circulation ends back there
  uint64_t version = 0;   ///< commit version (purged once folded into a base)
  uint32_t hops = 0;      ///< hops travelled (orphan bound when origin dies)
  uint32_t reserved = 0;
  uint64_t pad[2] = {0, 0};
};
static_assert(sizeof(DeltaFrame) == sizeof(net::DataFrame),
              "DeltaFrame must match DataFrame for the shared ACK scan");

// Headers ride in the channel's fixed-capacity inline MetaBlob — no
// per-message std::string allocation on either side of a hop. Since this PR
// every data/request frame carries the net::FrameHeader reliability envelope
// in front of the application header.
static_assert(sizeof(net::DataFrame) <= rdma::MetaBlob::kCapacity,
              "DataFrame must fit the inline meta frame");
static_assert(sizeof(net::RequestFrame) <= rdma::MetaBlob::kCapacity,
              "RequestFrame must fit the inline meta frame");
static_assert(sizeof(net::CtrlMsg) <= rdma::MetaBlob::kCapacity,
              "CtrlMsg must fit the inline meta frame");

/// CRC over the per-hop mutable part of a data frame (the admin header);
/// XORed with the cached payload-only CRC to form FrameHeader::payload_crc.
uint32_t HeaderCrc(const core::BatHeader& h) {
  // BatHeader carries tail padding, and struct assignment into a DataFrame
  // need not preserve padding bytes — CRC the canonical field bytes only, or
  // clean frames fail verification depending on what the copy left behind.
  unsigned char buf[sizeof(core::BatHeader)] = {};
  size_t off = 0;
  const auto put = [&](const void* p, size_t n) {
    std::memcpy(buf + off, p, n);
    off += n;
  };
  put(&h.owner, sizeof(h.owner));
  put(&h.bat_id, sizeof(h.bat_id));
  put(&h.bat_size, sizeof(h.bat_size));
  put(&h.loi, sizeof(h.loi));
  put(&h.copies, sizeof(h.copies));
  put(&h.hops, sizeof(h.hops));
  put(&h.cycles, sizeof(h.cycles));
  return bat::Crc32(buf, off);
}

/// CRC over the per-hop mutable part of a delta frame (hops change per hop,
/// so each hop re-wraps, exactly like BAT frames).
uint32_t DeltaHeaderCrc(const DeltaFrame& df) {
  unsigned char buf[24] = {};
  size_t off = 0;
  const auto put = [&](const void* p, size_t n) {
    std::memcpy(buf + off, p, n);
    off += n;
  };
  put(&df.fragment, sizeof(df.fragment));
  put(&df.origin, sizeof(df.origin));
  put(&df.version, sizeof(df.version));
  put(&df.hops, sizeof(df.hops));
  return bat::Crc32(buf, off);
}

/// Verifies a data-channel frame at its receiver: the payload CRC, combined
/// with the envelope and the frame's per-hop header CRC, must reproduce what
/// the sender wrapped. Always on — one pass over the payload per hop.
bool PayloadCrcOk(const rdma::Message& m, const net::FrameHeader& frame,
                  uint32_t header_crc) {
  return m.payload != nullptr &&
         (header_crc ^ bat::Crc32(m.payload->data(), m.payload->size()) ^
          net::EnvelopeCrc(frame)) == frame.payload_crc;
}

/// Longest a node's service thread sleeps when idle: its reaction latency
/// to work posted from other threads.
constexpr auto kIdleWait = std::chrono::microseconds(200);

SimTime SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The "schema.table.column" contract of LoadBat: exactly three non-empty
/// dot-separated parts.
Status ValidateQualifiedName(const std::string& name) {
  const size_t d1 = name.find('.');
  const size_t d2 = d1 == std::string::npos ? std::string::npos : name.find('.', d1 + 1);
  const bool three_parts = d1 != std::string::npos && d2 != std::string::npos &&
                           name.find('.', d2 + 1) == std::string::npos;
  const bool nonempty = three_parts && d1 > 0 && d2 > d1 + 1 && d2 + 1 < name.size();
  if (!nonempty) {
    return Status::InvalidArgument("BAT name must be \"schema.table.column\", got \"" +
                                   name + "\"");
  }
  return Status::OK();
}

/// The per-node two-tier store configuration: the cluster-wide budget and
/// spill tunables, rooted in a per-node subdirectory of the spill root.
storage::FragmentStoreOptions NodeStoreOptions(const storage::FragmentStoreOptions& base,
                                               const std::string& spill_root,
                                               core::NodeId id) {
  storage::FragmentStoreOptions opts = base;
  opts.spill_dir =
      spill_root.empty() ? "" : spill_root + "/node" + std::to_string(id);
  return opts;
}

}  // namespace

// ===========================================================================
// Node
// ===========================================================================

class RingCluster::Node final : public core::DcEnv {
 public:
  /// One submission waiting in (or admitted from) the FIFO admission queue.
  struct QueuedQuery {
    std::shared_ptr<internal::QueryState> state;
    PreparedQueryPtr plan;
    SubmitOptions options;
  };

  /// Liveness / hop bookkeeping beyond the per-link ReliableMetrics.
  struct HopMetrics {
    uint64_t heartbeats_sent = 0;
    uint64_t heartbeats_received = 0;
    uint64_t heartbeats_missed = 0;
    uint64_t acks_sent = 0;
    uint64_t forwards_without_payload = 0;
    uint64_t orphan_frames_dropped = 0;
    uint64_t frames_adopted = 0;
    uint64_t decode_failures = 0;
  };

  /// Wire-compression bookkeeping of this node's serialize/send path.
  struct WireMetrics {
    uint64_t frames_encoded = 0;
    uint64_t raw_bytes = 0;
    uint64_t wire_bytes = 0;
    uint64_t hops = 0;
    uint64_t hop_bytes = 0;
    uint64_t dict_columns = 0;
    uint64_t for_columns = 0;
    uint64_t plain_columns = 0;
  };

  Node(RingCluster* cluster, core::NodeId id)
      : cluster_(cluster),
        id_(id),
        store_(NodeStoreOptions(cluster->options_.memory, cluster->options_.spill_dir,
                                id)) {
    const Options& opts = cluster->options_;
    if (opts.adaptive_loit) {
      loit_ = std::make_unique<core::AdaptiveLoit>(opts.adaptive);
    } else {
      loit_ = std::make_unique<core::StaticLoit>(opts.static_loit);
    }
    core::DcNodeOptions node_opts = opts.node;
    node_opts.node_id = id;
    node_opts.ring_size = opts.num_nodes;
    dc_ = std::make_unique<core::DcNode>(node_opts, this, loit_.get());

    rdma::Channel::Options data_opts;
    data_opts.mode = opts.mode;
    data_opts.capacity_bytes = opts.bat_queue_capacity * 4;  // hard backpressure
    data_in_ = std::make_unique<rdma::Channel>(data_opts);
    rdma::Channel::Options req_opts;
    req_opts.mode = rdma::TransferMode::kZeroCopy;
    request_in_ = std::make_unique<rdma::Channel>(req_opts);
    rdma::Channel::Options ctrl_opts;
    ctrl_opts.mode = rdma::TransferMode::kZeroCopy;  // meta-only traffic
    ctrl_in_ = std::make_unique<rdma::Channel>(ctrl_opts);
    if (opts.fault != nullptr) {
      data_in_->SetFaultInjector(opts.fault, id_, rdma::kFaultChannelData);
      request_in_->SetFaultInjector(opts.fault, id_, rdma::kFaultChannelRequest);
      ctrl_in_->SetFaultInjector(opts.fault, id_, rdma::kFaultChannelCtrl);
    }
    data_out_.Init(id_, net::kChData, opts.resilience.link, opts.resilience.seed);
    req_out_.Init(id_, net::kChRequest, opts.resilience.link, opts.resilience.seed);
  }

  // ---- wiring ---------------------------------------------------------------

  core::NodeId id() const { return id_; }
  rdma::Channel* data_in() { return data_in_.get(); }
  rdma::Channel* request_in() { return request_in_.get(); }
  rdma::Channel* ctrl_in() { return ctrl_in_.get(); }
  void SetNeighbours(Node* successor, Node* predecessor) {
    successor_.store(successor, std::memory_order_release);
    predecessor_.store(predecessor, std::memory_order_release);
  }

  /// Ring re-splice, posted onto the service thread: the sender towards the
  /// new neighbour resets (fresh epoch) so the receiver adopts it cleanly,
  /// and the liveness clock restarts.
  void AdoptSuccessor(Node* s) {
    Post([this, s] {
      successor_.store(s, std::memory_order_release);
      data_out_.Reset(SteadyNowNs());
      last_heard_succ_ = SteadyNowNs();
    });
  }
  void AdoptPredecessor(Node* p) {
    Post([this, p] {
      predecessor_.store(p, std::memory_order_release);
      req_out_.Reset(SteadyNowNs());
      last_heard_pred_ = SteadyNowNs();
    });
  }

  storage::FragmentStore& store() { return store_; }
  core::DcNode& dc() { return *dc_; }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Service-thread-owned reliability + hop counters, summed. Call via
  /// PostSync (or any serialized context on a crashed node).
  void SnapshotResilience(RingCluster::ResilienceMetrics* out) const {
    for (const net::ReliableMetrics* m :
         {&data_out_.metrics(), &req_out_.metrics(), &data_rx_.metrics(),
          &req_rx_.metrics()}) {
      out->retransmits += m->retransmits;
      out->frames_abandoned += m->frames_abandoned;
      out->link_resets += m->link_resets;
      out->frames_corrupted += m->frames_corrupted;
      out->frames_duplicate += m->frames_duplicate;
      out->frames_gap += m->frames_gap;
      out->frames_stale += m->frames_stale;
      out->frames_invalid += m->frames_invalid;
      out->nacks_sent += m->nacks_sent;
    }
    out->acks_sent += hop_.acks_sent;
    out->heartbeats_sent += hop_.heartbeats_sent;
    out->heartbeats_received += hop_.heartbeats_received;
    out->heartbeats_missed += hop_.heartbeats_missed;
    out->forwards_without_payload += hop_.forwards_without_payload;
    out->orphan_frames_dropped += hop_.orphan_frames_dropped;
    out->frames_adopted += hop_.frames_adopted;
    out->decode_failures += hop_.decode_failures;
  }

  /// Service-thread-owned wire-compression counters, summed. Call via
  /// PostSync (or any serialized context on a crashed node).
  void SnapshotBandwidth(RingCluster::BandwidthMetrics* out) const {
    out->frames_encoded += wire_.frames_encoded;
    out->raw_bytes += wire_.raw_bytes;
    out->wire_bytes += wire_.wire_bytes;
    out->hops += wire_.hops;
    out->hop_bytes += wire_.hop_bytes;
    out->dict_columns += wire_.dict_columns;
    out->for_columns += wire_.for_columns;
    out->plain_columns += wire_.plain_columns;
  }

  // ---- lifecycle -------------------------------------------------------------

  void Start() {
    stop_.store(false);
    service_ = std::thread([this] { ServiceLoop(); });
    // The query-runner pool: exactly C threads, created once per Start, so
    // at most C queries of this node execute concurrently however large the
    // submission burst (the rest wait in the FIFO). `accepting_` gates
    // EnqueueQuery so concurrent submits never touch the runners_ vector
    // while it is being populated; early submissions simply queue until the
    // runners come up.
    const uint32_t c = std::max<uint32_t>(1, cluster_->options_.admission.max_concurrent);
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      runners_stop_ = false;
      accepting_ = true;
    }
    runners_.reserve(c);
    for (uint32_t i = 0; i < c; ++i) {
      runners_.emplace_back([this] { QueryRunnerLoop(); });
    }
  }

  /// Cancels running queries, fails queued ones, joins the runner pool.
  /// Must run while the service thread is still alive (running queries
  /// unwind through Unpin posts to it). `error` is the terminal status of
  /// everything abandoned: Aborted on shutdown, Unavailable on crash.
  void StopRunnersWith(const Status& error) {
    std::deque<QueuedQuery> abandoned;
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      runners_stop_ = true;
      accepting_ = false;
      abandoned.swap(admission_queue_);
      admission_.queued = 0;
      // Abandoned entries are terminal: keep the counters balanced
      // (submitted == completed + rejected over the node's lifetime).
      admission_.completed += abandoned.size();
      admission_.cancelled_queued += abandoned.size();
      for (const auto& state : running_states_) state->cancel.Cancel();
    }
    admission_cv_.notify_all();
    // Wake every pin blocked on the ring; the woken sessions observe the
    // cancel flag set above.
    AbortAllWaiters(error);
    for (auto& t : runners_) {
      if (t.joinable()) t.join();
    }
    runners_.clear();
    for (auto& item : abandoned) {
      item.state->Finish(error);
    }
  }

  void StopRunners() { StopRunnersWith(Status::Aborted("cluster stopping")); }

  void Stop() {
    stop_.store(true);
    data_in_->Close();
    request_in_->Close();
    ctrl_in_->Close();
    mailbox_cv_.notify_all();
    if (service_.joinable()) service_.join();
  }

  /// Abrupt node death (fault injection): queries on this node fail with
  /// Unavailable, the channels close, the service thread exits. The node
  /// object stays around for Restart(); holders of Post/PostSync keep
  /// working (tasks run inline, serialized) so no caller can hang on a
  /// corpse.
  void Crash() {
    StopRunnersWith(Status::Unavailable("node " + std::to_string(id_) + " crashed"));
    // The crash loses RAM but not the disk tier: the store forgets every
    // frame while the spill files survive for RestartNode's recovery scan.
    store_.ForgetAllForCrash();
    std::lock_guard<std::mutex> dead(dead_exec_mu_);
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      crashed_.store(true, std::memory_order_release);
    }
    stop_.store(true);
    data_in_->Close();
    request_in_->Close();
    ctrl_in_->Close();
    mailbox_cv_.notify_all();
    if (service_.joinable()) service_.join();
    // Run what the service thread left behind: posted tasks may carry
    // PostSync promises whose callers would otherwise block forever.
    std::deque<std::function<void()>> leftover;
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      leftover.swap(mailbox_);
    }
    for (auto& task : leftover) task();
  }

  /// Re-admission after Crash(): a restarted node comes back amnesiac — a
  /// fresh protocol state machine, reopened channels, reset senders (new
  /// epochs) — wired between `successor` and `predecessor`.
  void Restart(Node* successor, Node* predecessor) {
    std::lock_guard<std::mutex> dead(dead_exec_mu_);
    core::DcNodeOptions node_opts = cluster_->options_.node;
    node_opts.node_id = id_;
    node_opts.ring_size = cluster_->options_.num_nodes;
    dc_ = std::make_unique<core::DcNode>(node_opts, this, loit_.get());
    decoded_.clear();
    decoded_in_store_.clear();
    decode_rejected_.clear();
    current_payload_ = nullptr;
    current_payload_crc_ = 0;
    data_in_->Reopen();
    request_in_->Reopen();
    ctrl_in_->Reopen();
    const SimTime now = SteadyNowNs();
    data_out_.Reset(now);
    req_out_.Reset(now);
    SetNeighbours(successor, predecessor);
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      mailbox_.clear();
      crashed_.store(false, std::memory_order_release);
    }
    Start();
  }

  /// Runs `task` on the service thread (the only thread touching dc_). On a
  /// crashed node the task runs inline instead, serialized by dead_exec_mu_
  /// (the service thread is gone, so this is the single-writer substitute).
  void Post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      if (!crashed_.load(std::memory_order_acquire)) {
        mailbox_.push_back(std::move(task));
        mailbox_cv_.notify_one();
        return;
      }
    }
    std::lock_guard<std::mutex> dead(dead_exec_mu_);
    task();
  }

  /// Posts `task` and waits for it to finish.
  void PostSync(std::function<void()> task) {
    std::promise<void> done;
    Post([&task, &done] {
      task();
      done.set_value();
    });
    done.get_future().wait();
  }

  // ---- query admission ------------------------------------------------------

  Status EnqueueQuery(QueuedQuery item) {
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      if (!accepting_ || runners_stop_) {
        if (crashed()) {
          return Status::Unavailable("node " + std::to_string(id_) + " is down");
        }
        return Status::FailedPrecondition("node " + std::to_string(id_) +
                                          " is not accepting queries");
      }
      if (cluster_->degraded() &&
          admission_queue_.size() >= cluster_->options_.admission.degraded_max_queued) {
        // A recovering ring gets breathing room: shed queue growth early
        // with a retryable status instead of piling work behind it.
        ++admission_.shed_degraded;
        return Status::Unavailable("ring degraded: load shed on node " +
                                   std::to_string(id_));
      }
      if (store_.UnderPressure() &&
          admission_queue_.size() >= cluster_->options_.admission.degraded_max_queued) {
        // Same graceful degradation under memory pressure: spill I/O is not
        // keeping up with the resident set, so new work is shed retryable
        // at the degraded bound instead of deepening the overhang.
        store_.NotePressureShed();
        return Status::Unavailable("memory pressure: load shed on node " +
                                   std::to_string(id_));
      }
      if (admission_queue_.size() >= cluster_->options_.admission.max_queued) {
        ++admission_.rejected;
        return Status::ResourceExhausted(
            "admission queue full on node " + std::to_string(id_) + ": " +
            std::to_string(admission_queue_.size()) + " queued, limit " +
            std::to_string(cluster_->options_.admission.max_queued));
      }
      admission_queue_.push_back(std::move(item));
      ++admission_.submitted;
      admission_.queued = static_cast<uint32_t>(admission_queue_.size());
      admission_.peak_queued = std::max(admission_.peak_queued, admission_.queued);
    }
    admission_cv_.notify_one();
    return Status::OK();
  }

  core::AdmissionMetrics admission_metrics() const {
    std::lock_guard<std::mutex> lock(admission_mu_);
    return admission_;
  }

  /// Fails queued queries whose token tripped (cancel or deadline) without
  /// waiting for a runner slot: with every slot occupied by long queries, a
  /// queued submission would otherwise outlive its own deadline unnoticed.
  /// Runs on the service thread's maintenance tick.
  void SweepAdmissionQueue() {
    std::vector<std::pair<QueuedQuery, Status>> expired;
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      for (auto it = admission_queue_.begin(); it != admission_queue_.end();) {
        Status live = it->state->cancel.CheckLive();
        if (live.ok()) {
          ++it;
          continue;
        }
        if (live.code() == StatusCode::kAborted) ++admission_.cancelled_queued;
        if (live.code() == StatusCode::kTimedOut) ++admission_.timed_out_queued;
        ++admission_.completed;
        expired.emplace_back(std::move(*it), std::move(live));
        it = admission_queue_.erase(it);
      }
      admission_.queued = static_cast<uint32_t>(admission_queue_.size());
    }
    for (auto& [item, status] : expired) item.state->Finish(status);
  }

  // ---- query-session support ---------------------------------------------------

  /// Registers a waiter resolved by DeliverToQuery/FailQuery.
  std::future<Result<bat::BatPtr>> AddWaiter(core::QueryId q, core::BatId b) {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    auto& p = waiters_[{q, b}];
    return p.get_future();
  }

  /// Drops a waiter that was satisfied through the immediate path.
  void RemoveWaiter(core::QueryId q, core::BatId b) {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    waiters_.erase({q, b});
  }

  /// Thread-safe failure injection into one waiter (cancel / deadline); a
  /// no-op if the delivery already resolved it — whichever side erases the
  /// entry first wins.
  void ResolveWaiterWith(core::QueryId q, core::BatId b, Status error) {
    ResolveWaiter(q, b, std::move(error));
  }

  /// Fails every outstanding waiter of `query` (cooperative Cancel()).
  void AbortQueryWaiters(core::QueryId query) {
    std::vector<std::promise<Result<bat::BatPtr>>> taken;
    {
      std::lock_guard<std::mutex> lock(waiters_mu_);
      auto it = waiters_.lower_bound({query, 0});
      while (it != waiters_.end() && it->first.first == query) {
        taken.push_back(std::move(it->second));
        it = waiters_.erase(it);
      }
    }
    for (auto& p : taken) p.set_value(Status::Aborted("query cancelled"));
  }

  /// Fails every outstanding waiter (cluster shutdown).
  void AbortAllWaiters(const Status& error) {
    std::map<std::pair<core::QueryId, core::BatId>, std::promise<Result<bat::BatPtr>>>
        taken;
    {
      std::lock_guard<std::mutex> lock(waiters_mu_);
      taken.swap(waiters_);
    }
    for (auto& [_, p] : taken) p.set_value(error);
  }

  // ---- DcEnv (service thread only) ----------------------------------------------

  SimTime Now() override { return SteadyNowNs(); }

  void SendRequestMsg(const core::RequestMsg& msg) override {
    // Requests travel anti-clockwise.
    Node* pred = predecessor_.load(std::memory_order_acquire);
    net::RequestFrame rf;
    rf.frame = req_out_.NextHeader(bat::Crc32(&msg, sizeof(msg)));
    rf.req = msg;
    const rdma::MetaBlob meta = rdma::MetaBlob::Of(rf);
    if (pred->request_in()->Send(kOpRequest, meta, nullptr, id_)) {
      req_out_.Track(kOpRequest, meta, nullptr, rf.frame.seq, SteadyNowNs());
    }
  }

  void SendBatMsg(const core::BatHeader& header, bool is_load) override {
    rdma::Buffer payload;
    uint32_t payload_crc = 0;
    if (is_load) {
      auto b = store_.GetById(header.bat_id);
      if (!b.ok() && (b.status().code() == StatusCode::kCorruption ||
                      b.status().code() == StatusCode::kNotFound)) {
        // Corruption: the spilled image of an owned fragment rotted on disk
        // and the store already deleted it. NotFound: this node became the
        // owner through a re-homing while its only registered copy was a
        // transient decoded-cache entry that the cache upkeep has since
        // dropped. Either way the cluster registry still holds the durable
        // payload — re-materialize from it and retry once.
        if (cluster_->RefetchFragment(header.bat_id, this).ok()) {
          b = store_.GetById(header.bat_id);
        }
      }
      if (!b.ok()) {
        DCY_LOG(kError) << "node " << id_ << " cannot load BAT " << header.bat_id << ": "
                        << b.status().ToString();
        return;
      }
      // Serialize into a pooled frame: the frame circulates the ring
      // zero-copy and returns to this pool when the last hop releases it.
      // FrameEncoder plans per-column codecs once for both the size and
      // the encode, and reports what compression bought this frame.
      const bat::FrameEncoder enc(**b);
      auto frame = frame_pool_.Acquire(enc.encoded_size());
      enc.SerializeInto(frame.get());
      const bat::CodecStats& cs = enc.stats();
      ++wire_.frames_encoded;
      wire_.raw_bytes += cs.raw_bytes;
      wire_.wire_bytes += cs.wire_bytes;
      wire_.dict_columns += cs.dict_columns;
      wire_.for_columns += cs.for_columns;
      wire_.plain_columns += cs.plain_columns;
      payload_crc = bat::Crc32(frame->data(), frame->size());
      payload = std::move(frame);
    } else {
      payload = current_payload_;
      if (payload == nullptr) {
        // A protocol state forced a forward with no frame in hand (e.g. a
        // duplicate delivery already consumed it). Dropping the forward is
        // recoverable — the owner's lost-BAT timer reloads it — where the
        // old DCY_CHECK here took the whole process down.
        ++hop_.forwards_without_payload;
        DCY_LOG(kWarn) << "node " << id_ << " cannot forward BAT " << header.bat_id
                       << " without payload; leaving recovery to the owner";
        return;
      }
      payload_crc = current_payload_crc_;
    }
    ++wire_.hops;
    wire_.hop_bytes += payload->size();
    Node* succ = successor_.load(std::memory_order_acquire);
    net::DataFrame df;
    df.frame = data_out_.NextHeader(HeaderCrc(header) ^ payload_crc);
    df.bat = header;
    // meta = envelope + administrative header, payload = encoded BAT
    // (zero-copy); a copy stays in the retransmit window until ACKed.
    const rdma::MetaBlob meta = rdma::MetaBlob::Of(df);
    if (succ->data_in()->Send(kOpBat, meta, payload, id_)) {
      data_out_.Track(kOpBat, meta, std::move(payload), df.frame.seq, SteadyNowNs());
    }
  }

  void DeliverToQuery(core::QueryId query, core::BatId bat) override {
    Result<bat::BatPtr> value = [&]() -> Result<bat::BatPtr> {
      auto it = decoded_.find(bat);
      if (it != decoded_.end()) return it->second;
      // A delivery the store refused to cache (budget): fail the pin with
      // the typed backpressure recorded at decode time — retryable, so the
      // session layer resubmits instead of hanging on a frame that cannot
      // be kept.
      auto rej = decode_rejected_.find(bat);
      if (rej != decode_rejected_.end()) {
        Status refused = rej->second;
        decode_rejected_.erase(rej);
        return refused;
      }
      auto resident = store_.GetResident(bat);
      if (resident.ok()) return resident;
      return Status::NotFound("decoded BAT " + std::to_string(bat) + " missing");
    }();
    ResolveWaiter(query, bat, std::move(value));
  }

  void FailQuery(core::QueryId query, core::BatId bat) override {
    ResolveWaiter(query, bat, cluster_->FragmentFailureStatus(bat));
  }

  uint64_t BatQueueLoadBytes() override {
    return successor_.load(std::memory_order_acquire)->data_in()->queued_bytes();
  }

  uint64_t BatQueueCapacityBytes() override { return cluster_->options_.bat_queue_capacity; }

  /// Decoded-BAT cache upkeep: drop entries the protocol cache released,
  /// returning their budget charge to the store.
  void TrimDecoded() {
    for (auto it = decoded_.begin(); it != decoded_.end();) {
      if (!dc_->cache().Contains(it->first)) {
        if (decoded_in_store_.erase(it->first) > 0) {
          store_.Unpin(it->first);
          store_.Drop(it->first);
        }
        it = decoded_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = decode_rejected_.begin(); it != decode_rejected_.end();) {
      if (!dc_->pins().HasBlocked(it->first)) {
        it = decode_rejected_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Pin via the two-tier store with fault-in, retrying once through a ring
  /// re-fetch when the spill image turned out corrupt. Runs on a query
  /// runner thread (never the service thread) — the disk read may block.
  Result<bat::BatPtr> PinStored(core::BatId bat,
                                std::chrono::steady_clock::time_point deadline) {
    auto pinned = store_.Pin(bat, deadline);
    if (pinned.ok() || pinned.status().code() != StatusCode::kCorruption) {
      return pinned;
    }
    DCY_LOG(kWarn) << "node " << id_ << ": " << pinned.status().message();
    DCY_RETURN_NOT_OK(cluster_->RefetchFragment(bat, this));
    return store_.Pin(bat, deadline);
  }

  /// Launches one committed delta onto the ring. Runs on a query-runner
  /// thread: the serialization happens here (pooled frame, shared by every
  /// hop zero-copy), only the send is posted to the service thread.
  void PublishDelta(const write::DeltaPtr& d) {
    auto frame = frame_pool_.Acquire(write::EncodedDeltaSize(*d));
    write::SerializeDeltaInto(*d, frame.get());
    const uint32_t payload_crc = bat::Crc32(frame->data(), frame->size());
    rdma::Buffer payload = std::move(frame);
    Post([this, fragment = d->fragment, version = d->version,
          payload = std::move(payload), payload_crc] {
      SendDeltaMsg(fragment, version, /*origin=*/id_, /*hops=*/0, payload, payload_crc);
    });
  }

 private:
  void ResolveWaiter(core::QueryId query, core::BatId bat, Result<bat::BatPtr> value) {
    std::promise<Result<bat::BatPtr>> promise;
    {
      std::lock_guard<std::mutex> lock(waiters_mu_);
      auto it = waiters_.find({query, bat});
      if (it == waiters_.end()) return;  // nobody waiting (local pin path)
      promise = std::move(it->second);
      waiters_.erase(it);
    }
    promise.set_value(std::move(value));
  }

  /// True for plausibly well-formed envelopes; anything else (a corrupted
  /// meta, a frame from nowhere) is counted and dropped without a NACK —
  /// garbage must not be able to steer per-peer protocol state.
  bool ValidFrame(const net::FrameHeader& h, net::ReliableReceiver* rx) {
    if (h.magic == net::kFrameMagic && h.sender < cluster_->options_.num_nodes &&
        h.sender != id_) {
      return true;
    }
    ++rx->mutable_metrics()->frames_invalid;
    return false;
  }

  void SendNack(uint32_t to, uint32_t channel, uint32_t epoch, uint64_t seq) {
    net::CtrlMsg nack;
    nack.sender = id_;
    nack.channel = channel;
    nack.kind = static_cast<uint32_t>(net::CtrlKind::kNack);
    nack.epoch = epoch;
    nack.seq = seq;
    nack.crc = net::CtrlCrc(nack);
    cluster_->nodes_[to]->ctrl_in()->Send(kOpCtrl, rdma::MetaBlob::Of(nack), nullptr,
                                          id_);
  }

  void SendAck(uint32_t to, uint32_t channel, uint32_t epoch, uint64_t seq) {
    net::CtrlMsg ack;
    ack.sender = id_;
    ack.channel = channel;
    ack.kind = static_cast<uint32_t>(net::CtrlKind::kAck);
    ack.epoch = epoch;
    ack.seq = seq;
    ack.crc = net::CtrlCrc(ack);
    if (cluster_->nodes_[to]->ctrl_in()->Send(kOpCtrl, rdma::MetaBlob::Of(ack), nullptr,
                                              id_)) {
      ++hop_.acks_sent;
    }
  }

  void NoteHeardFrom(core::NodeId sender) {
    const SimTime now = SteadyNowNs();
    Node* succ = successor_.load(std::memory_order_acquire);
    Node* pred = predecessor_.load(std::memory_order_acquire);
    if (succ != nullptr && succ->id() == sender) last_heard_succ_ = now;
    if (pred != nullptr && pred->id() == sender) last_heard_pred_ = now;
  }

  void HandleCtrl(const rdma::Message& m) {
    if (m.meta.size() < sizeof(net::CtrlMsg)) return;
    const auto c = m.meta.As<net::CtrlMsg>();
    if (c.magic != net::kFrameMagic || c.sender >= cluster_->options_.num_nodes) return;
    if (c.crc != net::CtrlCrc(c)) {
      // A corrupted ACK could falsely retire un-delivered frames from the
      // sender's window; drop it and let a later cumulative ACK (or the
      // retransmit timer) carry the information instead.
      ++data_rx_.mutable_metrics()->frames_invalid;
      return;
    }
    const SimTime now = SteadyNowNs();
    switch (static_cast<net::CtrlKind>(c.kind)) {
      case net::CtrlKind::kAck:
        if (c.channel == net::kChData) data_out_.OnAck(c.epoch, c.seq, now);
        if (c.channel == net::kChRequest) req_out_.OnAck(c.epoch, c.seq, now);
        break;
      case net::CtrlKind::kNack:
        if (c.channel == net::kChData) data_out_.OnNack(c.epoch, c.seq, now);
        if (c.channel == net::kChRequest) req_out_.OnNack(c.epoch, c.seq, now);
        break;
      case net::CtrlKind::kHeartbeat:
        ++hop_.heartbeats_received;
        NoteHeardFrom(c.sender);
        break;
    }
  }

  void HandleRequestFrame(const rdma::Message& m) {
    if (m.meta.size() < sizeof(net::RequestFrame)) return;
    const auto rf = m.meta.As<net::RequestFrame>();
    if (!ValidFrame(rf.frame, &req_rx_)) return;
    const bool crc_ok = (bat::Crc32(&rf.req, sizeof(rf.req)) ^
                         net::EnvelopeCrc(rf.frame)) == rf.frame.payload_crc;
    const auto outcome = req_rx_.OnFrame(rf.frame, crc_ok);
    if (outcome.send_nack) {
      SendNack(rf.frame.sender, net::kChRequest, outcome.nack_epoch, outcome.nack_seq);
    }
    if (outcome.verdict != net::ReliableReceiver::Verdict::kDeliver) return;
    NoteHeardFrom(rf.frame.sender);
    dc_->OnRequestMsg(rf.req);
  }

  void HandleDataFrame(const rdma::Message& m) {
    if (m.meta.size() < sizeof(net::DataFrame)) return;
    const auto df = m.meta.As<net::DataFrame>();
    if (!ValidFrame(df.frame, &data_rx_)) return;
    const uint32_t header_crc = HeaderCrc(df.bat);
    const auto outcome =
        data_rx_.OnFrame(df.frame, PayloadCrcOk(m, df.frame, header_crc));
    if (outcome.send_nack) {
      SendNack(df.frame.sender, net::kChData, outcome.nack_epoch, outcome.nack_seq);
    }
    if (outcome.verdict != net::ReliableReceiver::Verdict::kDeliver) return;
    NoteHeardFrom(df.frame.sender);

    core::BatHeader header = df.bat;
    if (!cluster_->IsNodeAlive(header.owner)) {
      if (dc_->owned().Find(header.bat_id) != nullptr) {
        // This node inherited the fragment (re-homing): take ownership of
        // the circulating frame too, so hot-set accounting has an owner.
        header.owner = id_;
        ++hop_.frames_adopted;
      } else if (header.hops > OrphanHopBound()) {
        // An orphan with a dead owner and no heir: nobody will retire it,
        // so age it out instead of letting it circle forever.
        ++hop_.orphan_frames_dropped;
        return;
      }
    }

    current_payload_ = m.payload;
    // Strip envelope and admin-header halves: the cached value is the CRC of
    // the payload bytes alone, re-wrapped per hop by SendBatMsg.
    current_payload_crc_ = df.frame.payload_crc ^ net::EnvelopeCrc(df.frame) ^ header_crc;
    // Decode up front if local queries are blocked on it (delivery needs the
    // typed BAT) — cheap check, decode once.
    if (dc_->pins().HasBlocked(header.bat_id) && decoded_.count(header.bat_id) == 0) {
      auto decoded = bat::Deserialize(*m.payload);
      if (decoded.ok()) {
        // The decoded payload charges the memory budget like any other
        // resident fragment: admit it as a non-durable (droppable) frame,
        // pinned until the protocol cache releases it. Over budget, the
        // typed refusal is delivered to the blocked pin instead of the data
        // (retryable backpressure, never an unaccounted allocation).
        Status admitted = store_.Admit(header.bat_id, "", *decoded,
                                       /*durable=*/false, /*initial_pins=*/1);
        if (admitted.ok()) {
          decoded_[header.bat_id] = *decoded;
          decoded_in_store_.insert(header.bat_id);
        } else if (admitted.code() == StatusCode::kAlreadyExists) {
          decoded_[header.bat_id] = *decoded;
        } else {
          decode_rejected_[header.bat_id] = admitted;
        }
      } else {
        ++hop_.decode_failures;  // hop CRC passed but the encoding is bad
      }
    }
    dc_->OnBatMsg(header);
    store_.NoteRingLoi(header.bat_id, header.loi);
    current_payload_ = nullptr;
    current_payload_crc_ = 0;
    TrimDecoded();
  }

  /// Sends one delta frame clockwise (service thread only). Shares the data
  /// sender's sequence space, so ACK/NACK/retransmission come for free.
  void SendDeltaMsg(core::BatId fragment, uint64_t version, core::NodeId origin,
                    uint32_t hops, rdma::Buffer payload, uint32_t payload_crc) {
    Node* succ = successor_.load(std::memory_order_acquire);
    if (succ == nullptr || succ == this) return;
    DeltaFrame df;
    df.fragment = fragment;
    df.origin = origin;
    df.version = version;
    df.hops = hops;
    df.frame = data_out_.NextHeader(DeltaHeaderCrc(df) ^ payload_crc);
    const rdma::MetaBlob meta = rdma::MetaBlob::Of(df);
    if (succ->data_in()->Send(kOpDelta, meta, payload, id_)) {
      data_out_.Track(kOpDelta, meta, std::move(payload), df.frame.seq, SteadyNowNs());
    }
  }

  void HandleDeltaFrame(const rdma::Message& m) {
    if (m.meta.size() < sizeof(DeltaFrame)) return;
    const auto df = m.meta.As<DeltaFrame>();
    if (!ValidFrame(df.frame, &data_rx_)) return;
    const uint32_t header_crc = DeltaHeaderCrc(df);
    const auto outcome =
        data_rx_.OnFrame(df.frame, PayloadCrcOk(m, df.frame, header_crc));
    if (outcome.send_nack) {
      SendNack(df.frame.sender, net::kChData, outcome.nack_epoch, outcome.nack_seq);
    }
    if (outcome.verdict != net::ReliableReceiver::Verdict::kDeliver) return;
    NoteHeardFrom(df.frame.sender);

    // Full lap: the origin already holds the commit in the write log.
    if (df.origin == id_) return;
    write::WriteLog& log = cluster_->write_log_;
    // Stale: the compactor folded this version into a base already.
    if (df.version <= log.BaseVersionOf(df.fragment)) return;
    if (!write::DeserializeDelta(*m.payload).ok()) {
      // Hop CRC passed but the delta encoding itself is bad (corrupted at
      // the source): count it, never forward garbage.
      ++hop_.decode_failures;
      log.NoteDeltaDecodeFailure();
      return;
    }
    // Forward until the frame has passed every node. Termination is reaching
    // the origin (above); the hop bound only reaps frames whose origin died.
    if (df.hops + 1 >= OrphanHopBound()) {
      ++hop_.orphan_frames_dropped;
      return;
    }
    const uint32_t payload_crc =
        df.frame.payload_crc ^ net::EnvelopeCrc(df.frame) ^ header_crc;
    SendDeltaMsg(df.fragment, df.version, df.origin, df.hops + 1, m.payload,
                 payload_crc);
    log.NoteDeltaForwarded(m.payload->size());
  }

  /// Hops after which a frame whose owner (BAT) or origin (delta) died is
  /// dropped as an orphan: one full lap plus slack for in-flight duplicates.
  uint32_t OrphanHopBound() const { return 2 * cluster_->options_.num_nodes + 4; }

  /// Sends one coalesced cumulative ACK per distinct sender in a drained
  /// batch — O(batch) frames cost O(senders) ACK messages.
  template <typename FrameT>
  void AckDrainedBatch(const std::vector<rdma::Message>& batch, uint32_t channel,
                       const net::ReliableReceiver& rx) {
    uint32_t seen[2] = {core::kInvalidNode, core::kInvalidNode};
    size_t n = 0;
    for (const rdma::Message& m : batch) {
      if (m.meta.size() < sizeof(FrameT)) continue;
      const auto f = m.meta.As<FrameT>();
      const uint32_t s = f.frame.sender;
      if (s >= cluster_->options_.num_nodes) continue;
      bool known = false;
      for (size_t i = 0; i < n; ++i) known = known || seen[i] == s;
      if (known) continue;
      if (n < 2) seen[n++] = s;
      uint32_t epoch = 0;
      uint64_t seq = 0;
      if (rx.CumulativeAck(s, &epoch, &seq)) SendAck(s, channel, epoch, seq);
    }
  }

  /// Re-sends everything due in a link's retransmit window.
  void PumpRetransmits(SimTime now) {
    if (const auto* w = data_out_.CollectRetransmits(now)) {
      Node* succ = successor_.load(std::memory_order_acquire);
      for (const auto& s : *w) succ->data_in()->Send(s.opcode, s.meta, s.payload, id_);
    }
    if (const auto* w = req_out_.CollectRetransmits(now)) {
      Node* pred = predecessor_.load(std::memory_order_acquire);
      for (const auto& s : *w) {
        pred->request_in()->Send(s.opcode, s.meta, s.payload, id_);
      }
    }
  }

  void SendHeartbeats() {
    net::CtrlMsg hb;
    hb.sender = id_;
    hb.channel = net::kChCtrl;
    hb.kind = static_cast<uint32_t>(net::CtrlKind::kHeartbeat);
    hb.crc = net::CtrlCrc(hb);
    Node* succ = successor_.load(std::memory_order_acquire);
    Node* pred = predecessor_.load(std::memory_order_acquire);
    const rdma::MetaBlob meta = rdma::MetaBlob::Of(hb);
    if (succ != nullptr && succ != this) {
      succ->ctrl_in()->Send(kOpCtrl, meta, nullptr, id_);
      ++hop_.heartbeats_sent;
    }
    if (pred != nullptr && pred != this && pred != succ) {
      pred->ctrl_in()->Send(kOpCtrl, meta, nullptr, id_);
      ++hop_.heartbeats_sent;
    }
  }

  void CheckNeighbours(SimTime now) {
    const auto& res = cluster_->options_.resilience;
    const SimTime silence_bound = res.heartbeat_miss_threshold * res.heartbeat_period;
    Node* succ = successor_.load(std::memory_order_acquire);
    Node* pred = predecessor_.load(std::memory_order_acquire);
    if (succ != nullptr && succ != this && now - last_heard_succ_ > silence_bound) {
      ++hop_.heartbeats_missed;
      last_heard_succ_ = now;  // one report per silence window, not a storm
      cluster_->ReportSuspect(id_, succ->id());
    }
    if (pred != nullptr && pred != this && pred != succ &&
        now - last_heard_pred_ > silence_bound) {
      ++hop_.heartbeats_missed;
      last_heard_pred_ = now;
      cluster_->ReportSuspect(id_, pred->id());
    }
  }

  void ServiceLoop() {
    const auto& node_opts = dc_->options();
    const auto& res = cluster_->options_.resilience;
    SimTime next_load_all = SteadyNowNs() + node_opts.load_all_period;
    SimTime next_maintenance = SteadyNowNs() + node_opts.maintenance_period;
    SimTime next_adapt = SteadyNowNs() + node_opts.adapt_period;
    SimTime next_heartbeat = SteadyNowNs() + res.heartbeat_period;
    last_heard_succ_ = last_heard_pred_ = SteadyNowNs();

    while (!stop_.load(std::memory_order_relaxed)) {
      bool did_work = false;

      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(mailbox_mu_);
        if (!mailbox_.empty()) {
          task = std::move(mailbox_.front());
          mailbox_.pop_front();
        }
      }
      if (task) {
        task();
        did_work = true;
      }

      // Control first: ACKs shrink retransmit windows before new sends.
      drain_.clear();
      if (ctrl_in_->TryReceiveAll(&drain_) > 0) {
        for (const rdma::Message& m : drain_) HandleCtrl(m);
        did_work = true;
      }

      // Drain whole backlogs in one lock acquisition per channel: at high
      // message rates a rotation delivers bursts, and per-message locking
      // was the dominant hop cost.
      drain_.clear();
      if (request_in_->TryReceiveAll(&drain_) > 0) {
        for (const rdma::Message& m : drain_) HandleRequestFrame(m);
        AckDrainedBatch<net::RequestFrame>(drain_, net::kChRequest, req_rx_);
        did_work = true;
      }
      drain_.clear();
      if (data_in_->TryReceiveAll(&drain_) > 0) {
        for (rdma::Message& m : drain_) {
          if (m.opcode == kOpDelta) {
            HandleDeltaFrame(m);
          } else {
            HandleDataFrame(m);
          }
        }
        AckDrainedBatch<net::DataFrame>(drain_, net::kChData, data_rx_);
        drain_.clear();  // release payload references promptly
        did_work = true;
      }

      const SimTime now = SteadyNowNs();
      PumpRetransmits(now);
      if (res.enable_heartbeats && now >= next_heartbeat) {
        SendHeartbeats();
        CheckNeighbours(now);
        next_heartbeat = now + res.heartbeat_period;
        did_work = true;
      }
      if (now >= next_load_all) {
        dc_->OnLoadAllTimer();
        next_load_all = now + node_opts.load_all_period;
        did_work = true;
      }
      if (now >= next_maintenance) {
        dc_->OnMaintenanceTimer();
        SweepAdmissionQueue();
        next_maintenance = now + node_opts.maintenance_period;
        did_work = true;
      }
      if (now >= next_adapt) {
        dc_->OnAdaptTimer();
        next_adapt = now + node_opts.adapt_period;
        did_work = true;
      }

      if (!did_work) {
        std::unique_lock<std::mutex> lock(mailbox_mu_);
        mailbox_cv_.wait_for(lock, kIdleWait);
      }
    }
  }

  /// One admission slot: dequeues FIFO, executes (or fails a query whose
  /// token tripped while it waited), publishes the terminal outcome.
  void QueryRunnerLoop() {
    for (;;) {
      QueuedQuery item;
      uint64_t seq = 0;
      {
        std::unique_lock<std::mutex> lock(admission_mu_);
        admission_cv_.wait(lock,
                           [this] { return runners_stop_ || !admission_queue_.empty(); });
        if (admission_queue_.empty()) {
          if (runners_stop_) return;
          continue;  // spurious wake
        }
        item = std::move(admission_queue_.front());
        admission_queue_.pop_front();
        admission_.queued = static_cast<uint32_t>(admission_queue_.size());
        ++admission_.running;
        admission_.peak_running = std::max(admission_.peak_running, admission_.running);
        ++admission_.admitted;
        seq = next_admitted_seq_++;
        running_states_.insert(item.state);
      }

      const auto admitted_at = std::chrono::steady_clock::now();
      const Status live = item.state->cancel.CheckLive();
      Result<QueryResult> outcome = live.ok()
          ? cluster_->RunQuery(this, *item.plan, item.state.get(), item.options)
          : Result<QueryResult>(live);
      if (outcome.ok()) {
        QueryResult& qr = outcome.value();
        qr.admitted_seq = seq;
        qr.timing.queued_seconds =
            std::chrono::duration<double>(admitted_at - item.state->submitted_at).count();
        qr.timing.wall_seconds = SecondsSince(item.state->submitted_at);
      }

      {
        std::lock_guard<std::mutex> lock(admission_mu_);
        running_states_.erase(item.state);
        --admission_.running;
        ++admission_.completed;
        if (!live.ok()) {
          if (live.code() == StatusCode::kAborted) ++admission_.cancelled_queued;
          if (live.code() == StatusCode::kTimedOut) ++admission_.timed_out_queued;
        }
      }
      item.state->Finish(std::move(outcome));
    }
  }

  RingCluster* cluster_;
  core::NodeId id_;
  storage::FragmentStore store_;
  std::unique_ptr<core::LoitPolicy> loit_;
  std::unique_ptr<core::DcNode> dc_;
  std::atomic<Node*> successor_{nullptr};
  std::atomic<Node*> predecessor_{nullptr};

  std::unique_ptr<rdma::Channel> data_in_;     // from predecessor
  std::unique_ptr<rdma::Channel> request_in_;  // from successor
  std::unique_ptr<rdma::Channel> ctrl_in_;     // ACK/NACK/heartbeat, any node

  // Hop reliability (service-thread state; read via PostSync snapshots).
  net::ReliableSender data_out_;   // towards successor
  net::ReliableSender req_out_;    // towards predecessor
  net::ReliableReceiver data_rx_;  // frames from predecessor(s)
  net::ReliableReceiver req_rx_;   // frames from successor(s)
  HopMetrics hop_;
  WireMetrics wire_;
  SimTime last_heard_succ_ = 0;
  SimTime last_heard_pred_ = 0;

  std::atomic<bool> crashed_{false};
  /// Serializes inline task execution while the node is crashed (the
  /// substitute for the dead service thread's single-writer discipline).
  std::mutex dead_exec_mu_;

  std::thread service_;
  std::atomic<bool> stop_{false};
  std::mutex mailbox_mu_;
  std::condition_variable mailbox_cv_;
  std::deque<std::function<void()>> mailbox_;

  // Admission queue + runner pool (guarded by admission_mu_).
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  std::deque<QueuedQuery> admission_queue_;
  std::set<std::shared_ptr<internal::QueryState>> running_states_;
  core::AdmissionMetrics admission_;
  uint64_t next_admitted_seq_ = 0;
  bool accepting_ = false;  ///< Start() flips it on, StopRunners() off
  bool runners_stop_ = false;
  std::vector<std::thread> runners_;

  rdma::Buffer current_payload_;
  /// Payload-only CRC of current_payload_, forwarded hop to hop so a
  /// forward never rescans the payload on the send path.
  uint32_t current_payload_crc_ = 0;
  rdma::BufferPool frame_pool_;  ///< serialization frames for owned loads
  std::vector<rdma::Message> drain_;  ///< service-loop batch receive scratch
  std::unordered_map<core::BatId, bat::BatPtr> decoded_;
  /// Decoded frames charged to the store (one pin each until TrimDecoded).
  std::unordered_set<core::BatId> decoded_in_store_;
  /// Deliveries the store refused under budget; consumed by DeliverToQuery.
  std::unordered_map<core::BatId, Status> decode_rejected_;

  std::mutex waiters_mu_;
  std::map<std::pair<core::QueryId, core::BatId>, std::promise<Result<bat::BatPtr>>>
      waiters_;
};

// ===========================================================================
// Session hooks: the datacyclotron.* builtins of one query execution.
// ===========================================================================

namespace {

class SessionHooks final : public mal::DcHooks {
 public:
  SessionHooks(RingCluster* cluster, RingCluster::Node* node, core::QueryId query,
               const mal::CancelToken* cancel, uint64_t snapshot)
      : cluster_(cluster), node_(node), query_(query), cancel_(cancel),
        snapshot_(snapshot) {}

  ~SessionHooks() override {
    // Release everything the plan failed to unpin (aborted / cancelled /
    // timed-out executions): delivered pins drop their cache reference and
    // bare requests retire their S2 entry, so a dead query leaks neither
    // memory nor fragment requests that would keep BATs hot.
    for (const core::BatId bat : requested_) {
      node_->Post([node = node_, q = query_, bat] { node->dc().Unpin(q, bat); });
    }
    // Buffer-frame pins likewise: a leaked pin would make the frame
    // unevictable forever.
    for (const auto& [bat, count] : store_pins_) {
      for (uint32_t i = 0; i < count; ++i) node_->store().Unpin(bat);
    }
  }

  /// Summed wall time the plan's pins spent blocked on the ring.
  double blocked_seconds() const {
    return static_cast<double>(blocked_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

  Result<mal::RequestHandle> Request(const std::string& schema, const std::string& table,
                                     const std::string& column, int64_t) override {
    const std::string name = schema + "." + table + "." + column;
    DCY_ASSIGN_OR_RETURN(core::BatId bat, cluster_->FindFragment(name));
    {
      std::lock_guard<std::mutex> lock(mu_);
      requested_.insert(bat);
    }
    node_->Post([node = node_, q = query_, bat] { node->dc().Request(q, bat); });
    return mal::RequestHandle{bat};
  }

  Result<bat::BatPtr> Pin(const mal::RequestHandle& handle) override {
    const core::BatId bat = handle.bat;
    if (cancel_ != nullptr) DCY_RETURN_NOT_OK(cancel_->CheckLive());
    {
      // Defensive pin-without-request still owes an unpin at teardown.
      std::lock_guard<std::mutex> lock(mu_);
      requested_.insert(bat);
    }
    // Register the waiter *before* pinning so a delivery racing the pin
    // cannot be missed.
    auto future = node_->AddWaiter(query_, bat);
    std::promise<Result<bat::BatPtr>> immediate;
    auto immediate_future = immediate.get_future();
    bool fault_in = false;
    node_->PostSync([&, this] {
      if (node_->dc().Pin(query_, bat)) {
        // Available now: owned locally or cached. TryPinResident never does
        // I/O — the service thread must not block on a disk read.
        auto local = node_->store().TryPinResident(bat);
        if (local.ok()) {
          NoteStorePin(bat);
          immediate.set_value(*local);
          return;
        }
        if (local.status().code() == StatusCode::kFailedPrecondition) {
          // Spilled: fault it in from the disk tier on this runner thread
          // (the whole pin instruction already runs under a BlockingScope,
          // so the executor backfills the blocked slot).
          fault_in = true;
          immediate.set_value(local.status());
          return;
        }
        // Not owned: it must be in the decoded cache via DeliverToQuery's
        // bookkeeping — fall through to the waiter resolution by asking the
        // protocol to deliver from cache.
        node_->DeliverToQuery(query_, bat);
        immediate.set_value(Status::FailedPrecondition("resolved via waiter"));
      } else {
        immediate.set_value(Status::FailedPrecondition("blocked"));
      }
    });
    Result<bat::BatPtr> quick = immediate_future.get();
    bat::BatPtr value;
    if (quick.ok()) {
      node_->RemoveWaiter(query_, bat);
      value = *quick;
    } else if (fault_in) {
      node_->RemoveWaiter(query_, bat);
      const auto blocked_at = std::chrono::steady_clock::now();
      const auto deadline = cancel_ != nullptr && cancel_->has_deadline()
                                ? cancel_->deadline()
                                : std::chrono::steady_clock::time_point::max();
      auto faulted = node_->PinStored(bat, deadline);
      blocked_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - blocked_at)
                                .count(),
                            std::memory_order_relaxed);
      if (!faulted.ok()) return faulted.status();
      NoteStorePin(bat);
      value = *faulted;
    } else {
      // Blocked until the fragment flows by — or the query is cancelled or
      // runs past its deadline. Cancellation protocol: Cancel() sets the
      // token *then* aborts this query's waiters, and we re-check the token
      // only after registering the waiter, so one side always fires.
      const auto blocked_at = std::chrono::steady_clock::now();
      if (cancel_ != nullptr) {
        if (cancel_->cancelled()) {
          node_->ResolveWaiterWith(query_, bat, Status::Aborted("query cancelled"));
        } else if (cancel_->has_deadline() &&
                   future.wait_until(cancel_->deadline()) != std::future_status::ready) {
          node_->ResolveWaiterWith(query_, bat, cancel_->CheckLive());
        }
      }
      auto delivered = future.get();  // blocks until resolved either way
      blocked_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - blocked_at)
              .count(),
          std::memory_order_relaxed);
      if (!delivered.ok()) return delivered.status();
      value = *delivered;
    }
    // Versioned read (ISSUE-9): resolve the pinned payload into this query's
    // snapshot view. For unwritten tables this is one relaxed atomic and
    // returns `value` untouched; for written tables the log serves a merged
    // view with fresh columns (base + applicable deltas), ignoring whatever
    // stale base version the ring copy happened to carry.
    {
      auto view = cluster_->write_log().ResolveView(bat, value, snapshot_);
      if (!view.ok()) return view.status();
      value = std::move(view).value();
    }
    {
      // Dataflow workers pin concurrently; the bookkeeping maps need a lock.
      std::lock_guard<std::mutex> lock(mu_);
      pinned_[bat] = value;
      by_pointer_[value.get()] = bat;
    }
    return value;
  }

  Status Unpin(const mal::Datum& pinned) override {
    core::BatId bat = core::kInvalidBat;
    bool release_store_pin = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto* h = std::get_if<mal::RequestHandle>(&pinned)) {
        bat = h->bat;
      } else if (const auto* b = std::get_if<bat::BatPtr>(&pinned)) {
        auto it = by_pointer_.find(b->get());
        if (it == by_pointer_.end()) {
          return Status::InvalidArgument("unpin of a BAT this query never pinned");
        }
        bat = it->second;
        by_pointer_.erase(it);
      } else {
        return Status::InvalidArgument("unpin expects a BAT or request handle");
      }
      pinned_.erase(bat);
      requested_.erase(bat);  // fully released: nothing left for teardown
      auto sp = store_pins_.find(bat);
      if (sp != store_pins_.end()) {
        release_store_pin = true;
        if (--sp->second == 0) store_pins_.erase(sp);
      }
    }
    if (release_store_pin) node_->store().Unpin(bat);
    node_->Post([node = node_, q = query_, bat] { node->dc().Unpin(q, bat); });
    return Status::OK();
  }

 private:
  void NoteStorePin(core::BatId bat) {
    std::lock_guard<std::mutex> lock(mu_);
    ++store_pins_[bat];
  }

  RingCluster* cluster_;
  RingCluster::Node* node_;
  core::QueryId query_;
  const mal::CancelToken* cancel_;
  const uint64_t snapshot_;  ///< commit version every pin resolves at
  std::atomic<int64_t> blocked_ns_{0};
  std::mutex mu_;  ///< guards pinned_/by_pointer_/requested_ across workers
  std::unordered_map<core::BatId, bat::BatPtr> pinned_;
  std::unordered_map<const bat::Bat*, core::BatId> by_pointer_;
  std::set<core::BatId> requested_;  ///< every fragment this query touched
  /// Buffer-frame pins this query holds in the node's store (eviction
  /// protection); released on Unpin or teardown.
  std::unordered_map<core::BatId, uint32_t> store_pins_;
};

/// The sql.wappend / sql.wcommit / sql.wdelete hooks of one query execution:
/// columns buffer locally, commits go to the cluster write log (the single
/// commit authority), and the published deltas are launched onto the ring
/// from this query's node. Thread-safe: an INSERT plan's wappend instructions
/// run on concurrent dataflow workers.
class QueryWriteHooks final : public mal::WriteHooks {
 public:
  QueryWriteHooks(RingCluster* cluster, RingCluster::Node* node, uint64_t snapshot)
      : cluster_(cluster), node_(node), snapshot_(snapshot) {}

  Result<int64_t> BufferColumn(const std::string& table, const std::string& column,
                               std::vector<bat::Value> values) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto& cols = staged_[table];
    for (const auto& [name, unused] : cols) {
      if (name == column) {
        return Status::InvalidArgument("column \"" + column +
                                       "\" buffered twice in one INSERT");
      }
    }
    cols.emplace_back(column, std::move(values));
    return static_cast<int64_t>(cols.size());
  }

  Result<int64_t> CommitInsert(const std::string& table, int64_t expected_rows) override {
    std::vector<std::pair<std::string, std::vector<bat::Value>>> cols;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = staged_.find(table);
      if (it == staged_.end()) {
        return Status::FailedPrecondition("sql.wcommit without buffered columns for " +
                                          table);
      }
      cols = std::move(it->second);
      staged_.erase(it);
    }
    for (const auto& [name, values] : cols) {
      if (static_cast<int64_t>(values.size()) != expected_rows) {
        return Status::InvalidArgument(
            "column \"" + name + "\" buffered " + std::to_string(values.size()) +
            " value(s), statement inserts " + std::to_string(expected_rows) + " row(s)");
      }
    }
    DCY_ASSIGN_OR_RETURN(write::CommitResult cr,
                         cluster_->write_log().CommitInsert(table, cols));
    Publish(cr);
    return cr.rows;
  }

  Result<int64_t> DeleteAt(const std::string& table,
                           const bat::BatPtr& positions) override {
    // The mirror BAT's tail enumerates qualifying offsets into this query's
    // snapshot view — exactly the coordinate space CommitDeleteAt expects.
    const bat::Column& tail = *positions->tail();
    std::vector<uint64_t> offsets;
    offsets.reserve(tail.size());
    for (size_t i = 0; i < tail.size(); ++i) {
      offsets.push_back(static_cast<uint64_t>(tail.GetInt64(i)));
    }
    DCY_ASSIGN_OR_RETURN(write::CommitResult cr,
                         cluster_->write_log().CommitDeleteAt(table, offsets, snapshot_));
    Publish(cr);
    return cr.rows;
  }

  /// Highest version this query committed (0 = read-only).
  uint64_t commit_version() const {
    return commit_version_.load(std::memory_order_relaxed);
  }

 private:
  void Publish(const write::CommitResult& cr) {
    uint64_t seen = commit_version_.load(std::memory_order_relaxed);
    while (seen < cr.version &&
           !commit_version_.compare_exchange_weak(seen, cr.version,
                                                  std::memory_order_relaxed)) {
    }
    for (const auto& d : cr.published) node_->PublishDelta(d);
  }

  RingCluster* cluster_;
  RingCluster::Node* node_;
  const uint64_t snapshot_;
  std::atomic<uint64_t> commit_version_{0};
  std::mutex mu_;
  /// Per table: wappend-buffered columns awaiting the statement's wcommit.
  std::map<std::string, std::vector<std::pair<std::string, std::vector<bat::Value>>>>
      staged_;
};

}  // namespace

// ===========================================================================
// RingCluster
// ===========================================================================

RingCluster::RingCluster(Options options) : options_(options) {
  DCY_CHECK(options_.num_nodes >= 2);
  if (options_.memory.budget_bytes > 0 && options_.spill_dir.empty()) {
    // A budget without a spill root would refuse every over-budget byte
    // outright; give the stores a private disk tier under the system temp
    // directory instead (removed with the cluster).
    static std::atomic<uint64_t> counter{0};
    const auto dir =
        std::filesystem::temp_directory_path() /
        ("dcy-spill-" + std::to_string(static_cast<uint64_t>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1)));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) {
      options_.spill_dir = dir.string();
      owns_spill_dir_ = true;
    }
  }
  nodes_.reserve(options_.num_nodes);
  spliced_in_.assign(options_.num_nodes, true);
  alive_ = std::make_unique<std::atomic<bool>[]>(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    alive_[i].store(true, std::memory_order_relaxed);
    nodes_.push_back(std::make_unique<Node>(this, i));
  }
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    Node* succ = nodes_[(i + 1) % options_.num_nodes].get();
    Node* pred = nodes_[(i + options_.num_nodes - 1) % options_.num_nodes].get();
    nodes_[i]->SetNeighbours(succ, pred);
  }
}

RingCluster::~RingCluster() {
  Stop();
  if (owns_spill_dir_) {
    // The stores (and their spill threads) must be gone before their
    // directory is: destroy the nodes first.
    nodes_.clear();
    std::error_code ec;
    std::filesystem::remove_all(options_.spill_dir, ec);
  }
}

Status RingCluster::LoadBat(core::NodeId owner, const std::string& name, bat::BatPtr bat) {
  if (owner >= options_.num_nodes) return Status::InvalidArgument("bad owner node");
  if (bat == nullptr) return Status::InvalidArgument("null BAT for " + name);
  if (!IsNodeAlive(owner)) {
    return Status::Unavailable("owner node " + std::to_string(owner) + " is down");
  }
  DCY_RETURN_NOT_OK(ValidateQualifiedName(name));
  const core::BatId id = next_bat_.fetch_add(1);
  const uint64_t size = bat->ByteSize();
  const bat::ValType tail_type = bat->tail()->type();
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    if (directory_.count(name) > 0) {
      return Status::AlreadyExists("fragment \"" + name + "\" is already registered");
    }
    // Admission may wait on spill I/O when the node is near its budget —
    // bulk loads beyond memory proceed at disk speed instead of failing.
    DCY_RETURN_NOT_OK(nodes_[owner]->store().Admit(id, name, bat, /*durable=*/true,
                                                   /*initial_pins=*/0,
                                                   std::chrono::milliseconds(10000)));
    directory_[name] = id;
    sizes_[id] = size;
    column_types_[name] = tail_type;
    fragments_[id] = FragmentInfo{name, owner, size, bat};
  }
  // Register the fragment with the write log (version 0 base). Rejects a
  // column whose row count disagrees with its table's other columns — undo
  // the registration so a failed load leaves no half-loaded fragment.
  const size_t last_dot = name.rfind('.');
  Status write_reg = write_log_.RegisterFragment(id, name.substr(0, last_dot),
                                                 name.substr(last_dot + 1), bat);
  if (!write_reg.ok()) {
    std::lock_guard<std::mutex> lock(directory_mu_);
    nodes_[owner]->store().Drop(id);
    directory_.erase(name);
    sizes_.erase(id);
    column_types_.erase(name);
    fragments_.erase(id);
    return write_reg;
  }
  // Outside directory_mu_: the service thread takes that lock in
  // FragmentFailureStatus, so holding it across a PostSync would deadlock.
  if (started_.load()) {
    nodes_[owner]->PostSync([&] { nodes_[owner]->dc().AddOwnedBat(id, size); });
  } else {
    nodes_[owner]->dc().AddOwnedBat(id, size);
  }
  return Status::OK();
}

sql::Schema RingCluster::SqlSchema() const {
  std::map<std::string, bat::ValType> columns;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    columns = column_types_;
  }
  return sql::Schema::FromQualifiedColumns(columns);
}

Result<core::BatId> RingCluster::FindFragment(const std::string& name) const {
  std::lock_guard<std::mutex> lock(directory_mu_);
  auto it = directory_.find(name);
  if (it == directory_.end()) return Status::NotFound("no fragment named " + name);
  return it->second;
}

void RingCluster::Start() {
  if (started_.exchange(true)) return;
  // The kernel policy is process-wide (the executor is shared); the last
  // started cluster wins, which matches how benches and servers run one
  // cluster per process.
  exec::SetExecPolicy(options_.exec_policy);
  for (auto& node : nodes_) node->Start();
  // Background compactors, one per node, owned by the cluster — CrashNode
  // kills a node's threads without touching these, so a fold in flight on a
  // dying node is abandoned by its commit guard, never by a join.
  if (options_.compaction.enable) {
    {
      std::lock_guard<std::mutex> lock(compact_mu_);
      compactors_stop_ = false;
    }
    compactors_.reserve(options_.num_nodes);
    for (uint32_t i = 0; i < options_.num_nodes; ++i) {
      compactors_.emplace_back([this, i] { CompactorLoop(i); });
    }
  }
}

void RingCluster::Stop() {
  if (!started_.exchange(false)) return;
  // Compactors first: a fold republishes through node stores and must not
  // race the teardown below.
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compactors_stop_ = true;
  }
  compact_cv_.notify_all();
  for (auto& t : compactors_) {
    if (t.joinable()) t.join();
  }
  compactors_.clear();
  // Runner pools next (running queries unwind through the still-live
  // service threads), then the protocol layer. Crashed nodes are already
  // quiescent; both calls are no-ops for them.
  for (auto& node : nodes_) {
    if (!node->crashed()) node->StopRunners();
  }
  for (auto& node : nodes_) {
    if (!node->crashed()) node->Stop();
  }
}

void RingCluster::CompactorLoop(core::NodeId node) {
  const auto interval =
      std::chrono::nanoseconds(std::max<SimTime>(1, options_.compaction.interval));
  std::unique_lock<std::mutex> lock(compact_mu_);
  while (!compactors_stop_) {
    compact_cv_.wait_for(lock, interval);
    if (compactors_stop_) return;
    if (!IsNodeAlive(node)) continue;  // a dead node's compactor idles
    lock.unlock();
    CompactionPass(node);
    lock.lock();
  }
}

void RingCluster::CompactionPass(core::NodeId node) {
  const auto ready = write_log_.TablesReadyToFold(options_.compaction);
  for (const auto& [table, first_fragment] : ready) {
    // A table is folded by the node owning its first fragment; after a
    // re-homing the heir's compactor naturally takes over.
    core::NodeId owner = core::kInvalidNode;
    {
      std::lock_guard<std::mutex> lock(directory_mu_);
      auto it = fragments_.find(first_fragment);
      if (it == fragments_.end()) continue;
      owner = it->second.owner;
    }
    if (owner != node) continue;
    auto folded =
        write_log_.FoldTable(table, [this, node] { return IsNodeAlive(node); });
    if (!folded.ok()) {
      // Aborted: this node died mid-fold (the guard rejected the commit and
      // the log stands untouched) or a concurrent fold won. Retry later.
      continue;
    }
    if (folded->rebased.empty()) continue;
    // Republish every rebased fragment under the new base version: the
    // cluster registry first (the durable copy re-homing and refetch read),
    // then the owner's store, so subsequent pins resolve the new base.
    Node* owner_node = nodes_[node].get();
    for (auto& [id, fname, base] : folded->rebased) {
      const uint64_t bytes = base->ByteSize();
      {
        std::lock_guard<std::mutex> lock(directory_mu_);
        auto it = fragments_.find(id);
        if (it != fragments_.end()) {
          it->second.loader = base;
          it->second.size = bytes;
        }
        sizes_[id] = bytes;
      }
      if (!IsNodeAlive(node)) break;  // crashed between commit and republish
      owner_node->store().Drop(id);
      Status admitted = owner_node->store().Admit(id, fname, base, /*durable=*/true,
                                                  /*initial_pins=*/0,
                                                  std::chrono::milliseconds(10000),
                                                  folded->new_version);
      if (!admitted.ok()) {
        // The registry still carries the folded payload; the next pin
        // refetches it from there.
        DCY_LOG(kWarn) << "republish of folded fragment " << fname
                       << " failed: " << admitted.ToString();
      }
    }
    DCY_LOG(kInfo) << "node " << node << " folded " << folded->deltas_folded
                   << " delta(s) of " << table << " into base version "
                   << folded->new_version;
  }
}

// ---- fault tolerance -------------------------------------------------------

bool RingCluster::IsNodeAlive(core::NodeId node) const {
  return node < options_.num_nodes && alive_[node].load(std::memory_order_acquire);
}

core::NodeId RingCluster::NextAliveLocked(core::NodeId from) const {
  for (uint32_t step = 1; step < options_.num_nodes; ++step) {
    const core::NodeId n = (from + step) % options_.num_nodes;
    if (spliced_in_[n]) return n;
  }
  return from;
}

core::NodeId RingCluster::PrevAliveLocked(core::NodeId from) const {
  for (uint32_t step = 1; step < options_.num_nodes; ++step) {
    const core::NodeId n = (from + options_.num_nodes - step) % options_.num_nodes;
    if (spliced_in_[n]) return n;
  }
  return from;
}

Status RingCluster::CrashNode(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");
  Node* victim = nodes_[node].get();
  if (victim->crashed()) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is already crashed");
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (dead_count_.load(std::memory_order_relaxed) + 1 >= options_.num_nodes) {
      return Status::FailedPrecondition("refusing to crash the last alive node");
    }
    ++nodes_crashed_;
    crashed_at_ = std::chrono::steady_clock::now();
  }
  alive_[node].store(false, std::memory_order_release);
  dead_count_.fetch_add(1, std::memory_order_relaxed);
  victim->Crash();
  return Status::OK();
}

void RingCluster::ReportSuspect(core::NodeId reporter, core::NodeId suspect) {
  if (suspect >= options_.num_nodes || reporter == suspect) return;
  Node* pred = nullptr;
  Node* succ = nullptr;
  core::NodeId heir = suspect;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    ++suspicions_;
    // Membership oracle: a suspicion only sticks if the node really is
    // down. A live-but-slow neighbour (GC pause, overload) is counted as a
    // false suspicion and the ring stays intact — this reproduction does
    // not attempt distributed consensus on membership.
    if (!nodes_[suspect]->crashed()) {
      ++false_suspicions_;
      return;
    }
    if (!spliced_in_[suspect]) return;  // another reporter already handled it
    spliced_in_[suspect] = false;
    ++resplices_;
    last_recovery_seconds_ = SecondsSince(crashed_at_);
    const core::NodeId p = PrevAliveLocked(suspect);
    const core::NodeId s = NextAliveLocked(suspect);
    if (p == suspect || s == suspect) return;  // nothing left to splice
    pred = nodes_[p].get();
    succ = nodes_[s].get();
    heir = s;
  }
  DCY_LOG(kInfo) << "node " << reporter << " detected node " << suspect
                 << " dead; splicing " << pred->id() << " -> " << succ->id();
  // Bypass the corpse: the predecessor's data now flows to the successor
  // and the successor's requests to the predecessor, each on a new epoch.
  pred->AdoptSuccessor(succ);
  succ->AdoptPredecessor(pred);
  HandleDeadFragments(suspect, heir);
}

void RingCluster::HandleDeadFragments(core::NodeId suspect, core::NodeId heir) {
  struct Rehome {
    core::BatId id;
    std::string name;
    uint64_t size;
    bat::BatPtr loader;
  };
  std::vector<Rehome> rehomes;
  std::vector<core::BatId> failed;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    for (auto& [id, info] : fragments_) {
      if (info.owner != suspect) continue;
      if (options_.resilience.auto_rehome) {
        info.owner = heir;
        rehomes.push_back(Rehome{id, info.name, info.size, info.loader});
      } else {
        failed.push_back(id);
      }
    }
  }
  if (!rehomes.empty()) {
    Node* heir_node = nodes_[heir].get();
    for (auto& r : rehomes) {
      // The heir may have seen this name before (a restarted node's second
      // death); AlreadyExists just means the payload is still registered.
      Status reg = heir_node->store().Admit(r.id, r.name, r.loader, /*durable=*/true,
                                            /*initial_pins=*/0,
                                            std::chrono::milliseconds(5000),
                                            write_log_.BaseVersionOf(r.id));
      if (!reg.ok() && reg.code() != StatusCode::kAlreadyExists) {
        DCY_LOG(kError) << "re-home of fragment " << r.name << " failed: "
                        << reg.ToString();
        continue;
      }
      heir_node->Post([heir_node, id = r.id, size = r.size] {
        heir_node->dc().AddOwnedBat(id, size);
      });
    }
    std::lock_guard<std::mutex> lock(ring_mu_);
    rehomed_fragments_ += rehomes.size();
    DCY_LOG(kInfo) << rehomes.size() << " fragment(s) of dead node " << suspect
                   << " re-homed to node " << heir;
  }
  // Without re-homing the fragments are gone: every node fails its waiting
  // queries with a typed Unavailable instead of letting pins hang.
  for (const core::BatId id : failed) {
    for (auto& n : nodes_) {
      if (n->crashed()) continue;
      Node* node = n.get();
      node->Post([node, id] { node->dc().FailBat(id); });
    }
  }
}

Status RingCluster::RefetchFragment(core::BatId bat, Node* node) {
  std::string name;
  bat::BatPtr loader;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    auto it = fragments_.find(bat);
    if (it == fragments_.end()) {
      return Status::NotFound("fragment " + std::to_string(bat) +
                              " is not in the cluster registry");
    }
    name = it->second.name;
    loader = it->second.loader;
  }
  Status admitted = node->store().Admit(bat, name, loader, /*durable=*/true,
                                        /*initial_pins=*/0,
                                        std::chrono::milliseconds(5000),
                                        write_log_.BaseVersionOf(bat));
  if (admitted.code() == StatusCode::kAlreadyExists) return Status::OK();
  if (admitted.ok()) node->store().NoteRefetched();
  return admitted;
}

Status RingCluster::FragmentFailureStatus(core::BatId bat) {
  std::lock_guard<std::mutex> lock(directory_mu_);
  auto it = fragments_.find(bat);
  if (it != fragments_.end() && !IsNodeAlive(it->second.owner)) {
    unavailable_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("fragment \"" + it->second.name + "\" (BAT " +
                               std::to_string(bat) + ") is on crashed node " +
                               std::to_string(it->second.owner));
  }
  return Status::NotFound("BAT " + std::to_string(bat) + " does not exist");
}

Status RingCluster::RestartNode(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");
  Node* comer = nodes_[node].get();
  if (!comer->crashed()) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is not crashed");
  }
  Node* pred = nullptr;
  Node* succ = nullptr;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    spliced_in_[node] = true;
    ++nodes_restarted_;
    pred = nodes_[PrevAliveLocked(node)].get();
    succ = nodes_[NextAliveLocked(node)].get();
  }
  comer->Restart(succ, pred);
  alive_[node].store(true, std::memory_order_release);
  dead_count_.fetch_sub(1, std::memory_order_relaxed);
  // Crash-safe recovery of the two-tier store: re-admit every checksum-valid
  // spill file from the node's disk tier (payloads stay on disk until
  // pinned); damaged files were deleted by the scan and their fragments —
  // like everything never spilled — are re-materialized from the ring's
  // durable registry below.
  const auto recovered = comer->store().Recover();
  if (!recovered.recovered.empty() || recovered.corrupt_files > 0) {
    DCY_LOG(kInfo) << "node " << node << " recovery: " << recovered.recovered.size()
                   << " fragment(s) reloaded from disk, " << recovered.corrupt_files
                   << " damaged spill file(s) discarded";
  }
  // Re-introduce the node's surviving fragments (those not re-homed while
  // it was down) to its fresh protocol state.
  std::vector<std::pair<core::BatId, uint64_t>> owned;
  struct Refetch {
    core::BatId id;
    std::string name;
    bat::BatPtr loader;
  };
  std::vector<Refetch> refetches;
  {
    std::lock_guard<std::mutex> lock(directory_mu_);
    for (const auto& [id, info] : fragments_) {
      if (info.owner != node) continue;
      owned.emplace_back(id, info.size);
      if (!comer->store().Contains(id)) {
        refetches.push_back(Refetch{id, info.name, info.loader});
      }
    }
  }
  for (const auto& r : refetches) {
    Status refetched = comer->store().Admit(r.id, r.name, r.loader, /*durable=*/true,
                                            /*initial_pins=*/0,
                                            std::chrono::milliseconds(5000),
                                            write_log_.BaseVersionOf(r.id));
    if (refetched.ok()) {
      comer->store().NoteRefetched();
    } else if (refetched.code() != StatusCode::kAlreadyExists) {
      DCY_LOG(kError) << "node " << node << " cannot re-materialize fragment "
                      << r.name << ": " << refetched.ToString();
    }
  }
  comer->PostSync([&] {
    for (const auto& [id, size] : owned) comer->dc().AddOwnedBat(id, size);
  });
  // Close the ring around the newcomer (fresh epochs towards it).
  if (pred != comer) pred->AdoptSuccessor(comer);
  if (succ != comer) succ->AdoptPredecessor(comer);
  DCY_LOG(kInfo) << "node " << node << " restarted and re-spliced between "
                 << pred->id() << " and " << succ->id();
  return Status::OK();
}

RingCluster::ResilienceMetrics RingCluster::Resilience() const {
  ResilienceMetrics out;
  for (const auto& node : nodes_) {
    Node* n = node.get();
    n->PostSync([n, &out] { n->SnapshotResilience(&out); });
    out.shed_degraded += n->admission_metrics().shed_degraded;
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    out.nodes_crashed = nodes_crashed_;
    out.nodes_restarted = nodes_restarted_;
    out.ring_resplices = resplices_;
    out.suspicions = suspicions_;
    out.false_suspicions = false_suspicions_;
    out.rehomed_fragments = rehomed_fragments_;
    out.last_recovery_seconds = last_recovery_seconds_;
  }
  out.unavailable_failures = unavailable_failures_.load(std::memory_order_relaxed);
  return out;
}

RingCluster::BandwidthMetrics RingCluster::Bandwidth() const {
  BandwidthMetrics out;
  for (const auto& node : nodes_) {
    Node* n = node.get();
    n->PostSync([n, &out] { n->SnapshotBandwidth(&out); });
  }
  return out;
}

storage::MemoryMetrics RingCluster::NodeMemory(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  return nodes_[node]->store().Metrics();
}

storage::MemoryMetrics RingCluster::Memory() const {
  storage::MemoryMetrics total;
  for (const auto& node : nodes_) total.Add(node->store().Metrics());
  return total;
}

// ---- session API ----------------------------------------------------------

Result<Session> RingCluster::OpenSession(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  return Session(this, node);
}

Result<PreparedQueryPtr> RingCluster::Prepare(const std::string& text,
                                              const PrepareOptions& options) {
  Language language = options.language;
  if (language == Language::kAuto) {
    language = sql::LooksLikeSql(text) ? Language::kSQL : Language::kMAL;
  }
  // The dialect is part of the key: the same text prepared as SQL and as MAL
  // compiles to different programs, so the two must occupy distinct slots.
  const char* dialect = language == Language::kSQL ? "sql" : "mal";
  const std::string key = opt::PlanCacheKey(text, dialect);
  bool use_cache = options.use_cache;
  if (use_cache) {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      // The 64-bit key is not trusted alone: a hit must carry the same
      // source text, or a hash collision would silently run the wrong plan.
      if (it->second->text() == text) {
        ++plan_cache_stats_.hits;
        return it->second;
      }
      use_cache = false;  // collision: compile fresh, leave the entry alone
    }
  }
  Result<mal::Program> compiled =
      language == Language::kSQL
          ? sql::Compile(text, SqlSchema(), options.parse_error)
          : mal::ParseProgram(text, options.parse_error);
  if (!compiled.ok()) return compiled.status();
  DCY_ASSIGN_OR_RETURN(mal::Program program, opt::DcOptimize(*compiled));
  auto prepared = std::make_shared<const PreparedQuery>(text, key, std::move(program));
  if (use_cache) {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    ++plan_cache_stats_.misses;  // one parse + DcOptimize actually ran
    auto [it, inserted] = plan_cache_.emplace(key, prepared);
    if (inserted) {
      plan_cache_order_.push_back(key);
      // Bounded cache: ad-hoc texts (literals inlined instead of params)
      // must not grow the cache without limit; evict oldest-inserted first.
      while (plan_cache_.size() > std::max<size_t>(1, options_.plan_cache_capacity)) {
        plan_cache_.erase(plan_cache_order_.front());
        plan_cache_order_.pop_front();
      }
    }
    plan_cache_stats_.entries = plan_cache_.size();
    if (!inserted) return it->second;  // lost a prepare race; share the first
  }
  return prepared;
}

Result<QueryHandle> RingCluster::Submit(core::NodeId node_id,
                                        const PreparedQueryPtr& prepared,
                                        const SubmitOptions& options) {
  if (node_id >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (prepared == nullptr) return Status::InvalidArgument("null prepared query");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");

  auto state = std::make_shared<internal::QueryState>();
  state->id = next_query_.fetch_add(1);
  state->submitted_at = std::chrono::steady_clock::now();
  if (options.timeout.count() > 0) {
    state->cancel.set_deadline(state->submitted_at + options.timeout);
  }
  Node* node = nodes_[node_id].get();
  state->wake_pins = [node, id = state->id] { node->AbortQueryWaiters(id); };
  DCY_RETURN_NOT_OK(node->EnqueueQuery({state, prepared, options}));
  return QueryHandle(state);
}

Result<QueryResult> RingCluster::RunQuery(Node* node, const PreparedQuery& plan,
                                          internal::QueryState* state,
                                          const SubmitOptions& options) {
  QueryResult qr;
  qr.query_id = state->id;

  // Version-at-prepare (ISSUE-9): pin one commit version for the whole
  // execution, so every fragment view this query resolves belongs to the
  // same snapshot and folds cannot slide bases out from under it.
  uint64_t snapshot = 0;
  if (!options.snapshot_version.has_value()) {
    snapshot = write_log_.AcquireSnapshot();
  } else {
    DCY_ASSIGN_OR_RETURN(snapshot,
                         write_log_.AcquireSnapshotAt(*options.snapshot_version));
  }
  struct SnapshotRelease {
    write::WriteLog* log;
    uint64_t v;
    ~SnapshotRelease() { log->ReleaseSnapshot(v); }
  } snapshot_release{&write_log_, snapshot};
  qr.snapshot_version = snapshot;

  mal::ExportSink exported;
  SessionHooks hooks(this, node, state->id, &state->cancel, snapshot);
  QueryWriteHooks write_hooks(this, node, snapshot);
  // No ctx.catalog: a DC-optimized plan has no sql.bind left, so every read
  // is a pin resolved through the write log (SessionHooks::Pin).
  mal::Context ctx;
  ctx.dc = &hooks;
  ctx.writer = &write_hooks;
  ctx.out = nullptr;  // results are captured typed, not printed
  ctx.exported = &exported;

  mal::ExecOptions eopts;
  eopts.workers = options.plan_workers > 0 ? options.plan_workers : options_.plan_workers;
  eopts.cancel = &state->cancel;
  eopts.params = options.params.empty() ? nullptr : &options.params;

  const auto start = std::chrono::steady_clock::now();
  mal::Interpreter interp(&mal::Registry::Global(), ctx);
  auto result = interp.Execute(plan.program(), eopts);
  qr.timing.exec_seconds = SecondsSince(start);
  qr.timing.pin_blocked_seconds = hooks.blocked_seconds();
  qr.commit_version = write_hooks.commit_version();
  if (!result.ok()) return result.status();

  mal::ResultSetPtr table;
  {
    std::lock_guard<std::mutex> lock(exported.mu);
    table = exported.result;
  }
  qr.result = ResultSet::Build(table, std::move(result).value());
  return qr;
}

core::DcNodeMetrics RingCluster::NodeMetrics(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  core::DcNodeMetrics snapshot;
  nodes_[node]->PostSync([&] { snapshot = nodes_[node]->dc().metrics(); });
  return snapshot;
}

core::AdmissionMetrics RingCluster::NodeAdmissionMetrics(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  return nodes_[node]->admission_metrics();
}

size_t RingCluster::OutstandingRequestEntries(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  size_t count = 0;
  nodes_[node]->PostSync([&] { count = nodes_[node]->dc().requests().size(); });
  return count;
}

RingCluster::PlanCacheStats RingCluster::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  return plan_cache_stats_;
}

uint64_t RingCluster::TotalDataBytesMoved() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->data_in()->stats().payload_bytes.load();
  }
  return total;
}

}  // namespace dcy::runtime
