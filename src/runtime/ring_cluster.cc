#include "runtime/ring_cluster.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <set>

#include "bat/serialize.h"
#include "common/logging.h"
#include "sql/compiler.h"

namespace dcy::runtime {

namespace {

constexpr uint32_t kOpBat = 1;
constexpr uint32_t kOpRequest = 2;
constexpr uint32_t kOpCtrl = 3;

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

/// Longest a node's service thread sleeps when idle: its reaction latency
/// to work posted from other threads.
constexpr auto kIdleWait = std::chrono::microseconds(200);

/// Logical BAT-queue capacity per node: the load admission and LOIT input
/// of the protocol. The data channel blocks senders at four times this.
constexpr uint64_t kBatQueueCapacity = 64 * kMB;

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
    uint64_t payload_hashes = 0;
  };

  Node(RingCluster* cluster, core::NodeId id)
      : cluster_(cluster), id_(id), store_(cluster->options_.memory) {
    const Options& opts = cluster->options_;
    core::DcNodeOptions node_opts = opts.node;
    node_opts.node_id = id;
    node_opts.ring_size = opts.num_nodes;
    dc_ = std::make_unique<core::DcNode>(node_opts, this, &loit_);

    // Every ring channel is zero-copy (the Channel default).
    rdma::Channel::Options data_opts;
    data_opts.capacity_bytes = kBatQueueCapacity * 4;  // hard backpressure
    data_in_ = std::make_unique<rdma::Channel>(data_opts);
    request_in_ = std::make_unique<rdma::Channel>(rdma::Channel::Options());
    ctrl_in_ = std::make_unique<rdma::Channel>(rdma::Channel::Options());
    if (opts.fault != nullptr) {
      data_in_->SetFaultInjector(opts.fault, id_, rdma::kFaultChannelData);
      request_in_->SetFaultInjector(opts.fault, id_, rdma::kFaultChannelRequest);
      ctrl_in_->SetFaultInjector(opts.fault, id_, rdma::kFaultChannelCtrl);
    }
    data_out_.Init(id_, opts.resilience.link);
    req_out_.Init(id_, opts.resilience.link);
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

  storage::MemoryMetrics memory() const { return store_.Metrics(); }
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
    out->payload_hashes += hop_.payload_hashes;
  }

  /// Service-thread-owned wire-compression counters of this node's
  /// serialize/send path, with the memoized-frame gauge. Read via PostSync
  /// (or any serialized context on a crashed node).
  BandwidthMetrics wire() const {
    BandwidthMetrics w = wire_;
    for (const auto& [_, memo] : encoded_) w.memo_bytes += memo.frame->size();
    return w;
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
    // The crash loses the node's memory: every ring copy it held.
    store_.Clear();
  }

  /// Re-admission after Crash(): a restarted node comes back amnesiac — a
  /// fresh protocol state machine, reopened channels, reset senders (new
  /// epochs) — wired between `successor` and `predecessor`.
  void Restart(Node* successor, Node* predecessor) {
    std::lock_guard<std::mutex> dead(dead_exec_mu_);
    core::DcNodeOptions node_opts = cluster_->options_.node;
    node_opts.node_id = id_;
    node_opts.ring_size = cluster_->options_.num_nodes;
    dc_ = std::make_unique<core::DcNode>(node_opts, this, &loit_);
    decode_rejected_.clear();
    encoded_.clear();
    hashed_.clear();
    current_payload_ = nullptr;
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
        // Same graceful degradation under memory pressure: pinned copies
        // fill the budget and none can be evicted, so new work is shed
        // retryable at the degraded bound instead of deepening the overhang.
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
    if (is_load) {
      const EncodedFrame* owned = OwnedFrame(header.bat_id);
      if (owned == nullptr) return;
      payload = owned->frame;
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
    }
    ++wire_.hops;
    wire_.hop_bytes += payload->size();
    Node* succ = successor_.load(std::memory_order_acquire);
    net::DataFrame df;
    // The payload was hashed when it arrived here (a forward) or when its
    // owner encoded it (a load), so its CRC comes from the memo.
    df.frame = data_out_.NextHeader(HeaderCrc(header) ^ PayloadCrc(payload));
    df.bat = header;
    // meta = envelope + administrative header, payload = encoded BAT
    // (zero-copy); a copy stays in the retransmit window until ACKed.
    const rdma::MetaBlob meta = rdma::MetaBlob::Of(df);
    if (succ->data_in()->Send(kOpBat, meta, payload, id_)) {
      data_out_.Track(kOpBat, meta, std::move(payload), df.frame.seq, SteadyNowNs());
    }
  }

  void DeliverToQuery(core::QueryId query, core::BatId bat) override {
    Result<bat::BatPtr> value = store_.Get(bat);
    auto rej = decode_rejected_.find(bat);
    if (!value.ok() && rej != decode_rejected_.end()) {
      // A copy the store refused (budget): fail the pin with the typed
      // backpressure recorded at decode time — retryable, so the session
      // layer resubmits instead of hanging on a frame that cannot be kept.
      // Every pin the same frame served gets it, so it stays until
      // TrimCopies finds no pin blocked on the BAT.
      value = rej->second;
    }
    ResolveWaiter(query, bat, std::move(value));
  }

  void FailQuery(core::QueryId query, core::BatId bat) override {
    ResolveWaiter(query, bat, cluster_->FragmentFailureStatus(bat));
  }

  uint64_t BatQueueLoadBytes() override {
    return successor_.load(std::memory_order_acquire)->data_in()->queued_bytes();
  }

  uint64_t BatQueueCapacityBytes() override { return kBatQueueCapacity; }

  /// Ring-copy upkeep: copies the protocol cache released leave the store,
  /// returning their budget charge.
  void TrimCopies() {
    store_.DropIf([this](core::BatId bat) { return !dc_->cache().Contains(bat); });
    for (auto it = decode_rejected_.begin(); it != decode_rejected_.end();) {
      if (!dc_->pins().HasBlocked(it->first)) {
        it = decode_rejected_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  /// The wire frame of one payload object of an owned fragment, with its
  /// codec stats (its CRC is in hashed_). Fragments are immutable, so every
  /// load of the same object ships the same bytes.
  struct EncodedFrame {
    std::weak_ptr<const bat::Bat> source;  ///< the payload object encoded
    rdma::Buffer frame;                    ///< exact-size, shared read-only
    bat::CodecStats stats;
  };

  /// The CRC of one payload object's bytes. Payloads are immutable once
  /// posted (rdma::Buffer), so the CRC holds for as long as the object lives.
  struct HashedPayload {
    std::weak_ptr<const std::string> object;
    uint32_t crc = 0;
  };

  /// The frame an owner load ships. The write log's base of the fragment is
  /// encoded once and the frame memoized while that object is still the
  /// base; a fold brings a new base, and the next load encodes that one.
  /// nullptr when the log has no such fragment.
  const EncodedFrame* OwnedFrame(core::BatId id) {
    auto record = cluster_->write_log().Fragment(id);
    if (!record.ok()) {
      DCY_LOG(kError) << "node " << id_ << " cannot load BAT " << id << ": "
                      << record.status().ToString();
      return nullptr;
    }
    const bat::BatPtr& base = record->base;
    EncodedFrame& memo = encoded_[id];
    if (memo.source.lock() != base) {
      // One codec plan sizes the frame exactly, encodes it, and reports
      // what compression bought it.
      const bat::FrameEncoder enc(*base);
      auto frame = std::make_shared<std::string>();
      enc.SerializeInto(frame.get());
      ++wire_.frames_encoded;
      memo.source = base;
      memo.stats = enc.stats();
      hashed_[frame.get()] = {frame, bat::Crc32(frame->data(), frame->size())};
      memo.frame = std::move(frame);
    }
    const bat::CodecStats& cs = memo.stats;
    wire_.raw_bytes += cs.raw_bytes;
    wire_.wire_bytes += cs.wire_bytes;
    wire_.dict_columns += cs.dict_columns;
    wire_.for_columns += cs.for_columns;
    wire_.plain_columns += cs.plain_columns;
    return &memo;
  }

  /// Drops memoized frames whose payload object no longer exists (a fold
  /// replaced the base and no reader holds the old one), so memoized bytes
  /// stay within the wire size of the bases this owner loads.
  void TrimEncoded() {
    for (auto it = encoded_.begin(); it != encoded_.end();) {
      it = it->second.source.expired() ? encoded_.erase(it) : std::next(it);
    }
  }

  /// The CRC of a payload's bytes, one pass per payload object: later laps,
  /// retransmits and duplicates of an object this node has already hashed
  /// (or, as its owner, encoded) reuse the CRC. A corrupting fabric damages
  /// a private copy, a new object, which is hashed in full.
  uint32_t PayloadCrc(const rdma::Buffer& payload) {
    HashedPayload& memo = hashed_[payload.get()];
    if (memo.object.lock() != payload) {
      ++hop_.payload_hashes;
      memo = {payload, bat::Crc32(payload->data(), payload->size())};
    }
    return memo.crc;
  }

  /// Drops the CRCs of payload objects that no longer exist.
  void TrimHashed() {
    for (auto it = hashed_.begin(); it != hashed_.end();) {
      it = it->second.object.expired() ? hashed_.erase(it) : std::next(it);
    }
  }

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
    // The payload CRC, combined with the envelope and the frame's per-hop
    // header CRC, must reproduce what the sender wrapped.
    bool crc_ok = false;
    if (m.payload != nullptr) {
      const uint32_t payload_crc = PayloadCrc(m.payload);
      // Debug builds re-hash every arrival: the memo is only as sound as
      // the premise that no payload changes after it is posted.
      DCY_DCHECK(payload_crc == bat::Crc32(m.payload->data(), m.payload->size()))
          << "payload object changed after it was posted";
      crc_ok = (HeaderCrc(df.bat) ^ payload_crc ^ net::EnvelopeCrc(df.frame)) ==
               df.frame.payload_crc;
    }
    const auto outcome = data_rx_.OnFrame(df.frame, crc_ok);
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
    // Decode once if local queries are blocked on it (delivery needs the
    // typed BAT). The copy is charged to the budget and held until the
    // protocol cache releases it. Over budget, the typed refusal is
    // delivered to the blocked pins instead of the data (retryable
    // backpressure, never an unaccounted allocation).
    if (dc_->pins().HasBlocked(header.bat_id) && !store_.Contains(header.bat_id)) {
      auto decoded = bat::Deserialize(*m.payload);
      if (!decoded.ok()) {
        ++hop_.decode_failures;  // hop CRC passed but the encoding is bad
      } else if (Status admitted = store_.Admit(header.bat_id, *decoded); !admitted.ok()) {
        decode_rejected_[header.bat_id] = admitted;
      }
    }
    dc_->OnBatMsg(header);
    current_payload_ = nullptr;
    TrimCopies();
  }

  /// Hops after which a BAT frame whose owner died with no heir is dropped
  /// as an orphan: two full laps plus slack for in-flight duplicates.
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
        for (const rdma::Message& m : drain_) HandleDataFrame(m);
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
        TrimEncoded();
        TrimHashed();
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
  core::AdaptiveLoit loit_{core::AdaptiveLoit::Options()};  // the §5.2 ladder
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
  BandwidthMetrics wire_;
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
  /// Memoized load frames of owned fragments (OwnedFrame, TrimEncoded).
  std::unordered_map<core::BatId, EncodedFrame> encoded_;
  /// CRCs of the payload objects this node has hashed or encoded, keyed by
  /// object identity (PayloadCrc, TrimHashed).
  std::unordered_map<const std::string*, HashedPayload> hashed_;
  std::vector<rdma::Message> drain_;  ///< service-loop batch receive scratch
  /// Copies the store refused under budget, read by DeliverToQuery until no
  /// pin is blocked on them (TrimCopies).
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
    bool owned = false;
    node_->PostSync([&, this] {
      if (!node_->dc().Pin(query_, bat)) return;  // blocked on the ring
      owned = node_->dc().owned().Find(bat) != nullptr;
      // Not owned but available now: the store holds the copy the protocol
      // cache pins, and the waiter resolves from it.
      if (!owned) node_->DeliverToQuery(query_, bat);
    });
    bat::BatPtr value;
    if (owned) {
      // An owner's pin reads the write log's base, the fragment's only home.
      node_->RemoveWaiter(query_, bat);
      DCY_ASSIGN_OR_RETURN(write::FragmentRecord record,
                           cluster_->write_log().Fragment(bat));
      value = std::move(record.base);
    } else {
      // Resolved already from the store's copy, or blocked until the
      // fragment flows by — or the query is cancelled or runs past its
      // deadline. Cancellation protocol: Cancel() sets the
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
    }
    node_->Post([node = node_, q = query_, bat] { node->dc().Unpin(q, bat); });
    return Status::OK();
  }

 private:
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
};

/// The sql.wappend / sql.wcommit / sql.wdelete hooks of one query execution:
/// columns buffer locally and commits go to the cluster write log, the single
/// commit authority that every later pin resolves through. Thread-safe: an
/// INSERT plan's wappend instructions run on concurrent dataflow workers.
class QueryWriteHooks final : public mal::WriteHooks {
 public:
  QueryWriteHooks(RingCluster* cluster, uint64_t snapshot)
      : cluster_(cluster), snapshot_(snapshot) {}

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
    NoteCommit(cr.version);
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
    NoteCommit(cr.version);
    return cr.rows;
  }

  /// Highest version this query committed (0 = read-only).
  uint64_t commit_version() const {
    return commit_version_.load(std::memory_order_relaxed);
  }

 private:
  void NoteCommit(uint64_t version) {
    uint64_t seen = commit_version_.load(std::memory_order_relaxed);
    while (seen < version &&
           !commit_version_.compare_exchange_weak(seen, version,
                                                  std::memory_order_relaxed)) {
    }
  }

  RingCluster* cluster_;
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

RingCluster::~RingCluster() { Stop(); }

Status RingCluster::LoadBat(core::NodeId owner, const std::string& name, bat::BatPtr bat) {
  if (owner >= options_.num_nodes) return Status::InvalidArgument("bad owner node");
  if (bat == nullptr) return Status::InvalidArgument("null BAT for " + name);
  if (!IsNodeAlive(owner)) {
    return Status::Unavailable("owner node " + std::to_string(owner) + " is down");
  }
  DCY_RETURN_NOT_OK(ValidateQualifiedName(name));
  const core::BatId id = next_bat_.fetch_add(1);
  const uint64_t size = bat->ByteSize();
  // The write log records the fragment (version 0 base), its only home. It
  // rejects a duplicate name and a column whose row count disagrees with
  // its table's other columns.
  const size_t last_dot = name.rfind('.');
  DCY_RETURN_NOT_OK(write_log_.RegisterFragment(
      id, name.substr(0, last_dot), name.substr(last_dot + 1), std::move(bat)));
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    owners_[id] = owner;
  }
  if (started_.load()) {
    nodes_[owner]->PostSync([&] { nodes_[owner]->dc().AddOwnedBat(id, size); });
  } else {
    nodes_[owner]->dc().AddOwnedBat(id, size);
  }
  return Status::OK();
}

core::NodeId RingCluster::OwnerOf(core::BatId bat) const {
  std::lock_guard<std::mutex> lock(owners_mu_);
  auto it = owners_.find(bat);
  return it == owners_.end() ? core::kInvalidNode : it->second;
}

void RingCluster::Start() {
  if (started_.exchange(true)) return;
  for (auto& node : nodes_) node->Start();
  // The compactor is owned by the cluster — CrashNode kills a node's threads
  // without touching it, so a fold in flight for a dying node is abandoned
  // by its commit guard, never by a join.
  if (options_.compaction.enable) {
    {
      std::lock_guard<std::mutex> lock(compact_mu_);
      compactor_stop_ = false;
    }
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
}

void RingCluster::Stop() {
  if (!started_.exchange(false)) return;
  // The compactor first: a fold reads the liveness of nodes torn down
  // below.
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compactor_stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
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

void RingCluster::CompactorLoop() {
  const auto interval =
      std::chrono::nanoseconds(std::max<SimTime>(1, options_.compaction.interval));
  std::unique_lock<std::mutex> lock(compact_mu_);
  while (!compact_cv_.wait_for(lock, interval, [this] { return compactor_stop_; })) {
    lock.unlock();
    CompactionPass();
    lock.lock();
  }
}

void RingCluster::CompactionPass() {
  const auto ready = write_log_.TablesReadyToFold(options_.compaction);
  for (const auto& [table, first_fragment] : ready) {
    // A table is folded for the node owning its first fragment; while that
    // node is down the table waits, and after a re-homing its heir's
    // liveness guards the fold instead.
    const core::NodeId folder = OwnerOf(first_fragment);
    if (!IsNodeAlive(folder)) continue;
    auto folded =
        write_log_.FoldTable(table, [this, folder] { return IsNodeAlive(folder); });
    // Aborted: the folder died mid-fold (the guard rejected the commit and
    // the log stands untouched). Retried at a later pass. Otherwise the log
    // holds the new bases, and each owner's next load encodes its new base.
    if (!folded.ok() || folded->rebased.empty()) continue;
    DCY_LOG(kInfo) << "node " << folder << " folded " << folded->deltas_folded
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
  const bool rehome = options_.resilience.auto_rehome;
  std::vector<core::BatId> orphaned;
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    for (auto& [id, owner] : owners_) {
      if (owner != suspect) continue;
      if (rehome) owner = heir;
      orphaned.push_back(id);
    }
  }
  if (orphaned.empty()) return;
  if (!rehome) {
    // Without re-homing the fragments are gone: every node fails its
    // waiting queries with a typed Unavailable instead of letting pins hang.
    for (const core::BatId id : orphaned) {
      for (auto& n : nodes_) {
        if (n->crashed()) continue;
        Node* node = n.get();
        node->Post([node, id] { node->dc().FailBat(id); });
      }
    }
    return;
  }
  // The heir loads each inherited fragment from the write log, like any
  // owner.
  Node* heir_node = nodes_[heir].get();
  for (const core::BatId id : orphaned) {
    const uint64_t bytes = BaseBytes(id);
    heir_node->Post([heir_node, id, bytes] { heir_node->dc().AddOwnedBat(id, bytes); });
  }
  std::lock_guard<std::mutex> lock(ring_mu_);
  rehomed_fragments_ += orphaned.size();
  DCY_LOG(kInfo) << orphaned.size() << " fragment(s) of dead node " << suspect
                 << " re-homed to node " << heir;
}

uint64_t RingCluster::BaseBytes(core::BatId bat) const {
  const auto record = write_log_.Fragment(bat);
  return record.ok() ? record->base->ByteSize() : 0;
}

Status RingCluster::FragmentFailureStatus(core::BatId bat) {
  const core::NodeId owner = OwnerOf(bat);
  if (owner != core::kInvalidNode && !IsNodeAlive(owner)) {
    unavailable_failures_.fetch_add(1, std::memory_order_relaxed);
    const auto record = write_log_.Fragment(bat);
    const std::string name = record.ok() ? record->name : "?";
    return Status::Unavailable("fragment \"" + name + "\" (BAT " + std::to_string(bat) +
                               ") is on crashed node " + std::to_string(owner));
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
  // Re-introduce the node's surviving fragments (those not re-homed while
  // it was down) to its fresh protocol state; it loads them from the write
  // log, which the crash did not touch.
  std::vector<std::pair<core::BatId, uint64_t>> owned;
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    for (const auto& [id, owner] : owners_) {
      if (owner == node) owned.emplace_back(id, 0);
    }
  }
  for (auto& [id, size] : owned) size = BaseBytes(id);
  comer->PostSync([&] {
    for (const auto& [id, size] : owned) comer->dc().AddOwnedBat(id, size);
  });
  // Close the ring around the newcomer (fresh epochs towards it).
  if (pred != comer) pred->AdoptSuccessor(comer);
  if (succ != comer) succ->AdoptPredecessor(comer);
  // Publish liveness last. Until the newcomer owns its fragments again and
  // both neighbours have run their adoption tasks (the empty PostSyncs wait
  // for them), a request that finds no owner must fail its pins with a
  // retryable Unavailable (FragmentFailureStatus), not with NotFound.
  pred->PostSync([] {});
  succ->PostSync([] {});
  alive_[node].store(true, std::memory_order_release);
  dead_count_.fetch_sub(1, std::memory_order_relaxed);
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

void RingCluster::BandwidthMetrics::Add(const BandwidthMetrics& other) {
  frames_encoded += other.frames_encoded;
  raw_bytes += other.raw_bytes;
  wire_bytes += other.wire_bytes;
  hops += other.hops;
  hop_bytes += other.hop_bytes;
  dict_columns += other.dict_columns;
  for_columns += other.for_columns;
  plain_columns += other.plain_columns;
  memo_bytes += other.memo_bytes;
}

RingCluster::BandwidthMetrics RingCluster::Bandwidth() const {
  BandwidthMetrics out;
  for (const auto& node : nodes_) {
    Node* n = node.get();
    n->PostSync([n, &out] { out.Add(n->wire()); });
  }
  return out;
}

storage::MemoryMetrics RingCluster::NodeMemory(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  return nodes_[node]->memory();
}

storage::MemoryMetrics RingCluster::Memory() const {
  storage::MemoryMetrics total;
  for (const auto& node : nodes_) total.Add(node->memory());
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
  QueryWriteHooks write_hooks(this, snapshot);
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
