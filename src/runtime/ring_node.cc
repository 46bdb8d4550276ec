#include "runtime/ring_node.h"

#include <cstring>
#include <string>

#include "common/logging.h"
#include "runtime/query_hooks.h"

namespace dcy::runtime {

namespace {

constexpr uint32_t kData = rdma::kFaultChannelData;
constexpr uint32_t kRequest = rdma::kFaultChannelRequest;
constexpr uint32_t kCtrl = rdma::kFaultChannelCtrl;

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

}  // namespace

RingNode::RingNode(RingCluster* cluster, core::NodeId id)
    : cluster_(cluster),
      id_(id),
      store_(cluster->options_.memory),
      admission_(cluster->options_.admission, id) {
  const RingCluster::Options& opts = cluster->options_;
  ResetProtocol();
  // Every ring channel is zero-copy (the Channel default).
  rdma::Channel::Options data_opts;
  data_opts.capacity_bytes = kBatQueueCapacity * 4;  // hard backpressure
  for (uint32_t cls = 0; cls < in_.size(); ++cls) {
    in_[cls] = std::make_unique<rdma::Channel>(cls == kData ? data_opts
                                                            : rdma::Channel::Options());
    if (opts.fault != nullptr) in_[cls]->SetFaultInjector(opts.fault, id_, cls);
  }
  for (Link& l : links_) l.out.Init(id_, opts.resilience.link);
}

/// Fresh protocol state: a new DcNode and no memoized frame, CRC or refusal.
void RingNode::ResetProtocol() {
  core::DcNodeOptions node_opts = cluster_->options_.node;
  node_opts.node_id = id_;
  node_opts.ring_size = cluster_->options_.num_nodes;
  dc_ = std::make_unique<core::DcNode>(node_opts, this, &loit_);
  decode_rejected_.clear();
  encoded_.clear();
  hashed_.clear();
  current_payload_ = nullptr;
}

void RingNode::Adopt(Side side, RingNode* peer) {
  Post([this, side, peer] {
    Link& l = links_[side];
    l.peer.store(peer, std::memory_order_release);
    l.last_heard = Now();
    l.out.Reset(l.last_heard);
  });
}

void RingNode::SnapshotResilience(RingCluster::ResilienceMetrics* out) const {
  for (const Link& l : links_) {
    out->Add(l.out.metrics());
    out->Add(l.in.metrics());
  }
  out->acks_sent += hop_.acks_sent;
  out->heartbeats_sent += hop_.heartbeats_sent;
  out->heartbeats_received += hop_.heartbeats_received;
  out->heartbeats_missed += hop_.heartbeats_missed;
  out->orphan_frames_dropped += hop_.orphan_frames_dropped;
  out->frames_adopted += hop_.frames_adopted;
  out->decode_failures += hop_.decode_failures;
  out->payload_hashes += hop_.payload_hashes;
}

RingCluster::BandwidthMetrics RingNode::wire() const {
  RingCluster::BandwidthMetrics w = wire_;
  for (const auto& [_, memo] : encoded_) w.memo_bytes += memo.frame->size();
  return w;
}

// ---- lifecycle ---------------------------------------------------------------

void RingNode::Start() {
  stop_.store(false);
  service_ = std::thread([this] { ServiceLoop(); });
  admission_.Start([this](const AdmissionQueue::Item& q) {
    return RunQuery(this, *q.plan, q.state.get(), q.options);
  });
}

void RingNode::StopQueries(const Status& error) {
  admission_.Stop(error, [&] { FailWaiters(0, ~core::QueryId{0}, error); });
}

void RingNode::Stop() {
  stop_.store(true);
  for (auto& c : in_) c->Close();
  mailbox_cv_.notify_all();
  if (service_.joinable()) service_.join();
}

void RingNode::Crash() {
  StopQueries(Status::Unavailable("node " + std::to_string(id_) + " crashed"));
  std::lock_guard<std::mutex> dead(dead_exec_mu_);
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    crashed_.store(true, std::memory_order_release);
  }
  Stop();
  // Run what the service thread left behind: posted tasks may carry
  // PostSync promises whose callers would otherwise block forever.
  std::deque<std::function<void()>> leftover;
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    leftover.swap(mailbox_);
  }
  for (auto& task : leftover) task();
  store_.Clear();
}

void RingNode::Restart(RingNode* successor, RingNode* predecessor) {
  std::lock_guard<std::mutex> dead(dead_exec_mu_);
  ResetProtocol();
  for (auto& c : in_) c->Reopen();
  const SimTime now = Now();
  for (Link& l : links_) l.out.Reset(now);
  SetNeighbour(kSuccessor, successor);
  SetNeighbour(kPredecessor, predecessor);
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    mailbox_.clear();
    crashed_.store(false, std::memory_order_release);
  }
  Start();
}

void RingNode::Post(std::function<void()> task) {
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

void RingNode::PostSync(std::function<void()> task) {
  std::promise<void> done;
  Post([&task, &done] {
    task();
    done.set_value();
  });
  done.get_future().wait();
}

Status RingNode::Submit(AdmissionQueue::Item item) {
  using Shed = AdmissionQueue::Shed;
  const Shed shed = cluster_->degraded()     ? Shed::kDegraded
                    : store_.UnderPressure() ? Shed::kMemoryPressure
                                             : Shed::kNone;
  Status s = admission_.Enqueue(std::move(item), shed);
  if (s.code() == StatusCode::kFailedPrecondition && crashed()) {
    return Status::Unavailable("node " + std::to_string(id_) + " is down");
  }
  if (shed == Shed::kMemoryPressure && s.code() == StatusCode::kUnavailable) {
    store_.NotePressureShed();
  }
  return s;
}

// ---- pin waiters -------------------------------------------------------------

std::future<Result<bat::BatPtr>> RingNode::AddWaiter(core::QueryId query,
                                                     core::BatId bat) {
  std::lock_guard<std::mutex> lock(waiters_mu_);
  return waiters_[{query, bat}].get_future();
}

void RingNode::RemoveWaiter(core::QueryId query, core::BatId bat) {
  std::lock_guard<std::mutex> lock(waiters_mu_);
  waiters_.erase({query, bat});
}

void RingNode::ResolveWaiter(core::QueryId query, core::BatId bat,
                             Result<bat::BatPtr> value) {
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

/// Fails every outstanding waiter of the queries in [first, last].
void RingNode::FailWaiters(core::QueryId first, core::QueryId last, const Status& error) {
  std::vector<std::promise<Result<bat::BatPtr>>> taken;
  {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    auto it = waiters_.lower_bound({first, 0});
    while (it != waiters_.end() && it->first.first <= last) {
      taken.push_back(std::move(it->second));
      it = waiters_.erase(it);
    }
  }
  for (auto& p : taken) p.set_value(error);
}

// ---- DcEnv -------------------------------------------------------------------

void RingNode::SendRequestMsg(const core::RequestMsg& msg) {
  // Requests travel anti-clockwise.
  net::RequestFrame rf;
  rf.frame = links_[kPredecessor].out.NextHeader(bat::Crc32(&msg, sizeof(msg)));
  rf.req = msg;
  SendFramed(kPredecessor, rdma::MetaBlob::Of(rf), rf.frame.seq, nullptr);
}

void RingNode::SendBatMsg(const core::BatHeader& header, bool is_load) {
  rdma::Buffer payload;
  if (is_load) {
    const EncodedFrame* owned = OwnedFrame(header.bat_id);
    if (owned == nullptr) return;
    payload = owned->frame;
  } else {
    // DcNode forwards only from OnBatMsg, which HandleDataFrame calls for a
    // delivered frame; a frame without a payload fails its CRC.
    DCY_DCHECK(current_payload_ != nullptr)
        << "node " << id_ << " forwards BAT " << header.bat_id << " without its payload";
    payload = current_payload_;
  }
  ++wire_.hops;
  wire_.hop_bytes += payload->size();
  net::DataFrame df;
  // The payload was hashed when it arrived here (a forward) or when its
  // owner encoded it (a load), so its CRC comes from the memo.
  df.frame = links_[kSuccessor].out.NextHeader(HeaderCrc(header) ^ PayloadCrc(payload));
  df.bat = header;
  // meta = envelope + administrative header, payload = encoded BAT
  // (zero-copy); a copy stays in the retransmit window until ACKed.
  SendFramed(kSuccessor, rdma::MetaBlob::Of(df), df.frame.seq, std::move(payload));
}

void RingNode::DeliverToQuery(core::QueryId query, core::BatId bat) {
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

void RingNode::FailQuery(core::QueryId query, core::BatId bat) {
  ResolveWaiter(query, bat, cluster_->FragmentFailureStatus(bat));
}

uint64_t RingNode::BatQueueLoadBytes() {
  RingNode* succ = links_[kSuccessor].peer.load(std::memory_order_acquire);
  return succ->in_[kData]->queued_bytes();
}

uint64_t RingNode::BatQueueCapacityBytes() { return kBatQueueCapacity; }

// ---- the hop layer (service thread) --------------------------------------------

/// Sends one framed message to `side`'s neighbour, on its inbound channel of
/// the side's class, and keeps it in the link's retransmit window. The
/// opcode is the channel class; no receiver reads it.
void RingNode::SendFramed(Side side, const rdma::MetaBlob& meta, uint64_t seq,
                          rdma::Buffer payload) {
  Link& l = links_[side];
  if (l.peer.load(std::memory_order_acquire)->in_[side]->Send(side, meta, payload, id_)) {
    l.out.Track(side, meta, std::move(payload), seq, Now());
  }
}

/// Sends one checksummed control message (ACK, NACK or heartbeat) about
/// channel class `cls` to `to`; false when its channel is closed.
bool RingNode::SendCtrl(RingNode* to, net::CtrlKind kind, uint32_t cls, uint32_t epoch,
                        uint64_t seq) {
  net::CtrlMsg c;
  c.sender = id_;
  c.channel = cls;
  c.kind = static_cast<uint32_t>(kind);
  c.epoch = epoch;
  c.seq = seq;
  c.crc = net::CtrlCrc(c);
  return to->in_[kCtrl]->Send(kCtrl, rdma::MetaBlob::Of(c), nullptr, id_);
}

void RingNode::NoteHeardFrom(core::NodeId sender) {
  const SimTime now = Now();
  for (Link& l : links_) {
    RingNode* peer = l.peer.load(std::memory_order_acquire);
    if (peer != nullptr && peer->id() == sender) l.last_heard = now;
  }
}

/// The hop verdict of both framed channels: a plausibly well-formed envelope
/// from a plausible sender (anything else, a corrupted meta or a frame from
/// nowhere, is counted and dropped without a NACK: garbage must not steer
/// per-peer state), then the link receiver's in-order and CRC verdict, which
/// NACKs a gap or a failed CRC. `verify` runs only for a well-formed
/// envelope. True when the frame is delivered.
template <typename Verify>
bool RingNode::Accept(uint32_t cls, const net::FrameHeader& h, Verify verify) {
  net::ReliableReceiver& rx = From(cls).in;
  if (h.magic != net::kFrameMagic || h.sender >= cluster_->options_.num_nodes ||
      h.sender == id_) {
    ++rx.mutable_metrics()->frames_invalid;
    return false;
  }
  const auto outcome = rx.OnFrame(h, verify());
  if (outcome.send_nack) {
    SendCtrl(cluster_->nodes_[h.sender].get(), net::CtrlKind::kNack, cls,
             outcome.nack_epoch, outcome.nack_seq);
  }
  if (outcome.verdict != net::ReliableReceiver::Verdict::kDeliver) return false;
  NoteHeardFrom(h.sender);
  return true;
}

/// Sends one coalesced cumulative ACK per distinct sender in the drained
/// batch of class `cls`: O(batch) frames cost O(senders) ACK messages.
template <typename FrameT>
void RingNode::AckDrainedBatch(uint32_t cls) {
  const net::ReliableReceiver& rx = From(cls).in;
  uint32_t seen[2] = {core::kInvalidNode, core::kInvalidNode};
  size_t n = 0;
  for (const rdma::Message& m : drain_) {
    if (m.meta.size() < sizeof(FrameT)) continue;
    const uint32_t s = m.meta.As<FrameT>().frame.sender;
    if (s >= cluster_->options_.num_nodes) continue;
    bool known = false;
    for (size_t i = 0; i < n; ++i) known = known || seen[i] == s;
    if (known) continue;
    if (n < 2) seen[n++] = s;
    uint32_t epoch = 0;
    uint64_t seq = 0;
    if (rx.CumulativeAck(s, &epoch, &seq) &&
        SendCtrl(cluster_->nodes_[s].get(), net::CtrlKind::kAck, cls, epoch, seq)) {
      ++hop_.acks_sent;
    }
  }
}

void RingNode::HandleCtrl(const rdma::Message& m) {
  if (m.meta.size() < sizeof(net::CtrlMsg)) return;
  const auto c = m.meta.As<net::CtrlMsg>();
  if (c.magic != net::kFrameMagic || c.sender >= cluster_->options_.num_nodes) return;
  if (c.crc != net::CtrlCrc(c)) {
    // A corrupted ACK could falsely retire un-delivered frames from the
    // sender's window; drop it and let a later cumulative ACK (or the
    // retransmit timer) carry the information instead.
    ++From(kData).in.mutable_metrics()->frames_invalid;
    return;
  }
  const auto kind = static_cast<net::CtrlKind>(c.kind);
  if (kind == net::CtrlKind::kHeartbeat) {
    ++hop_.heartbeats_received;
    NoteHeardFrom(c.sender);
  } else if (c.channel == kData || c.channel == kRequest) {
    // An ACK or NACK about the frames this node sends on class c.channel.
    net::ReliableSender& out = links_[c.channel].out;
    if (kind == net::CtrlKind::kAck) out.OnAck(c.epoch, c.seq, Now());
    if (kind == net::CtrlKind::kNack) out.OnNack(c.epoch, c.seq, Now());
  }
}

void RingNode::HandleRequestFrame(const rdma::Message& m) {
  if (m.meta.size() < sizeof(net::RequestFrame)) return;
  const auto rf = m.meta.As<net::RequestFrame>();
  const bool delivered = Accept(kRequest, rf.frame, [&] {
    return (bat::Crc32(&rf.req, sizeof(rf.req)) ^ net::EnvelopeCrc(rf.frame)) ==
           rf.frame.payload_crc;
  });
  if (delivered) dc_->OnRequestMsg(rf.req);
}

void RingNode::HandleDataFrame(const rdma::Message& m) {
  if (m.meta.size() < sizeof(net::DataFrame)) return;
  const auto df = m.meta.As<net::DataFrame>();
  // The payload CRC, combined with the envelope and the frame's per-hop
  // header CRC, must reproduce what the sender wrapped.
  const bool delivered = Accept(kData, df.frame, [&] {
    if (m.payload == nullptr) return false;
    const uint32_t payload_crc = PayloadCrc(m.payload);
    // Debug builds re-hash every arrival: the memo is only as sound as the
    // premise that no payload changes after it is posted.
    DCY_DCHECK(payload_crc == bat::Crc32(m.payload->data(), m.payload->size()))
        << "payload object changed after it was posted";
    return (HeaderCrc(df.bat) ^ payload_crc ^ net::EnvelopeCrc(df.frame)) ==
           df.frame.payload_crc;
  });
  if (!delivered) return;

  core::BatHeader header = df.bat;
  if (!cluster_->IsNodeAlive(header.owner)) {
    if (dc_->owned().Find(header.bat_id) != nullptr) {
      // This node inherited the fragment (re-homing): take ownership of
      // the circulating frame too, so hot-set accounting has an owner.
      header.owner = id_;
      ++hop_.frames_adopted;
    } else if (header.hops > 2 * cluster_->options_.num_nodes + 4) {
      // An orphan with a dead owner and no heir: nobody will retire it, so
      // after two full laps plus slack for in-flight duplicates it is aged
      // out instead of circling forever.
      ++hop_.orphan_frames_dropped;
      return;
    }
  }

  current_payload_ = m.payload;
  // Decode once if local queries are blocked on it (delivery needs the
  // typed BAT). The copy is charged to the budget and held until the
  // protocol cache releases it. Over budget, the typed refusal is delivered
  // to the blocked pins instead of the data (retryable backpressure, never
  // an unaccounted allocation).
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

/// Sends each distinct neighbour a heartbeat, and reports one silent for
/// longer than the miss threshold as suspect. A ring of two has one
/// neighbour on both sides, which counts once.
void RingNode::Heartbeat(SimTime now) {
  const auto& res = cluster_->options_.resilience;
  const SimTime silence_bound = res.heartbeat_miss_threshold * res.heartbeat_period;
  RingNode* const succ = links_[kSuccessor].peer.load(std::memory_order_acquire);
  for (const Side side : {kSuccessor, kPredecessor}) {
    Link& l = links_[side];
    RingNode* peer = l.peer.load(std::memory_order_acquire);
    if (peer == nullptr || peer == this || (side == kPredecessor && peer == succ)) continue;
    SendCtrl(peer, net::CtrlKind::kHeartbeat, kCtrl, 0, 0);
    ++hop_.heartbeats_sent;
    if (now - l.last_heard <= silence_bound) continue;
    ++hop_.heartbeats_missed;
    l.last_heard = now;  // one report per silence window, not a storm
    cluster_->ReportSuspect(id_, peer->id());
  }
}

void RingNode::ServiceLoop() {
  const auto& node_opts = dc_->options();
  const auto& res = cluster_->options_.resilience;
  const SimTime start = Now();
  SimTime next_load_all = start + node_opts.load_all_period;
  SimTime next_maintenance = start + node_opts.maintenance_period;
  SimTime next_adapt = start + node_opts.adapt_period;
  SimTime next_heartbeat = start + res.heartbeat_period;
  for (Link& l : links_) l.last_heard = start;

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

    // Drain whole backlogs in one lock acquisition per channel: at high
    // message rates a rotation delivers bursts, and per-message locking was
    // the dominant hop cost. Control first: ACKs shrink retransmit windows
    // before new sends.
    const auto drain = [&](uint32_t cls, auto handle) {
      drain_.clear();
      if (in_[cls]->TryReceiveAll(&drain_) == 0) return;
      for (const rdma::Message& m : drain_) handle(m);
      did_work = true;
    };
    drain(kCtrl, [this](const rdma::Message& m) { HandleCtrl(m); });
    drain(kRequest, [this](const rdma::Message& m) { HandleRequestFrame(m); });
    AckDrainedBatch<net::RequestFrame>(kRequest);
    drain(kData, [this](const rdma::Message& m) { HandleDataFrame(m); });
    AckDrainedBatch<net::DataFrame>(kData);
    drain_.clear();  // release payload references promptly

    const SimTime now = Now();
    // Re-send everything due in each link's retransmit window.
    for (const Side side : {kSuccessor, kPredecessor}) {
      Link& l = links_[side];
      if (const auto* due = l.out.CollectRetransmits(now)) {
        rdma::Channel* to = l.peer.load(std::memory_order_acquire)->in_[side].get();
        for (const auto& s : *due) to->Send(s.opcode, s.meta, s.payload, id_);
      }
    }
    // True (and re-armed `period` ahead) when the timer at *next is due.
    const auto due = [&](SimTime* next, SimTime period) {
      if (now < *next) return false;
      *next = now + period;
      return did_work = true;
    };
    if (due(&next_heartbeat, res.heartbeat_period)) Heartbeat(now);
    if (due(&next_load_all, node_opts.load_all_period)) dc_->OnLoadAllTimer();
    if (due(&next_maintenance, node_opts.maintenance_period)) {
      dc_->OnMaintenanceTimer();
      admission_.Sweep();
      TrimMemos();
    }
    if (due(&next_adapt, node_opts.adapt_period)) dc_->OnAdaptTimer();

    if (!did_work) {
      std::unique_lock<std::mutex> lock(mailbox_mu_);
      mailbox_cv_.wait_for(lock, kIdleWait);
    }
  }
}

// ---- owner frames, CRC memo, ring copies ---------------------------------------

/// The frame an owner load ships. The write log's base of the fragment is
/// encoded once and the frame memoized while that object is still the base;
/// a fold brings a new base, and the next load encodes that one. nullptr
/// when the log has no such fragment.
const RingNode::EncodedFrame* RingNode::OwnedFrame(core::BatId id) {
  auto record = cluster_->write_log().Fragment(id);
  if (!record.ok()) {
    DCY_LOG(kError) << "node " << id_ << " cannot load BAT " << id << ": "
                    << record.status().ToString();
    return nullptr;
  }
  const bat::BatPtr& base = record->base;
  EncodedFrame& memo = encoded_[id];
  if (memo.source.lock() != base) {
    // One codec plan sizes the frame exactly, encodes it, and reports what
    // compression bought it.
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

/// The CRC of a payload's bytes, one pass per payload object: later laps,
/// retransmits and duplicates of an object this node has already hashed (or,
/// as its owner, encoded) reuse the CRC. A corrupting fabric damages a
/// private copy, a new object, which is hashed in full.
uint32_t RingNode::PayloadCrc(const rdma::Buffer& payload) {
  HashedPayload& memo = hashed_[payload.get()];
  if (memo.object.lock() != payload) {
    ++hop_.payload_hashes;
    memo = {payload, bat::Crc32(payload->data(), payload->size())};
  }
  return memo.crc;
}

/// Drops memoized frames whose payload object no longer exists (a fold
/// replaced the base and no reader holds the old one), so memoized bytes
/// stay within the wire size of the bases this owner loads, and the CRCs of
/// payload objects that no longer exist.
void RingNode::TrimMemos() {
  for (auto it = encoded_.begin(); it != encoded_.end();) {
    it = it->second.source.expired() ? encoded_.erase(it) : std::next(it);
  }
  for (auto it = hashed_.begin(); it != hashed_.end();) {
    it = it->second.object.expired() ? hashed_.erase(it) : std::next(it);
  }
}

/// Ring-copy upkeep: copies the protocol cache released leave the store,
/// returning their budget charge, and refusals no blocked pin awaits go.
void RingNode::TrimCopies() {
  store_.DropIf([this](core::BatId bat) { return !dc_->cache().Contains(bat); });
  for (auto it = decode_rejected_.begin(); it != decode_rejected_.end();) {
    it = dc_->pins().HasBlocked(it->first) ? std::next(it) : decode_rejected_.erase(it);
  }
}

}  // namespace dcy::runtime
