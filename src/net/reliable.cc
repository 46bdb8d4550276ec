#include "net/reliable.h"

#include <algorithm>

namespace dcy::net {

void ReliableMetrics::Add(const ReliableMetrics& other) {
  retransmits += other.retransmits;
  frames_abandoned += other.frames_abandoned;
  link_resets += other.link_resets;
  frames_corrupted += other.frames_corrupted;
  frames_duplicate += other.frames_duplicate;
  frames_gap += other.frames_gap;
  frames_stale += other.frames_stale;
  frames_invalid += other.frames_invalid;
  nacks_sent += other.nacks_sent;
}

void ReliableSender::Track(uint32_t opcode, const rdma::MetaBlob& meta,
                           rdma::Buffer payload, uint64_t seq, SimTime now) {
  if (unacked_.size() >= opts_.max_unacked) {
    // Window full: the peer has not acknowledged anything for a long time.
    // Abandon and reset rather than grow without bound.
    Reset(now);
    return;
  }
  if (unacked_.empty()) next_retx_ = now + rto();
  unacked_.push_back(Stored{opcode, meta, std::move(payload), seq, now});
}

void ReliableSender::OnAck(uint32_t epoch, uint64_t seq, SimTime now) {
  if (epoch != epoch_) return;  // stale (pre-reset) acknowledgement
  Retire(seq + 1, now);
}

void ReliableSender::OnNack(uint32_t epoch, uint64_t seq, SimTime now) {
  if (epoch != epoch_ || unacked_.empty() || seq < unacked_.front().seq) return;
  Retire(seq, now);  // frames < seq are implicitly acknowledged
  if (unacked_.empty()) return;
  nacked_ = true;
  next_retx_ = now;  // retransmit on the next pump
}

void ReliableSender::Retire(uint64_t end, SimTime now) {
  if (unacked_.empty() || unacked_.front().seq >= end) return;
  // Re-sent frames always form a prefix of the window (a timeout re-sends the
  // head, a NACK everything), so a fresh head means the ACK covers no re-sent
  // frame and its round trip is unambiguous. Karn's algorithm: sample only
  // then, and keep the backed-off timeout until then, since collapsing it on
  // an ambiguous ACK would time the next head out just as early again.
  const Stored& head = unacked_.front();
  if (!head.resent) {
    SampleRtt(std::max<SimTime>(0, now - head.sent_at));
    backoff_ = 0;
  }
  while (!unacked_.empty() && unacked_.front().seq < end) unacked_.pop_front();
  // Progress after a NACK means the peer has since received the NACKed seq.
  nacked_ = false;
  head_attempts_ = 0;
  next_retx_ = now + rto();
}

void ReliableSender::SampleRtt(SimTime rtt) {
  if (!rtt_sampled_) {
    rtt_sampled_ = true;
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    return;
  }
  // RFC 6298 §2.3: RTTVAR first, against the SRTT before this sample.
  const SimTime err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
  rttvar_ += (err - rttvar_) / 4;
  srtt_ += (rtt - srtt_) / 8;
}

SimTime ReliableSender::rto() const {
  SimTime timeout = rtt_sampled_ ? srtt_ + 4 * rttvar_ : opts_.initial_backoff;
  timeout = std::max(timeout, opts_.initial_backoff);
  for (uint32_t i = 0; i < backoff_ && timeout < opts_.max_backoff; ++i) {
    timeout *= 2;
  }
  return std::min(timeout, opts_.max_backoff);
}

const std::vector<ReliableSender::Stored>* ReliableSender::CollectRetransmits(
    SimTime now) {
  due_.clear();  // drop the payload references of the previous batch
  if (unacked_.empty() || now < next_retx_) return nullptr;
  size_t n = unacked_.size();
  if (!nacked_) {
    if (head_attempts_ + 1 >= opts_.max_attempts) {
      // The head frame is not getting through; go-back-N cannot skip it
      // without leaving the receiver gapped forever, so flap the whole link.
      Reset(now);
      return nullptr;
    }
    // A timeout says only that the head's ACK is late, most often because
    // the peer is still busy with its batch. If the head was in fact lost,
    // any frame behind it that arrived has drawn a gap NACK.
    ++head_attempts_;
    ++backoff_;
    n = 1;
  }
  nacked_ = false;
  for (size_t i = 0; i < n; ++i) {
    unacked_[i].resent = true;
    due_.push_back(unacked_[i]);
  }
  metrics_.retransmits += n;
  next_retx_ = now + rto();
  return &due_;
}

void ReliableSender::Reset(SimTime now) {
  metrics_.frames_abandoned += unacked_.size();
  ++metrics_.link_resets;
  unacked_.clear();
  ++epoch_;
  next_seq_ = 0;
  nacked_ = false;
  head_attempts_ = 0;
  backoff_ = 0;
  next_retx_ = now;
  rtt_sampled_ = false;
  srtt_ = rttvar_ = 0;
}

ReliableReceiver::Outcome ReliableReceiver::OnFrame(const FrameHeader& h,
                                                    bool crc_ok) {
  Outcome out;
  if (h.magic != kFrameMagic || h.sender == core::kInvalidNode) {
    ++metrics_.frames_invalid;
    out.verdict = Verdict::kInvalid;
    return out;
  }
  PeerState& peer = peers_[h.sender];
  if (!crc_ok) {
    // Nothing in a corrupt frame can be trusted — its epoch/seq may be the
    // very bits that flipped — so classify before any state is adopted. The
    // NACK names what *we* expect in the epoch we believe in; if the frame
    // was genuinely from a newer epoch the retransmit timer re-delivers it
    // intact and the adoption happens then.
    ++metrics_.frames_corrupted;
    out.verdict = Verdict::kCorrupt;
    if (peer.last_nacked != peer.expected) {
      peer.last_nacked = peer.expected;
      out.send_nack = true;
      out.nack_seq = peer.expected;
      out.nack_epoch = peer.epoch;
      ++metrics_.nacks_sent;
    }
    return out;
  }
  if (h.epoch < peer.epoch) {
    ++metrics_.frames_stale;
    out.verdict = Verdict::kStale;
    return out;
  }
  if (h.epoch > peer.epoch) {
    // The sender reset (restart / re-splice / flap): adopt the new epoch.
    peer.epoch = h.epoch;
    peer.expected = 0;
    peer.last_nacked = UINT64_MAX;
  }
  if (h.seq < peer.expected) {
    ++metrics_.frames_duplicate;
    out.verdict = Verdict::kDuplicate;
    return out;
  }
  if (h.seq > peer.expected) {
    ++metrics_.frames_gap;
    out.verdict = Verdict::kGap;
    if (peer.last_nacked != peer.expected) {
      peer.last_nacked = peer.expected;
      out.send_nack = true;
      out.nack_seq = peer.expected;
      out.nack_epoch = peer.epoch;
      ++metrics_.nacks_sent;
    }
    return out;
  }
  ++peer.expected;
  peer.last_nacked = UINT64_MAX;  // progress re-arms the NACK dedupe
  out.verdict = Verdict::kDeliver;
  return out;
}

bool ReliableReceiver::CumulativeAck(uint32_t sender, uint32_t* epoch,
                                     uint64_t* seq) const {
  auto it = peers_.find(sender);
  if (it == peers_.end() || it->second.expected == 0) return false;
  *epoch = it->second.epoch;
  *seq = it->second.expected - 1;
  return true;
}

}  // namespace dcy::net
