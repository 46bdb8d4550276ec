// Hop-level reliability for the live ring transport: framing, sequence
// numbers, CRC verification, cumulative ACK / NACK, go-back-N retransmission
// on NACK, and a retransmission timer estimated from measured round trips.
//
// Each directed neighbour link (data clockwise, requests anti-clockwise)
// gets a ReliableSender at the sending node and a ReliableReceiver slot at
// the receiving node. Every frame carries a FrameHeader {sender, epoch,
// seq, payload_crc, magic}; the receiver verifies the CRC, delivers
// in-order frames, and answers gaps or corruption with a NACK naming the
// sequence it expected. The sender keeps un-ACKed frames in a window and
// retransmits from the NACKed frame onward — classic go-back-N, which
// preserves the ring's FIFO contract.
//
// A NACK is evidence of a gap; a timeout is not. The receiver ACKs only after
// it has verified and handled a drained batch, so a late ACK usually means a
// busy receiver, not a lost frame. The timeout therefore follows RFC 6298:
// RTO = SRTT + 4·RTTVAR over round trips measured from ACKs (Jacobson/Karels,
// α = 1/8, β = 1/4), sampling only frames that were never re-sent. Each
// timeout doubles it, and the doubled value holds until the next sample
// (Karn's algorithm). An expiry re-sends only the window head: a lost head
// behind which nothing arrives to provoke a gap NACK still gets through,
// while a slow ACK costs one frame, not the whole window.
//
// Epochs make restarts safe: whenever a sender resets (node restart, ring
// re-splice, or an exhausted retransmit budget abandoning the window), it
// bumps its epoch and restarts seq at 0. A receiver that sees a higher
// epoch adopts it fresh; frames and ACKs from older epochs are stale and
// dropped, so no NACK loop can form across a reset.
//
// This layer is deliberately transport-agnostic: it never touches a
// channel. The ring runtime owns the wiring — it stamps outgoing frames
// via NextHeader/Track, feeds incoming control messages to OnAck/OnNack,
// and sends whatever CollectRetransmits returns.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "core/types.h"
#include "rdma/channel.h"

namespace dcy::net {

/// Sanity marker; a corrupted meta whose magic mismatches is counted and
/// dropped without consulting any per-sender state.
constexpr uint32_t kFrameMagic = 0xDC7F5EEDu;

/// \brief Per-frame reliability envelope, prepended (inline, in the
/// MetaBlob) to the application header.
struct FrameHeader {
  uint32_t sender = core::kInvalidNode;
  uint32_t epoch = 0;
  uint64_t seq = 0;
  /// CRC32 over application header bytes XOR CRC32 over the payload bytes
  /// (0 for payload-less frames). The payload half is computed once at load
  /// and forwarded hop to hop; the receiver recomputes it for verification.
  uint32_t payload_crc = 0;
  uint32_t magic = kFrameMagic;
};
static_assert(sizeof(FrameHeader) == 24);

/// Mixes the envelope's identity fields (sender, epoch, seq) into a 32-bit
/// checksum that NextHeader folds into payload_crc. Without it a bit flip in
/// the epoch field reads as a legitimate sender reset: the receiver adopts
/// the bogus (usually huge) epoch, every genuine frame is then "stale", and
/// the link wedges permanently — the sender's epoch++ resets never catch up.
inline uint32_t EnvelopeCrc(uint32_t sender, uint32_t epoch, uint64_t seq) {
  SplitMix64 mix(seq ^ (static_cast<uint64_t>(epoch) << 32) ^
                 (static_cast<uint64_t>(sender) * 0x9E3779B97F4A7C15ull));
  const uint64_t z = mix.Next();
  return static_cast<uint32_t>(z) ^ static_cast<uint32_t>(z >> 32);
}

inline uint32_t EnvelopeCrc(const FrameHeader& h) {
  return EnvelopeCrc(h.sender, h.epoch, h.seq);
}

/// \brief A data-channel frame: reliability envelope + BAT admin header.
/// Exactly fills the 64-byte inline meta budget.
struct DataFrame {
  FrameHeader frame;
  core::BatHeader bat;
};
static_assert(sizeof(DataFrame) == 64);
static_assert(sizeof(DataFrame) <= rdma::MetaBlob::kCapacity);

/// \brief A request-channel frame: reliability envelope + ring request.
struct RequestFrame {
  FrameHeader frame;
  core::RequestMsg req;
};
static_assert(sizeof(RequestFrame) <= rdma::MetaBlob::kCapacity);

enum class CtrlKind : uint32_t { kAck = 1, kNack = 2, kHeartbeat = 3 };

/// \brief Control-channel message (ACK/NACK/heartbeat); meta-only.
struct CtrlMsg {
  uint32_t sender = core::kInvalidNode;
  /// Channel class (rdma::kFaultChannel*) of the frames an ACK/NACK refers to.
  uint32_t channel = rdma::kFaultChannelData;
  uint32_t kind = 0;  ///< CtrlKind
  uint32_t epoch = 0;
  /// kAck: highest in-order seq received (cumulative). kNack: the seq the
  /// receiver expected (retransmit from here). kHeartbeat: unused.
  uint64_t seq = 0;
  uint32_t magic = kFrameMagic;
  uint32_t crc = 0;  ///< CtrlCrc over the fields above
};
static_assert(sizeof(CtrlMsg) <= rdma::MetaBlob::kCapacity);

/// Checksum over a control message's content. ACK/NACK frames steer the
/// sender's window, so a flipped seq bit in an ACK would falsely retire
/// frames the receiver never saw; a checksummed ctrl frame is dropped
/// instead (loss-tolerant: a later cumulative ACK or the retransmit timer
/// covers it).
inline uint32_t CtrlCrc(const CtrlMsg& c) {
  // One odd multiplier per field: each is a bijection mod 2^64, so a bit
  // flip in any single field always changes the XOR-combined seed.
  SplitMix64 mix(c.seq ^ (static_cast<uint64_t>(c.epoch) << 32) ^
                 (static_cast<uint64_t>(c.sender) * 0x9E3779B97F4A7C15ull) ^
                 (static_cast<uint64_t>(c.channel) * 0xBF58476D1CE4E5B9ull) ^
                 (static_cast<uint64_t>(c.kind) * 0x94D049BB133111EBull));
  const uint64_t z = mix.Next();
  return static_cast<uint32_t>(z) ^ static_cast<uint32_t>(z >> 32);
}

/// \brief Tunables for one reliable link.
struct ReliableOptions {
  /// Consecutive timeouts of the window head before the sender declares the
  /// link flapped and resets (new epoch, window abandoned).
  uint32_t max_attempts = 10;
  /// Retransmission timeout before the first round-trip sample, and the
  /// floor under every later estimate.
  SimTime initial_backoff = FromMillis(2);
  /// Cap on the retransmission timeout, backoff included. It must sit above
  /// the slowest receiver's batch time, or the estimate cannot follow it:
  /// under ThreadSanitizer a busy node takes 100-500 ms to ACK.
  SimTime max_backoff = FromMillis(1000);
  /// Un-ACKed frames the sender will hold before resetting the link
  /// (back-pressure of last resort; the channel's byte capacity usually
  /// throttles first).
  size_t max_unacked = 1024;
};

/// \brief Counters for one node's reliability state (both directions).
struct ReliableMetrics {
  uint64_t retransmits = 0;        ///< frames re-sent after NACK/timeout
  uint64_t frames_abandoned = 0;   ///< dropped with a link reset
  uint64_t link_resets = 0;        ///< epoch bumps (flaps + restarts)
  uint64_t frames_corrupted = 0;   ///< CRC mismatches detected on receive
  uint64_t frames_duplicate = 0;   ///< already-delivered seqs discarded
  uint64_t frames_gap = 0;         ///< out-of-order arrivals NACKed/dropped
  uint64_t frames_stale = 0;       ///< frames from a superseded epoch
  uint64_t frames_invalid = 0;     ///< bad magic / nonsense sender
  uint64_t nacks_sent = 0;

  /// Adds every counter of `other` into this one.
  void Add(const ReliableMetrics& other);
};

/// \brief Sending half of one directed link. Single-threaded: owned by the
/// node service thread that also owns the outgoing channel.
class ReliableSender {
 public:
  void Init(uint32_t self, const ReliableOptions& opts) {
    self_ = self;
    opts_ = opts;
  }

  /// Stamps the envelope for the next outgoing frame. The envelope's own
  /// identity fields are folded into payload_crc, so verification covers the
  /// whole frame: XOR EnvelopeCrc back out to recover the content CRC.
  FrameHeader NextHeader(uint32_t payload_crc) {
    FrameHeader h;
    h.sender = self_;
    h.epoch = epoch_;
    h.seq = next_seq_++;
    h.payload_crc = payload_crc ^ EnvelopeCrc(h);
    return h;
  }

  /// Records a sent frame in the retransmit window. Call right after the
  /// channel Send with the same seq NextHeader issued.
  void Track(uint32_t opcode, const rdma::MetaBlob& meta, rdma::Buffer payload,
             uint64_t seq, SimTime now);

  /// Cumulative acknowledgement: everything <= seq (in this epoch) is done.
  void OnAck(uint32_t epoch, uint64_t seq, SimTime now);

  /// The peer expected `seq`: frames < seq are implicitly ACKed, the rest
  /// retransmit immediately. A NACK below the window head is stale (an ACK
  /// has since covered that seq) and is ignored.
  void OnNack(uint32_t epoch, uint64_t seq, SimTime now);

  /// The frames to retransmit now, in order, or nullptr when nothing is due:
  /// after a NACK the window from the NACKed seq on, after a timeout the
  /// window head alone. The result stays valid until the next call. When the
  /// head times out for the max_attempts-th time in a row the whole window is
  /// abandoned with a link reset instead (go-back-N cannot skip one frame
  /// without leaving the receiver gapped forever).
  struct Stored {
    uint32_t opcode = 0;
    rdma::MetaBlob meta;
    rdma::Buffer payload;
    uint64_t seq = 0;
    SimTime sent_at = 0;  ///< first transmission, for the round-trip sample
    bool resent = false;  ///< re-sent at least once: its ACK is no sample
  };
  const std::vector<Stored>* CollectRetransmits(SimTime now);

  /// Bumps the epoch, restarts seq at 0, abandons the window and forgets the
  /// round-trip estimate (the peer may be a different node). Used on node
  /// restart, ring re-splice, and retransmit exhaustion.
  void Reset(SimTime now);

  uint32_t epoch() const { return epoch_; }
  uint64_t next_seq() const { return next_seq_; }
  size_t window_size() const { return unacked_.size(); }
  /// The current retransmission timeout, backoff included.
  SimTime rto() const;
  const ReliableMetrics& metrics() const { return metrics_; }

 private:
  /// Retires every frame with seq < end; on progress restarts the timer and
  /// takes a round-trip sample unless the head was re-sent.
  void Retire(uint64_t end, SimTime now);
  void SampleRtt(SimTime rtt);

  uint32_t self_ = core::kInvalidNode;
  ReliableOptions opts_;
  uint32_t epoch_ = 0;
  uint64_t next_seq_ = 0;
  std::deque<Stored> unacked_;
  std::vector<Stored> due_;  ///< what the last CollectRetransmits returned
  bool nacked_ = false;      ///< a NACK is waiting for its go-back-N resend
  uint32_t head_attempts_ = 0;  ///< consecutive timeouts of the head
  uint32_t backoff_ = 0;  ///< RTO doublings since the last RTT sample
  SimTime next_retx_ = 0;
  bool rtt_sampled_ = false;
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  ReliableMetrics metrics_;
};

/// \brief Receiving half: in-order delivery decisions per sending peer.
/// Single-threaded (node service thread).
class ReliableReceiver {
 public:
  enum class Verdict {
    kDeliver,    ///< in order and intact: hand to the application
    kDuplicate,  ///< seq below expected: drop silently
    kGap,        ///< seq above expected: drop, NACK the expected seq
    kCorrupt,    ///< CRC mismatch: drop, NACK this seq
    kStale,      ///< superseded epoch: drop
    kInvalid,    ///< bad magic / unknown sender: drop, no NACK
  };

  struct Outcome {
    Verdict verdict = Verdict::kInvalid;
    bool send_nack = false;
    uint64_t nack_seq = 0;
    uint32_t nack_epoch = 0;
  };

  /// Classifies one arriving frame. `crc_ok` is the caller's verification
  /// result (the receiver does not see payload bytes).
  Outcome OnFrame(const FrameHeader& h, bool crc_ok);

  /// Highest in-order seq accepted from `sender` in its current epoch, for
  /// the coalesced per-drain cumulative ACK; false when nothing to ack yet.
  bool CumulativeAck(uint32_t sender, uint32_t* epoch, uint64_t* seq) const;

  const ReliableMetrics& metrics() const { return metrics_; }
  ReliableMetrics* mutable_metrics() { return &metrics_; }

 private:
  struct PeerState {
    uint32_t epoch = 0;
    uint64_t expected = 0;  ///< next seq to deliver
    /// NACK dedupe: one NACK per gap event, re-armed when expected moves.
    uint64_t last_nacked = UINT64_MAX;
  };

  std::unordered_map<uint32_t, PeerState> peers_;
  ReliableMetrics metrics_;
};

}  // namespace dcy::net
