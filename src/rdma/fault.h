// Deterministic fault injection for the RDMA-emulating transport.
//
// A FaultInjector holds a scripted schedule of FaultRules and is consulted by
// rdma::Channel on every Send. Each rule matches a directed link — (source
// endpoint, destination endpoint, logical channel) with wildcards — over a
// half-open window of that link's frame indices, and fires a fault action
// with a given probability, at most `max_count` times:
//
//   kDrop       the frame vanishes (Send still reports success, as a lossy
//               fabric would)
//   kDelay      delivery is deferred by `delay` (reordering across frames)
//   kDuplicate  the frame is delivered twice
//   kCorrupt    a pseudo-random bit of the payload (or of the inline meta
//               header for payload-less frames) is flipped in a private copy
//
// Determinism: every decision is drawn from a per-link RNG stream seeded as
// SplitMix64(seed ^ link key), indexed by the link's own frame counter. A
// link has a single sender thread in the ring runtime, so the frame order —
// and therefore the whole fault schedule — is reproducible for a fixed seed
// and rule list. Add all rules before traffic starts; AddRule during traffic
// is thread-safe but shifts the RNG consumption of in-flight links.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/units.h"

namespace dcy::rdma {

/// Wildcard endpoint / channel id in a FaultLink.
constexpr uint32_t kAnyEndpoint = 0xFFFFFFFFu;

/// The channel classes of the ring runtime, the one set of them: a node's
/// inbound channels are indexed by class, FaultLink::channel matches it, and
/// net::CtrlMsg::channel names the class an ACK/NACK refers to.
constexpr uint32_t kFaultChannelData = 0;     ///< clockwise BAT frames
constexpr uint32_t kFaultChannelRequest = 1;  ///< anti-clockwise requests
constexpr uint32_t kFaultChannelCtrl = 2;     ///< ACK/NACK/heartbeat traffic

/// \brief A directed hop: frames from `src` into `dst`'s `channel` queue.
/// kAnyEndpoint / kAnyEndpoint / kAnyEndpoint matches everything.
struct FaultLink {
  uint32_t src = kAnyEndpoint;
  uint32_t dst = kAnyEndpoint;
  uint32_t channel = kAnyEndpoint;
};

enum class FaultType { kDrop, kDelay, kDuplicate, kCorrupt };

const char* FaultTypeName(FaultType t);

/// \brief One scripted fault: where, what, how often, and for how long.
struct FaultRule {
  FaultLink link;
  FaultType type = FaultType::kDrop;
  /// Probability per matching frame, drawn from the link's seeded stream.
  double probability = 1.0;
  /// Half-open window [from_frame, to_frame) on the link's frame index;
  /// the defaults cover the link's whole lifetime.
  uint64_t from_frame = 0;
  uint64_t to_frame = UINT64_MAX;
  /// Total firing budget of this rule across all links it matches.
  uint64_t max_count = UINT64_MAX;
  /// Added latency for kDelay rules.
  SimTime delay = FromMillis(1);
};

/// \brief The combined verdict for one frame (multiple rules can stack;
/// drop dominates).
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  SimTime delay = 0;
  /// Seed for the corrupting bit flip (which bit, drawn deterministically).
  uint64_t corrupt_seed = 0;

  bool clean() const { return !drop && !duplicate && !corrupt && delay == 0; }
};

/// \brief Seeded, scripted fault schedule; shared by every channel of a
/// cluster. Thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0xDCC1C107u) : seed_(seed) {}

  void AddRule(const FaultRule& rule);
  /// Drops all rules (per-link frame counters and RNG streams persist).
  void ClearRules();

  // Convenience rule builders for the common schedules.
  static FaultRule Drop(FaultLink link, double probability);
  static FaultRule Delay(FaultLink link, double probability, SimTime delay);
  static FaultRule Duplicate(FaultLink link, double probability);
  static FaultRule Corrupt(FaultLink link, double probability);
  /// Total blackout of a link over a frame-index window (a partition).
  static FaultRule Partition(FaultLink link, uint64_t from_frame, uint64_t to_frame);

  /// The verdict for the next frame on (src -> dst, channel). Called by
  /// Channel::Send; advances the link's frame counter.
  FaultDecision Decide(uint32_t src, uint32_t dst, uint32_t channel);

  /// Frames on the link so far (diagnostics; the index Decide consumed next).
  uint64_t FramesSeen(uint32_t src, uint32_t dst, uint32_t channel) const;

  struct Counters {
    std::atomic<uint64_t> frames_seen{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> delayed{0};
    std::atomic<uint64_t> duplicated{0};
    std::atomic<uint64_t> corrupted{0};
  };
  const Counters& counters() const { return counters_; }

 private:
  struct RuleState {
    FaultRule rule;
    uint64_t fired = 0;
  };
  struct LinkState {
    explicit LinkState(uint64_t seed) : rng(seed) {}
    uint64_t frame_index = 0;
    Rng rng;
  };

  static uint64_t LinkKey(uint32_t src, uint32_t dst, uint32_t channel);
  static bool Matches(const FaultLink& pattern, uint32_t src, uint32_t dst,
                      uint32_t channel);

  uint64_t seed_;
  mutable std::mutex mu_;
  std::vector<RuleState> rules_;
  std::unordered_map<uint64_t, LinkState> links_;
  Counters counters_;
};

}  // namespace dcy::rdma
