// RDMA-flavoured intra-process transport: point-to-point channels between
// node threads with three transfer modes that reproduce the cost structure
// of the paper's Figure 1:
//   kZeroCopy   — direct data placement: the registered buffer is handed
//                 over by reference; no CPU touches the payload (RDMA).
//   kNicOffload — network stack on the NIC but one copy into application
//                 memory at the receiver.
//   kLegacy     — kernel TCP/IP path: copy out at the sender and copy in at
//                 the receiver, in MTU-sized segments, with a scheduler
//                 yield per segment standing in for context switches.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "rdma/fault.h"

namespace dcy::rdma {

/// Registered (pinned) memory region; payloads are immutable once posted.
using Buffer = std::shared_ptr<const std::string>;

inline Buffer MakeBuffer(std::string data) {
  return std::make_shared<const std::string>(std::move(data));
}

/// \brief Freelist of registered frames. Acquire hands out a mutable
/// std::string whose deleter returns the storage to the pool, so steady-state
/// ring traffic reuses grown frames instead of allocating per hop. The handle
/// converts implicitly to (const) Buffer once filled; the pool may be dropped
/// while frames are in flight (they then free normally). Thread-safe.
class BufferPool {
 public:
  /// `max_frames` bounds the freelist; surplus returns are freed.
  /// `max_frame_bytes` keeps burst-sized frames from pinning their capacity:
  /// a returning frame above the bound is freed instead of parked.
  explicit BufferPool(size_t max_frames = 16, size_t max_frame_bytes = 64u << 20)
      : state_(std::make_shared<State>(max_frames, max_frame_bytes)) {}

  /// A pooled frame, cleared, with at least `reserve` bytes of capacity.
  std::shared_ptr<std::string> Acquire(size_t reserve = 0);

  /// Frames currently parked in the freelist.
  size_t idle_frames() const;
  /// Total frames ever allocated fresh (reuse diagnostics).
  uint64_t allocations() const { return state_->allocations.load(std::memory_order_relaxed); }

 private:
  struct State {
    State(size_t m, size_t b) : max_frames(m), max_frame_bytes(b) {}
    std::mutex mu;
    std::vector<std::unique_ptr<std::string>> free;
    size_t max_frames;
    size_t max_frame_bytes;
    std::atomic<uint64_t> allocations{0};
  };

  std::shared_ptr<State> state_;
};

// CHECK-lite for the inline MetaBlob methods; keeps this header free of the
// logging dependency.
#define DCY_META_CHECK(cond) \
  do {                       \
    if (!(cond)) abort();    \
  } while (0)

/// \brief Fixed-capacity inline control header. BAT admin headers and ring
/// requests fit the paper's 64-byte wire budget (core::kBatHeaderWireBytes),
/// so per-message sends never touch the allocator.
class MetaBlob {
 public:
  static constexpr size_t kCapacity = 64;

  MetaBlob() = default;
  // Explicit: the 64-byte capacity is a hard contract (overflow aborts), so
  // conversions from unbounded strings must be visible at the call site.
  explicit MetaBlob(const void* data, size_t n) : len_(static_cast<uint8_t>(n)) {
    DCY_META_CHECK(n <= kCapacity);
    std::memcpy(bytes_.data(), data, n);
  }
  explicit MetaBlob(std::string_view s) : MetaBlob(s.data(), s.size()) {}

  /// Encodes a trivially copyable header struct.
  template <typename T>
  static MetaBlob Of(const T& v) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kCapacity);
    return MetaBlob(&v, sizeof(T));
  }

  /// Decodes back into the header struct (size-checked).
  template <typename T>
  T As() const {
    static_assert(std::is_trivially_copyable_v<T>);
    DCY_META_CHECK(len_ >= sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data(), sizeof(T));
    return v;
  }

  const char* data() const { return bytes_.data(); }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::string_view view() const { return {bytes_.data(), len_}; }

  friend bool operator==(const MetaBlob& a, std::string_view b) { return a.view() == b; }

 private:
  std::array<char, kCapacity> bytes_{};
  uint8_t len_ = 0;
};
#undef DCY_META_CHECK

enum class TransferMode { kZeroCopy, kNicOffload, kLegacy };

/// \brief A message as delivered to the receiver.
struct Message {
  uint32_t opcode = 0;   ///< application-defined discriminator
  MetaBlob meta;         ///< small inline control header (always copied)
  Buffer payload;        ///< bulk data (zero-copy in kZeroCopy mode)
};

/// \brief In-order point-to-point channel (the ring uses one per direction
/// per neighbour pair; RDMA wants point-to-point connections, §2.3).
///
/// Thread-safe MPSC: several producers may Send, one consumer Receives.
class Channel {
 public:
  struct Options {
    TransferMode mode = TransferMode::kZeroCopy;
    /// Soft capacity in payload bytes; Send blocks while exceeded
    /// (credit-based flow control, as an RDMA fabric would).
    uint64_t capacity_bytes = 256 * 1024 * 1024;
    /// Segment size for the copying modes (per-segment costs).
    size_t segment_bytes = 64 * 1024;
  };

  struct Stats {
    std::atomic<uint64_t> messages{0};
    std::atomic<uint64_t> payload_bytes{0};
    std::atomic<uint64_t> bytes_copied{0};  ///< CPU copy volume (Fig. 1)
    std::atomic<uint64_t> yields{0};        ///< simulated context switches
  };

  explicit Channel(Options options) : options_(options) {}

  /// Posts a message; blocks while the channel is over capacity. Returns
  /// false if the channel was closed.
  bool Send(uint32_t opcode, Buffer payload) {
    return Send(opcode, MetaBlob(), std::move(payload));
  }

  /// Posts a message with a small inline control header (e.g. the BAT's
  /// administrative header) ahead of the bulk payload. The header is copied
  /// by value — no allocation on the send path.
  bool Send(uint32_t opcode, const MetaBlob& meta, Buffer payload) {
    return Send(opcode, meta, std::move(payload), kAnyEndpoint);
  }

  /// Send with the sending endpoint identified for fault matching: the
  /// installed FaultInjector (if any) decides per frame whether to deliver,
  /// drop, delay, duplicate, or corrupt. A dropped frame still returns true
  /// — on a lossy fabric the sender cannot tell.
  bool Send(uint32_t opcode, const MetaBlob& meta, Buffer payload, uint32_t fault_src);

  /// Installs the shared fault injector and this channel's endpoint identity
  /// (destination id + logical channel class) for rule matching. Call before
  /// traffic starts; `injector` may be nullptr to disable. Not owned.
  void SetFaultInjector(FaultInjector* injector, uint32_t dst, uint32_t channel_class);

  /// Blocks until a message arrives or the channel closes (nullopt).
  std::optional<Message> Receive();

  /// Non-blocking variant.
  std::optional<Message> TryReceive();

  /// Drains the whole queued backlog into *out (appended, in order) under a
  /// single lock acquisition — one mutex round-trip per ring-hop burst
  /// instead of one per message. Returns the number of messages moved (0
  /// when the queue is empty).
  size_t TryReceiveAll(std::vector<Message>* out);

  /// Blocking drain: waits until at least one message is queued (or the
  /// channel closes — returns 0), then moves the entire backlog like
  /// TryReceiveAll.
  size_t ReceiveAll(std::vector<Message>* out);

  /// Wakes all blocked senders/receivers; subsequent Sends fail.
  void Close();

  /// Reverses Close() for node-restart scenarios: discards everything still
  /// queued (including delayed frames) and accepts traffic again.
  void Reopen();

  /// Bytes currently queued (the DC layer's BAT-queue-load reading).
  uint64_t queued_bytes() const { return queued_bytes_.load(std::memory_order_relaxed); }

  const Stats& stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// Receive-side frame pool used by the copying transfer modes (and
  /// available to senders that frame payloads per message).
  BufferPool& pool() { return pool_; }

 private:
  /// A frame held back by a kDelay fault until its release time.
  struct DelayedMessage {
    Message msg;
    uint64_t size = 0;
    std::chrono::steady_clock::time_point due;
  };

  /// Applies the transfer-mode cost model and returns the receiver-side
  /// payload (same buffer for zero-copy, a pooled copy otherwise).
  Buffer TransferPayload(const Buffer& payload);

  /// Enqueues one (or, for duplicates, two) copies of the message after the
  /// capacity wait; the unlocked tail of Send.
  bool EnqueueReady(Message msg, uint64_t size, int copies);

  /// Moves delayed frames whose release time passed into the live queue.
  /// Caller holds mu_.
  void FlushDelayedLocked(std::chrono::steady_clock::time_point now);

  /// Earliest release time among delayed frames. Caller holds mu_ and
  /// guarantees delayed_ is non-empty.
  std::chrono::steady_clock::time_point NextDueLocked() const;

  /// Wakes blocked senders after a dequeue freed capacity. notify_all by
  /// design: senders wait on per-message size predicates, so a single
  /// wakeup could strand peers whose payloads now fit. Elided entirely
  /// while still over capacity (no sender predicate can hold).
  void NotifySenders();

  /// Appends a swapped-out backlog to *out (outside the lock) and wakes all
  /// senders; returns the number of messages moved.
  size_t FinishDrain(std::deque<Message>* batch, std::vector<Message>* out);

  Options options_;
  Stats stats_;
  BufferPool pool_;
  FaultInjector* fault_ = nullptr;  ///< not owned; shared across channels
  uint32_t fault_dst_ = kAnyEndpoint;
  uint32_t fault_channel_ = kAnyEndpoint;
  mutable std::mutex mu_;
  std::condition_variable can_send_;
  std::condition_variable can_recv_;
  std::deque<Message> queue_;
  std::vector<DelayedMessage> delayed_;  ///< guarded by mu_
  std::atomic<uint64_t> queued_bytes_{0};
  bool closed_ = false;
};

}  // namespace dcy::rdma
