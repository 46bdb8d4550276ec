#include "rdma/channel.h"

#include <cstring>
#include <thread>

namespace dcy::rdma {

std::shared_ptr<std::string> BufferPool::Acquire(size_t reserve) {
  std::unique_ptr<std::string> frame;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->free.empty()) {
      frame = std::move(state_->free.back());
      state_->free.pop_back();
    }
  }
  if (frame == nullptr) {
    frame = std::make_unique<std::string>();
    state_->allocations.fetch_add(1, std::memory_order_relaxed);
  }
  frame->clear();
  if (reserve > 0) frame->reserve(reserve);
  // The deleter parks the frame back in the freelist; if the pool died while
  // the frame was in flight, it simply frees.
  std::weak_ptr<State> weak_state = state_;
  std::string* raw = frame.release();
  return std::shared_ptr<std::string>(raw, [weak_state](std::string* s) {
    if (auto state = weak_state.lock()) {
      // Park unless the freelist is full or the frame ballooned past the
      // byte bound (burst payloads should not pin their capacity).
      if (s->capacity() <= state->max_frame_bytes) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->free.size() < state->max_frames) {
          state->free.emplace_back(s);
          return;
        }
      }
    }
    delete s;
  });
}

size_t BufferPool::idle_frames() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->free.size();
}

Buffer Channel::TransferPayload(const Buffer& payload) {
  if (payload == nullptr || options_.mode == TransferMode::kZeroCopy) {
    // Direct data placement: the RNIC wrote straight into the registered
    // region; neither host CPU touches the bytes (§2.2).
    return payload;
  }
  const size_t n = payload->size();
  const size_t seg = options_.segment_bytes;
  // Application receive buffer comes from the channel's frame pool, so
  // steady-state traffic stops allocating once frames reach working size.
  std::shared_ptr<std::string> received = pool_.Acquire(n);
  received->resize(n);
  if (options_.mode == TransferMode::kLegacy) {
    // Sender-side copy into "socket buffers", segment by segment, with a
    // context switch per segment. The socket buffer is thread-local scratch,
    // reused across sends.
    thread_local std::string wire;
    wire.resize(n);
    for (size_t off = 0; off < n; off += seg) {
      const size_t len = std::min(seg, n - off);
      std::memcpy(wire.data() + off, payload->data() + off, len);
      stats_.bytes_copied.fetch_add(len, std::memory_order_relaxed);
      stats_.yields.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    // Receiver-side copy from the socket buffer into application memory.
    for (size_t off = 0; off < n; off += seg) {
      const size_t len = std::min(seg, n - off);
      std::memcpy(received->data() + off, wire.data() + off, len);
      stats_.bytes_copied.fetch_add(len, std::memory_order_relaxed);
    }
    // Don't let one burst payload pin its capacity for the thread lifetime.
    if (wire.capacity() > (4u << 20)) {
      wire.clear();
      wire.shrink_to_fit();
    }
  } else {  // kNicOffload: the NIC handles the stack; one copy remains.
    for (size_t off = 0; off < n; off += seg) {
      const size_t len = std::min(seg, n - off);
      std::memcpy(received->data() + off, payload->data() + off, len);
      stats_.bytes_copied.fetch_add(len, std::memory_order_relaxed);
    }
  }
  return received;
}

void Channel::SetFaultInjector(FaultInjector* injector, uint32_t dst,
                               uint32_t channel_class) {
  fault_ = injector;
  fault_dst_ = dst;
  fault_channel_ = channel_class;
}

namespace {

/// Flips one deterministic bit of the payload (private copy; the original
/// buffer may be shared zero-copy with other hops) — or of the inline meta
/// header when there is no payload to damage.
void CorruptFrame(MetaBlob* meta, Buffer* payload, uint64_t seed) {
  if (*payload != nullptr && !(*payload)->empty()) {
    auto damaged = std::make_shared<std::string>(**payload);
    const uint64_t bit = seed % (damaged->size() * 8);
    (*damaged)[bit / 8] = static_cast<char>((*damaged)[bit / 8] ^ (1u << (bit % 8)));
    *payload = std::move(damaged);
    return;
  }
  if (meta->empty()) return;
  std::array<char, MetaBlob::kCapacity> bytes{};
  std::memcpy(bytes.data(), meta->data(), meta->size());
  const uint64_t bit = seed % (meta->size() * 8);
  bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1u << (bit % 8)));
  *meta = MetaBlob(bytes.data(), meta->size());
}

}  // namespace

bool Channel::Send(uint32_t opcode, const MetaBlob& meta, Buffer payload,
                   uint32_t fault_src) {
  MetaBlob framed = meta;
  int copies = 1;
  SimTime delay = 0;
  if (fault_ != nullptr) {
    const FaultDecision d = fault_->Decide(fault_src, fault_dst_, fault_channel_);
    if (d.drop) return true;  // swallowed by the "network"; sender can't tell
    if (d.corrupt) CorruptFrame(&framed, &payload, d.corrupt_seed);
    if (d.duplicate) copies = 2;
    delay = d.delay;
  }

  const uint64_t size = payload != nullptr ? payload->size() : 0;
  Buffer delivered = TransferPayload(payload);

  if (delay > 0) {
    // Delayed frames sit outside the live queue (they are "on the wire"):
    // they bypass the capacity wait and do not count into queued_bytes until
    // released, mirroring latency rather than buffer occupancy.
    const auto due = std::chrono::steady_clock::now() + std::chrono::nanoseconds(delay);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      for (int i = 0; i < copies; ++i) {
        delayed_.push_back(DelayedMessage{Message{opcode, framed, delivered}, size, due});
      }
    }
    stats_.messages.fetch_add(static_cast<uint64_t>(copies), std::memory_order_relaxed);
    stats_.payload_bytes.fetch_add(size * static_cast<uint64_t>(copies),
                                   std::memory_order_relaxed);
    can_recv_.notify_one();  // a blocked receiver re-arms its timed wait
    return true;
  }
  return EnqueueReady(Message{opcode, framed, std::move(delivered)}, size, copies);
}

bool Channel::EnqueueReady(Message msg, uint64_t size, int copies) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    can_send_.wait(lock, [&] {
      return closed_ || queued_bytes_.load(std::memory_order_relaxed) + size <=
                            options_.capacity_bytes || queue_.empty();
    });
    if (closed_) return false;
    for (int i = 1; i < copies; ++i) queue_.push_back(msg);
    queue_.push_back(std::move(msg));
    queued_bytes_.fetch_add(size * static_cast<uint64_t>(copies),
                            std::memory_order_relaxed);
  }
  stats_.messages.fetch_add(static_cast<uint64_t>(copies), std::memory_order_relaxed);
  stats_.payload_bytes.fetch_add(size * static_cast<uint64_t>(copies),
                                 std::memory_order_relaxed);
  can_recv_.notify_one();
  return true;
}

void Channel::FlushDelayedLocked(std::chrono::steady_clock::time_point now) {
  if (delayed_.empty()) return;
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (it->due <= now) {
      queued_bytes_.fetch_add(it->size, std::memory_order_relaxed);
      queue_.push_back(std::move(it->msg));
      it = delayed_.erase(it);
    } else {
      ++it;
    }
  }
}

std::chrono::steady_clock::time_point Channel::NextDueLocked() const {
  auto due = delayed_.front().due;
  for (const DelayedMessage& d : delayed_) due = std::min(due, d.due);
  return due;
}

std::optional<Message> Channel::Receive() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    FlushDelayedLocked(std::chrono::steady_clock::now());
    if (closed_ || !queue_.empty()) break;
    if (!delayed_.empty()) {
      can_recv_.wait_until(lock, NextDueLocked());
    } else {
      can_recv_.wait(lock,
                     [&] { return closed_ || !queue_.empty() || !delayed_.empty(); });
    }
  }
  if (queue_.empty()) return std::nullopt;  // closed and drained
  Message m = std::move(queue_.front());
  queue_.pop_front();
  const uint64_t size = m.payload != nullptr ? m.payload->size() : 0;
  queued_bytes_.fetch_sub(size, std::memory_order_relaxed);
  lock.unlock();
  NotifySenders();
  return m;
}

std::optional<Message> Channel::TryReceive() {
  std::unique_lock<std::mutex> lock(mu_);
  FlushDelayedLocked(std::chrono::steady_clock::now());
  if (queue_.empty()) return std::nullopt;
  Message m = std::move(queue_.front());
  queue_.pop_front();
  const uint64_t size = m.payload != nullptr ? m.payload->size() : 0;
  queued_bytes_.fetch_sub(size, std::memory_order_relaxed);
  lock.unlock();
  NotifySenders();
  return m;
}

void Channel::NotifySenders() {
  // notify_one would be wrong here: senders wait on per-message predicates
  // (their own payload size against the remaining capacity), so one dequeue
  // can unblock several small senders at once and a single wakeup would
  // strand the rest until the next dequeue. What we *can* elide is the
  // whole notification while the channel is still over capacity — no
  // sender's predicate can hold, so waking them is pure stampede. A stale
  // read here only ever errs toward a harmless extra notify_all.
  if (queued_bytes_.load(std::memory_order_relaxed) <= options_.capacity_bytes) {
    can_send_.notify_all();
  }
}

size_t Channel::FinishDrain(std::deque<Message>* batch, std::vector<Message>* out) {
  // The whole backlog is gone: arbitrary capacity freed, so every blocked
  // sender may proceed; the message moves happen outside the lock.
  if (batch->empty()) return 0;
  can_send_.notify_all();
  out->reserve(out->size() + batch->size());
  for (Message& m : *batch) out->push_back(std::move(m));
  return batch->size();
}

size_t Channel::TryReceiveAll(std::vector<Message>* out) {
  std::deque<Message> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    FlushDelayedLocked(std::chrono::steady_clock::now());
    batch.swap(queue_);
    // All byte mutations happen under mu_, so zeroing here is exact.
    queued_bytes_.store(0, std::memory_order_relaxed);
  }
  return FinishDrain(&batch, out);
}

size_t Channel::ReceiveAll(std::vector<Message>* out) {
  std::deque<Message> batch;
  {
    // Swap under the wait's own lock: no window for another consumer to
    // empty the queue between wakeup and drain, so 0 really means closed.
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      FlushDelayedLocked(std::chrono::steady_clock::now());
      if (closed_ || !queue_.empty()) break;
      if (!delayed_.empty()) {
        can_recv_.wait_until(lock, NextDueLocked());
      } else {
        can_recv_.wait(lock,
                       [&] { return closed_ || !queue_.empty() || !delayed_.empty(); });
      }
    }
    batch.swap(queue_);
    queued_bytes_.store(0, std::memory_order_relaxed);
  }
  return FinishDrain(&batch, out);
}

void Channel::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    delayed_.clear();  // frames in flight die with the link
  }
  can_send_.notify_all();
  can_recv_.notify_all();
}

void Channel::Reopen() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
    queue_.clear();
    delayed_.clear();
    queued_bytes_.store(0, std::memory_order_relaxed);
  }
  can_send_.notify_all();
}

}  // namespace dcy::rdma
