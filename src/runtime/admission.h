// Per-node query admission: a FIFO queue in front of a fixed pool of query
// runners, so at most AdmissionOptions::max_concurrent queries execute on
// one ring node at a time and a burst of submissions degrades to waiting
// instead of oversubscribing the shared executor. The queue knows nothing of
// the ring or the store: the node says when to shed and runs each admitted
// query.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "runtime/session.h"

namespace dcy::runtime {

/// \brief Tunables of one node's admission queue.
struct AdmissionOptions {
  /// C: queries of this node executing at once. Submissions beyond C wait
  /// in a FIFO queue until a slot frees up.
  uint32_t max_concurrent = 4;
  /// Queue depth bound; a submission arriving with `max_queued` queries
  /// already waiting is rejected with ResourceExhausted (backpressure).
  uint32_t max_queued = 1024;
  /// Tighter queue bound that replaces `max_queued` while the node sheds
  /// load (a node of the ring is down, or this node is under memory
  /// pressure). Rejections under this bound return Unavailable (retryable)
  /// rather than ResourceExhausted.
  uint32_t degraded_max_queued = 64;
};

/// \brief Queue-depth metrics of one node's admission queue: monotonic
/// counters plus an occupancy snapshot. Cheap, always on.
struct AdmissionMetrics {
  uint64_t submitted = 0;         ///< Submit() calls accepted into the queue
  uint64_t admitted = 0;          ///< queries that started executing
  uint64_t completed = 0;         ///< queries that reached a terminal state
  uint64_t rejected = 0;          ///< submissions bounced off a full queue
  uint64_t shed_degraded = 0;     ///< submissions shed while the ring was degraded
  uint64_t cancelled_queued = 0;  ///< cancelled before execution started
  uint64_t timed_out_queued = 0;  ///< deadline expired while still queued
  uint32_t running = 0;           ///< snapshot: executing right now
  uint32_t queued = 0;            ///< snapshot: waiting in the FIFO
  uint32_t peak_running = 0;      ///< high-water mark of `running`
  uint32_t peak_queued = 0;       ///< high-water mark of `queued`
};

/// \brief One node's FIFO admission queue and runner pool. Thread-safe.
class AdmissionQueue {
 public:
  /// One submission waiting in (or admitted from) the queue.
  struct Item {
    std::shared_ptr<internal::QueryState> state;
    PreparedQueryPtr plan;
    SubmitOptions options;
  };
  /// Executes one admitted query.
  using RunFn = std::function<Result<QueryResult>(const Item&)>;
  /// Why the node sheds load, if it does.
  enum class Shed { kNone, kDegraded, kMemoryPressure };

  AdmissionQueue(AdmissionOptions options, core::NodeId node)
      : options_(options), node_(node) {}

  /// Opens the queue and starts exactly max_concurrent runners, created
  /// once, whatever the size of later bursts.
  void Start(RunFn run);

  /// Closes the queue: fails the queued queries with `error`, cancels the
  /// running ones, calls `wake` to unblock their pins, and joins the
  /// runners. Everything abandoned terminates with `error`.
  void Stop(const Status& error, const std::function<void()>& wake);

  /// Queues `item`, or refuses it: FailedPrecondition while closed,
  /// Unavailable when shedding at degraded_max_queued, ResourceExhausted at
  /// max_queued.
  Status Enqueue(Item item, Shed shed);

  /// Fails queued queries whose token tripped (cancel or deadline) without
  /// waiting for a runner slot: with every slot held by long queries, a
  /// queued submission would otherwise outlive its own deadline unnoticed.
  void Sweep();

  AdmissionMetrics metrics() const {
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_;
  }

 private:
  void RunnerLoop();

  const AdmissionOptions options_;
  const core::NodeId node_;
  RunFn run_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  std::set<std::shared_ptr<internal::QueryState>> running_;
  AdmissionMetrics metrics_;
  uint64_t next_admitted_seq_ = 0;
  bool open_ = false;  ///< Start() opens, Stop() closes
  std::vector<std::thread> runners_;
};

}  // namespace dcy::runtime
