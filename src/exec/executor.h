// Process-wide work-stealing task executor: the substrate of dataflow plan
// execution (mal::Interpreter::RunDataflow). One fixed pool of worker
// threads serves every concurrent query session on the ring, so parallel
// queries share cores instead of oversubscribing the machine with per-query
// thread pools (the paper's §4.1 "concurrent interpreter threads" on a
// shared engine). A plan's ready instructions run as tasks here; each BAT
// operator runs on the one thread that picked its instruction up.
//
// Design:
//  - `workers` primary threads, each with its own LIFO deque. External
//    Submit() lands in a global injection queue; a worker prefers its own
//    deque (cache-hot tasks), then the injection queue, then steals the
//    oldest task of a sibling.
//  - A matching set of *reserve* threads parks until a task announces it is
//    about to block (Executor::BlockingScope around `datacyclotron.pin`
//    stalls). While k tasks sit in blocking sections, k reserves run the
//    normal worker loop so runnable instructions are never starved by a
//    pinned plan. All threads are created once in the constructor:
//    steady-state query traffic creates zero threads (see ExecutorMetrics).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dcy::exec {

/// \brief Lifetime counters (monotonic). `threads_created` must stay flat
/// under steady-state query traffic — asserted in runtime_test.
struct ExecutorMetrics {
  uint64_t threads_created = 0;  ///< OS threads ever spawned by the executor
  uint64_t tasks_executed = 0;   ///< tasks run to completion
  uint64_t tasks_stolen = 0;     ///< tasks taken from a sibling's deque
  uint64_t blocking_sections = 0;  ///< BlockingScope entries
};

class Executor {
 public:
  using Task = std::function<void()>;

  /// `workers` primary threads (0 = hardware concurrency, min 1). The same
  /// number of reserve threads is created parked.
  explicit Executor(size_t workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor every subsystem shares. Created on first use;
  /// lives until process exit.
  static Executor& Default();

  /// Enqueues `task` on the current worker's deque when called from a pool
  /// thread, else on the injection queue, and wakes a sleeper. Every
  /// submitted task is invoked exactly once: tasks still queued at
  /// destruction run inline on the destructing thread, so completion
  /// bookkeeping (latches, counters) never strands a waiter.
  void Submit(Task task);

  /// \brief Announces that the current task is about to block on an external
  /// event (e.g. a ring pin future). While any scope is open, parked reserve
  /// threads take over the blocked capacity so runnable tasks keep flowing.
  class BlockingScope {
   public:
    explicit BlockingScope(Executor& e = Executor::Default());
    ~BlockingScope();
    BlockingScope(const BlockingScope&) = delete;
    BlockingScope& operator=(const BlockingScope&) = delete;

   private:
    Executor& executor_;
  };

  size_t workers() const { return num_workers_; }
  ExecutorMetrics metrics() const;

 private:
  struct WorkerState {
    std::mutex mu;
    std::deque<Task> deque;  // back = newest (owner pops back, thieves pop front)
  };

  void WorkerLoop(size_t index, bool reserve);
  /// Pops/steals one task; false when nothing is runnable right now.
  bool AcquireTask(size_t index, Task* out);

  size_t num_workers_ = 0;
  std::vector<std::unique_ptr<WorkerState>> states_;  // one per thread
  std::vector<std::thread> threads_;                  // primaries + reserves

  std::mutex mu_;  ///< guards injection_, sleep/wake, stop_
  std::condition_variable cv_;
  std::deque<Task> injection_;
  bool stop_ = false;
  size_t sleepers_ = 0;

  std::atomic<size_t> pending_{0};  ///< queued tasks across all queues
  std::atomic<size_t> blocked_{0};  ///< open BlockingScopes
  std::atomic<uint64_t> threads_created_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> tasks_stolen_{0};
  std::atomic<uint64_t> blocking_sections_{0};
};

}  // namespace dcy::exec
