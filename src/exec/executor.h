// Process-wide FIFO task pool: the substrate of dataflow plan execution
// (mal::Interpreter::RunParallel). One fixed set of threads serves every
// concurrent query session on the ring, so parallel queries share cores
// instead of oversubscribing the machine with per-query thread pools (the
// paper's §4.1 "concurrent interpreter threads" on a shared engine). A
// plan's ready instructions run as tasks here; each BAT operator runs on the
// one thread that picked its instruction up.
//
// Tasks wait in one mutex-guarded queue and run in submission order. A task
// that blocks (a `datacyclotron.pin` waiting for its fragment's ring pass)
// holds only its own thread, and the thread that runs a plan pumps that
// plan itself, so a plan makes progress even with every pool thread blocked.
// All threads are created once in the constructor: steady-state query
// traffic creates zero threads (see ExecutorMetrics).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dcy::exec {

/// \brief Lifetime counters (monotonic). `threads_created` must stay flat
/// under steady-state query traffic — asserted in runtime_test.
struct ExecutorMetrics {
  uint64_t threads_created = 0;  ///< OS threads ever spawned by the executor
  uint64_t tasks_executed = 0;   ///< tasks run to completion
  /// Always 0: there is no work stealing. ringbench/ still reads it; remove it
  /// when ringbench next changes.
  uint64_t tasks_stolen = 0;
};

class Executor {
 public:
  using Task = std::function<void()>;

  /// Starts `workers` pool threads (at least 1).
  explicit Executor(size_t workers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor every subsystem shares. Created on first use;
  /// lives until process exit.
  static Executor& Default();

  /// Appends `task` to the queue and wakes one pool thread. Every submitted
  /// task is invoked exactly once: the pool drains the queue before its
  /// destructor returns, and a task submitted while the pool is stopping
  /// runs inline, so completion bookkeeping (latches, counters) never
  /// strands a waiter.
  void Submit(Task task);

  size_t workers() const { return threads_.size(); }
  ExecutorMetrics metrics() const;

 private:
  void WorkerLoop();

  std::mutex mu_;  ///< guards queue_ and stop_
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;

  std::atomic<uint64_t> tasks_executed_{0};
  std::vector<std::thread> threads_;  // after everything the threads use
};

}  // namespace dcy::exec
