#include "exec/executor.h"

#include <algorithm>

namespace dcy::exec {

namespace {

// Pool threads per hardware thread for Default(). A dataflow task holds its
// thread while a `datacyclotron.pin` waits for the ring, so the pool is
// larger than the core count: twice it is what the earlier work-stealing
// design reached with its primaries plus parked reserves, and both TPC-H
// ringbench workloads ran at most 7 tasks at once on 4 cores.
constexpr unsigned kThreadsPerCore = 2;

}  // namespace

Executor::Executor(size_t workers) {
  workers = std::max<size_t>(1, workers);
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) threads_.emplace_back([this] { WorkerLoop(); });
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // The workers drain the queue before they exit, and nothing is queued once
  // stop_ is set (Submit runs inline), so every task has run after the join.
  for (auto& t : threads_) t.join();
}

Executor& Executor::Default() {
  // Intentionally leaked: worker threads must stay joinable-free of static
  // destruction order (no task may observe a half-destroyed process).
  static Executor* instance =
      new Executor(kThreadsPerCore * std::max(1u, std::thread::hardware_concurrency()));
  return *instance;
}

void Executor::Submit(Task task) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    // Shutdown escape hatch: run inline rather than dropping the task.
    lock.unlock();
    task();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  queue_.push_back(std::move(task));
  lock.unlock();
  cv_.notify_one();
}

void Executor::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

ExecutorMetrics Executor::metrics() const {
  ExecutorMetrics m;
  m.threads_created = threads_.size();
  m.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  return m;
}

}  // namespace dcy::exec
