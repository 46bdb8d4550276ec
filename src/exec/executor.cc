#include "exec/executor.h"

#include <algorithm>

namespace dcy::exec {

namespace {

constexpr size_t kNoIndex = static_cast<size_t>(-1);

// Which executor (and which of its deques) the current thread belongs to;
// lets Submit() keep a task's follow-up work on the spawning worker's deque.
thread_local Executor* tls_executor = nullptr;
thread_local size_t tls_index = kNoIndex;

}  // namespace

Executor::Executor(size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  num_workers_ = workers;
  // Primaries [0, W) plus parked reserves [W, 2W); every thread owns a deque
  // so nested submissions from a reserve stay stealable.
  states_.reserve(2 * workers);
  for (size_t i = 0; i < 2 * workers; ++i) {
    states_.push_back(std::make_unique<WorkerState>());
  }
  threads_.reserve(2 * workers);
  for (size_t i = 0; i < 2 * workers; ++i) {
    threads_created_.fetch_add(1, std::memory_order_relaxed);
    threads_.emplace_back([this, i] { WorkerLoop(i, /*reserve=*/i >= num_workers_); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Exactly-once contract: whatever is still queued runs here, single
  // threaded, so latch-style completions never strand a waiter.
  for (;;) {
    Task task;
    if (!AcquireTask(kNoIndex, &task)) break;
    task();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

Executor& Executor::Default() {
  // Intentionally leaked: worker threads must stay joinable-free of static
  // destruction order (no task may observe a half-destroyed process).
  static Executor* instance = new Executor();
  return *instance;
}

void Executor::Submit(Task task) {
  // pending_ is incremented before the task becomes visible to consumers
  // (pop decrements only after acquiring a task), so the counter can read
  // transiently high — a spurious wake — but never underflow.
  if (tls_executor == this && tls_index != kNoIndex) {
    pending_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(states_[tls_index]->mu);
    states_[tls_index]->deque.push_back(std::move(task));
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) {
      // Shutdown escape hatch: run inline rather than dropping the task.
      lock.unlock();
      task();
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    pending_.fetch_add(1, std::memory_order_relaxed);
    injection_.push_back(std::move(task));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sleepers_ > 0) cv_.notify_all();
}

bool Executor::AcquireTask(size_t index, Task* out) {
  if (index != kNoIndex) {
    WorkerState& own = *states_[index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.deque.empty()) {
      *out = std::move(own.deque.back());
      own.deque.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!injection_.empty()) {
      *out = std::move(injection_.front());
      injection_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal the oldest task of a sibling (FIFO end: large, cold subtrees).
  const size_t start = index == kNoIndex ? 0 : index + 1;
  for (size_t k = 0; k < states_.size(); ++k) {
    const size_t victim = (start + k) % states_.size();
    if (victim == index) continue;
    WorkerState& s = *states_[victim];
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.deque.empty()) {
      *out = std::move(s.deque.front());
      s.deque.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void Executor::WorkerLoop(size_t index, bool reserve) {
  tls_executor = this;
  tls_index = index;
  for (;;) {
    Task task;
    if (AcquireTask(index, &task)) {
      task();
      task = nullptr;  // release captures before sleeping
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    ++sleepers_;
    cv_.wait(lock, [&] {
      if (stop_) return true;
      if (pending_.load(std::memory_order_relaxed) == 0) return false;
      // Reserves run only while some task sits in a blocking section.
      return !reserve || blocked_.load(std::memory_order_relaxed) > 0;
    });
    --sleepers_;
    if (stop_) return;
  }
}

Executor::BlockingScope::BlockingScope(Executor& e) : executor_(e) {
  executor_.blocked_.fetch_add(1, std::memory_order_relaxed);
  executor_.blocking_sections_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(executor_.mu_);
  if (executor_.sleepers_ > 0) executor_.cv_.notify_all();
}

Executor::BlockingScope::~BlockingScope() {
  executor_.blocked_.fetch_sub(1, std::memory_order_relaxed);
}

ExecutorMetrics Executor::metrics() const {
  ExecutorMetrics m;
  m.threads_created = threads_created_.load(std::memory_order_relaxed);
  m.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  m.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  m.blocking_sections = blocking_sections_.load(std::memory_order_relaxed);
  return m;
}

}  // namespace dcy::exec
