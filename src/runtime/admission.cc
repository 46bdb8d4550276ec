#include "runtime/admission.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace dcy::runtime {

void AdmissionQueue::Start(RunFn run) {
  run_ = std::move(run);
  // `open_` flips before the runners exist, so submissions may queue while
  // they come up; no submit ever touches runners_.
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
  }
  const uint32_t c = std::max<uint32_t>(1, options_.max_concurrent);
  runners_.reserve(c);
  for (uint32_t i = 0; i < c; ++i) runners_.emplace_back([this] { RunnerLoop(); });
}

void AdmissionQueue::Stop(const Status& error, const std::function<void()>& wake) {
  std::deque<Item> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    abandoned.swap(queue_);
    metrics_.queued = 0;
    // Abandoned entries are terminal: keep the counters balanced
    // (submitted == completed + rejected over the node's lifetime).
    metrics_.completed += abandoned.size();
    metrics_.cancelled_queued += abandoned.size();
    for (const auto& state : running_) state->cancel.Cancel();
  }
  cv_.notify_all();
  // Pins blocked on the ring wake and observe the cancel flag set above.
  wake();
  for (auto& t : runners_) {
    if (t.joinable()) t.join();
  }
  runners_.clear();
  for (auto& item : abandoned) item.state->Finish(error);
}

Status AdmissionQueue::Enqueue(Item item, Shed shed) {
  const auto node = [this] { return "node " + std::to_string(node_); };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::FailedPrecondition(node() + " is not accepting queries");
    if (shed != Shed::kNone && queue_.size() >= options_.degraded_max_queued) {
      // A recovering ring, or pinned copies filling the budget with none
      // evictable, get breathing room: new work is shed retryable at the
      // degraded bound instead of piling up behind it.
      if (shed == Shed::kDegraded) {
        ++metrics_.shed_degraded;
        return Status::Unavailable("ring degraded: load shed on " + node());
      }
      return Status::Unavailable("memory pressure: load shed on " + node());
    }
    if (queue_.size() >= options_.max_queued) {
      ++metrics_.rejected;
      return Status::ResourceExhausted("admission queue full on " + node() + ": " +
                                       std::to_string(queue_.size()) + " queued, limit " +
                                       std::to_string(options_.max_queued));
    }
    queue_.push_back(std::move(item));
    ++metrics_.submitted;
    metrics_.queued = static_cast<uint32_t>(queue_.size());
    metrics_.peak_queued = std::max(metrics_.peak_queued, metrics_.queued);
  }
  cv_.notify_one();
  return Status::OK();
}

void AdmissionQueue::Sweep() {
  std::vector<std::pair<Item, Status>> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      Status live = it->state->cancel.CheckLive();
      if (live.ok()) {
        ++it;
        continue;
      }
      if (live.code() == StatusCode::kAborted) ++metrics_.cancelled_queued;
      if (live.code() == StatusCode::kTimedOut) ++metrics_.timed_out_queued;
      ++metrics_.completed;
      expired.emplace_back(std::move(*it), std::move(live));
      it = queue_.erase(it);
    }
    metrics_.queued = static_cast<uint32_t>(queue_.size());
  }
  for (auto& [item, status] : expired) item.state->Finish(status);
}

/// One admission slot: dequeues FIFO, executes (or fails a query whose token
/// tripped while it waited), publishes the terminal outcome.
void AdmissionQueue::RunnerLoop() {
  using Seconds = std::chrono::duration<double>;
  for (;;) {
    Item item;
    uint64_t seq = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !open_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      item = std::move(queue_.front());
      queue_.pop_front();
      metrics_.queued = static_cast<uint32_t>(queue_.size());
      ++metrics_.running;
      metrics_.peak_running = std::max(metrics_.peak_running, metrics_.running);
      ++metrics_.admitted;
      seq = next_admitted_seq_++;
      running_.insert(item.state);
    }

    const auto admitted_at = std::chrono::steady_clock::now();
    const Status live = item.state->cancel.CheckLive();
    Result<QueryResult> outcome = live.ok() ? run_(item) : Result<QueryResult>(live);
    if (outcome.ok()) {
      QueryResult& qr = outcome.value();
      qr.admitted_seq = seq;
      qr.timing.queued_seconds = Seconds(admitted_at - item.state->submitted_at).count();
      qr.timing.wall_seconds =
          Seconds(std::chrono::steady_clock::now() - item.state->submitted_at).count();
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      running_.erase(item.state);
      --metrics_.running;
      ++metrics_.completed;
      if (!live.ok()) {
        if (live.code() == StatusCode::kAborted) ++metrics_.cancelled_queued;
        if (live.code() == StatusCode::kTimedOut) ++metrics_.timed_out_queued;
      }
    }
    item.state->Finish(std::move(outcome));
  }
}

}  // namespace dcy::runtime
