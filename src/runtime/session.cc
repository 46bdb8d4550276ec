#include "runtime/session.h"

#include <algorithm>
#include <thread>

#include "common/random.h"
#include "runtime/ring_cluster.h"

namespace dcy::runtime {

// ===========================================================================
// ResultSet
// ===========================================================================

ResultSet ResultSet::Build(const mal::ResultSetPtr& exported, mal::Datum last) {
  ResultSet rs;
  rs.scalar_ = std::move(last);
  if (exported == nullptr) return rs;
  rs.descs_.reserve(exported->columns.size());
  rs.bats_.reserve(exported->columns.size());
  for (const auto& col : exported->columns) {
    ColumnDesc desc;
    desc.table = col.table;
    desc.name = col.name;
    desc.decl_type = col.type;
    desc.type = col.values->tail_type();
    rs.descs_.push_back(std::move(desc));
    rs.bats_.push_back(col.values);
  }
  return rs;
}

size_t ResultSet::num_rows() const { return bats_.empty() ? 0 : bats_[0]->size(); }

int ResultSet::FindColumn(std::string_view name) const {
  for (size_t c = 0; c < descs_.size(); ++c) {
    if (descs_[c].name == name || descs_[c].table + "." + descs_[c].name == name) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

const bat::ColumnPtr& ResultSet::values(size_t c) const { return bats_[c]->tail(); }

std::string ResultSet::ToText() const {
  // Byte-identical to the rendering sql.exportResult streams into
  // Context::out.
  std::string out;
  if (descs_.empty()) return out;
  for (size_t c = 0; c < descs_.size(); ++c) {
    if (c > 0) out += "\t";
    out += descs_[c].table + "." + descs_[c].name;
  }
  out += "\n";
  const size_t rows = num_rows();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < descs_.size(); ++c) {
      if (c > 0) out += "\t";
      out += bats_[c]->tail()->GetValue(r).ToString();
    }
    out += "\n";
  }
  return out;
}

// ===========================================================================
// QueryState / QueryHandle
// ===========================================================================

namespace internal {

void QueryState::Finish(Result<QueryResult> r) {
  {
    std::lock_guard<std::mutex> lock(mu);
    outcome = std::move(r);
    done = true;
  }
  cv.notify_all();
}

}  // namespace internal

Result<QueryResult> QueryHandle::Wait() {
  if (state_ == nullptr) return Status::InvalidArgument("empty query handle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->outcome;
}

bool QueryHandle::TryWait(Result<QueryResult>* out) {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->done) return false;
  if (out != nullptr) *out = state_->outcome;
  return true;
}

bool QueryHandle::WaitFor(std::chrono::steady_clock::duration d,
                          Result<QueryResult>* out) {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  if (!state_->cv.wait_for(lock, d, [this] { return state_->done; })) return false;
  if (out != nullptr) *out = state_->outcome;
  return true;
}

void QueryHandle::Cancel() {
  if (state_ == nullptr) return;
  state_->cancel.Cancel();
  // Wake any pin() blocked on the ring *after* the flag is visible, so the
  // woken session observes the cancellation.
  if (state_->wake_pins) state_->wake_pins();
}

// ===========================================================================
// Session — thin forwarding onto the owning cluster.
// ===========================================================================

Result<PreparedQueryPtr> Session::Prepare(const std::string& text,
                                          const PrepareOptions& options) {
  return cluster_->Prepare(text, options);
}

Result<QueryHandle> Session::Submit(const PreparedQueryPtr& prepared,
                                    const SubmitOptions& options) {
  return cluster_->Submit(node_, prepared, options);
}

Result<QueryHandle> Session::Submit(const std::string& text,
                                    const SubmitOptions& options,
                                    const PrepareOptions& prepare) {
  DCY_ASSIGN_OR_RETURN(PreparedQueryPtr prepared, Prepare(text, prepare));
  return Submit(prepared, options);
}

Result<QueryResult> Session::Execute(const PreparedQueryPtr& prepared,
                                     const SubmitOptions& options) {
  const RetryPolicy& retry = options.retry;
  const uint32_t attempts = std::max<uint32_t>(1, retry.max_attempts);
  Rng jitter_rng(retry.seed);
  std::chrono::milliseconds backoff = retry.initial_backoff;
  Result<QueryResult> last{Status(StatusCode::kUnknown, "never attempted")};
  for (uint32_t attempt = 1; attempt <= attempts; ++attempt) {
    auto submitted = Submit(prepared, options);
    last = submitted.ok() ? submitted->Wait() : Result<QueryResult>(submitted.status());
    if (last.ok()) {
      last->attempts = attempt;
      return last;
    }
    if (attempt == attempts || !RetryPolicy::Retryable(last.status().code())) break;
    // Jittered exponential backoff between attempts, so a burst of shed
    // queries does not stampede the recovering ring in lockstep.
    const double scale = 1.0 + retry.jitter * (2.0 * jitter_rng.NextDouble() - 1.0);
    const auto delay = std::chrono::duration_cast<std::chrono::milliseconds>(
        backoff * std::max(0.0, scale));
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    backoff = std::min(
        retry.max_backoff,
        std::chrono::milliseconds(static_cast<int64_t>(
            static_cast<double>(backoff.count()) * std::max(1.0, retry.multiplier))));
  }
  return last;
}

Result<QueryResult> Session::Execute(const std::string& text,
                                     const SubmitOptions& options,
                                     const PrepareOptions& prepare) {
  // Through the prepared-plan overload, so options.retry applies to text
  // submissions too instead of silently taking the single-shot path.
  DCY_ASSIGN_OR_RETURN(PreparedQueryPtr prepared, Prepare(text, prepare));
  return Execute(prepared, options);
}

}  // namespace dcy::runtime
