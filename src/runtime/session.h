// The client-facing query API of the live Data Cyclotron runtime (ISSUE-4):
//
//   Session   — opened against one node of the RingCluster; the unit the
//               node's admission control counts.
//   Prepare   — parse + DcOptimize once; the PreparedQuery is immutable and
//               reusable across executions and across sessions (RingCluster
//               keeps a shared plan cache keyed by opt::PlanCacheKey).
//   Submit    — asynchronous: the query enters the node's FIFO admission
//               queue and the caller gets a QueryHandle with Wait()/
//               TryWait(), a deadline, and cooperative Cancel() that
//               unblocks a session stuck in datacyclotron.pin.
//   ResultSet — named, typed columns (span/row accessors) plus the plan's
//               final scalar, and a tab-separated text rendering.
//
// Lifetimes: Session, PreparedQuery and QueryHandle must not outlive the
// RingCluster that produced them.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bat/bat.h"
#include "common/parse_error.h"
#include "common/status.h"
#include "core/types.h"
#include "mal/interpreter.h"
#include "mal/program.h"
#include "mal/value.h"

namespace dcy::runtime {

class RingCluster;

/// \brief Source language of a query text handed to Prepare/Submit/Execute.
enum class Language {
  kMAL,   ///< hand-written MAL, parsed by mal::ParseProgram
  kSQL,   ///< a SQL statement (SELECT, INSERT, or DELETE), compiled by
          ///< sql::Compile against the schema of the BATs registered via
          ///< RingCluster::LoadBat
  kAuto,  ///< detect: texts whose first word is SELECT, INSERT, or DELETE
          ///< are SQL, else MAL
};

/// \brief Options for Prepare (and the string overloads of Submit/Execute,
/// which prepare internally).
struct PrepareOptions {
  Language language = Language::kAuto;
  /// Consult/populate the cluster's shared plan cache.
  bool use_cache = true;
  /// Optional out-param: on a parse or semantic error in either language,
  /// receives the structured diagnostic (line, column, token, caret snippet).
  ParseError* parse_error = nullptr;
};

/// \brief Typed result table of one query: the columns the plan exported via
/// sql.resultSet/sql.rsCol plus the plan's final value (aggregate plans
/// produce a scalar and no table). Plans are expected to export at most one
/// result set; a plan exporting several surfaces only the last.
class ResultSet {
 public:
  struct ColumnDesc {
    std::string table;      ///< qualified table ("sys.c")
    std::string name;       ///< column name ("t_id")
    std::string decl_type;  ///< declared SQL type string from the plan
    bat::ValType type = bat::ValType::kLng;  ///< physical value type
  };

  ResultSet() = default;

  /// Builds from the interpreter's export capture + final datum.
  static ResultSet Build(const mal::ResultSetPtr& exported, mal::Datum last);

  size_t num_columns() const { return descs_.size(); }
  /// Rows of the exported table; 0 for scalar-only results.
  size_t num_rows() const;
  bool has_table() const { return !descs_.empty(); }

  const ColumnDesc& column(size_t c) const { return descs_[c]; }
  /// Index of the column whose "name" or "table.name" matches; -1 if absent.
  int FindColumn(std::string_view name) const;

  /// The value column (BAT tail) backing column `c`.
  const bat::ColumnPtr& values(size_t c) const;
  /// Typed span over column `c`'s payload; empty for dense/string columns
  /// (use StringAt / ValueAt for those). T must match the physical width.
  template <typename T>
  bat::Span<T> FixedValues(size_t c) const {
    return values(c)->FixedData<T>();
  }

  // Row accessors.
  bat::Value ValueAt(size_t row, size_t c) const { return values(c)->GetValue(row); }
  int64_t Int64At(size_t row, size_t c) const { return values(c)->GetInt64(row); }
  double DoubleAt(size_t row, size_t c) const { return values(c)->GetDouble(row); }
  std::string_view StringAt(size_t row, size_t c) const {
    return values(c)->GetString(row);
  }

  /// The plan's last assigned value: the scalar of aggregate plans (int64,
  /// double, ...), or whatever the final instruction produced.
  const mal::Datum& scalar() const { return scalar_; }

  /// Tab-separated rendering ("table.name" header + rows), byte-identical to
  /// what sql.exportResult prints into mal::Context::out.
  std::string ToText() const;

 private:
  std::vector<ColumnDesc> descs_;
  std::vector<bat::BatPtr> bats_;  ///< per column; values live in the tail
  mal::Datum scalar_;
};

/// \brief Wall-clock timings of one query, std::chrono::steady_clock end to
/// end. exec_seconds is interpreter wall time, pin waits included.
/// pin_blocked_seconds is the sum of time the plan's datacyclotron.pin calls
/// spent blocked waiting for fragments; concurrent pins add up, so it can
/// exceed exec_seconds, and exec minus pins is not a compute time.
struct QueryTiming {
  double wall_seconds = 0.0;         ///< Submit() -> terminal state
  double queued_seconds = 0.0;       ///< waiting in the admission queue
  double exec_seconds = 0.0;         ///< interpreter execution, pins included
  double pin_blocked_seconds = 0.0;  ///< summed blocked-pin wait
};

/// \brief Outcome of one successfully executed query.
struct QueryResult {
  core::QueryId query_id = 0;
  ResultSet result;
  QueryTiming timing;
  /// Position in the node's admission order (monotonic per node); FIFO
  /// admission means submissions to one node are admitted in submit order.
  uint64_t admitted_seq = 0;
  /// Submissions this result took under the RetryPolicy (1 = first try).
  uint32_t attempts = 1;
  /// Commit version this query's reads resolved at (version-at-prepare).
  uint64_t snapshot_version = 0;
  /// Highest commit version this query produced; 0 for read-only queries.
  uint64_t commit_version = 0;
};

/// \brief A parsed + DC-optimized plan, compiled once and immutable:
/// executions and sessions share it freely. Obtained from
/// RingCluster::Prepare (cached) or Session::Prepare.
class PreparedQuery {
 public:
  PreparedQuery(std::string text, std::string key, mal::Program program)
      : text_(std::move(text)), key_(std::move(key)), program_(std::move(program)) {}

  const std::string& text() const { return text_; }        ///< source text
  const std::string& cache_key() const { return key_; }    ///< opt::PlanCacheKey
  const mal::Program& program() const { return program_; }  ///< DC-optimized plan

 private:
  std::string text_;
  std::string key_;
  mal::Program program_;
};
using PreparedQueryPtr = std::shared_ptr<const PreparedQuery>;

/// \brief Opt-in client-side retry of transient failures. Applied by
/// Session::Execute only (Submit hands out one attempt's handle): a query
/// that fails with Unavailable (ring degraded, fragment owner down) or
/// ResourceExhausted (admission backpressure) is resubmitted after a
/// backoff, up to `max_attempts` total attempts. The backoff doubles per
/// attempt up to `max_backoff`, and each delay scales by 1 + 0.2*U(-1,1)
/// from a deterministic stream seeded per Execute call.
struct RetryPolicy {
  uint32_t max_attempts = 1;  ///< 1 = retries disabled
  std::chrono::milliseconds initial_backoff{2};
  std::chrono::milliseconds max_backoff{100};

  /// True for the transient failure codes worth another attempt.
  static bool Retryable(StatusCode code) {
    return code == StatusCode::kUnavailable || code == StatusCode::kResourceExhausted;
  }
};

/// \brief Per-submission options.
struct SubmitOptions {
  /// Total budget (queueing + execution); zero = unlimited. An expired query
  /// fails with TimedOut — while queued it never starts, while executing it
  /// stops cooperatively (a blocked pin wakes at the deadline).
  std::chrono::steady_clock::duration timeout{0};
  /// Parameter bindings for prepared plans: variables the plan reads but
  /// never assigns are seeded from here.
  std::unordered_map<std::string, mal::Datum> params;
  /// Transient-failure retry (Session::Execute only).
  RetryPolicy retry;
  /// Read at this commit version instead of the latest (nullopt = latest).
  /// The version must be pinned (WriteLog::AcquireSnapshot) or be at
  /// most the current version; a version the compactor already folded past
  /// fails with FailedPrecondition (not retryable).
  std::optional<uint64_t> snapshot_version;
};

namespace internal {
/// Shared state of one submitted query (runtime-internal; reachable only
/// through QueryHandle).
struct QueryState {
  core::QueryId id = 0;
  mal::CancelToken cancel;
  /// Installed by the runtime: wakes ring waiters of this query so a Cancel
  /// reliably unblocks a session stuck in datacyclotron.pin.
  std::function<void()> wake_pins;
  std::chrono::steady_clock::time_point submitted_at{};

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<QueryResult> outcome{Status(StatusCode::kUnknown, "query still pending")};

  void Finish(Result<QueryResult> r);
};
}  // namespace internal

/// \brief Handle to an asynchronously submitted query. Copyable (all copies
/// address the same execution); thread-safe.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return state_ != nullptr; }
  core::QueryId query_id() const { return state_ != nullptr ? state_->id : 0; }

  /// Blocks until the query reaches a terminal state.
  Result<QueryResult> Wait();
  /// Non-blocking poll: true iff terminal (then *out is filled when given).
  bool TryWait(Result<QueryResult>* out = nullptr);
  /// Bounded wait; true iff the query turned terminal within `d`.
  bool WaitFor(std::chrono::steady_clock::duration d, Result<QueryResult>* out = nullptr);

  /// Cooperative cancellation: a queued query never starts; an executing one
  /// stops between instructions, and a pin() blocked on the ring is woken
  /// immediately. The query then terminates with Aborted. Idempotent.
  void Cancel();

 private:
  friend class RingCluster;
  explicit QueryHandle(std::shared_ptr<internal::QueryState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::QueryState> state_;
};

/// \brief A client session against one node of the cluster: the paper's
/// per-query execution contract (§4.1) behind a prepared/async surface.
/// Lightweight and movable/copyable; concurrent Submit calls are safe.
class Session {
 public:
  core::NodeId node() const { return node_; }

  /// Compile + DcOptimize once via the cluster's shared plan cache. The
  /// text may be MAL or SQL; `options.language` selects (default: detect).
  Result<PreparedQueryPtr> Prepare(const std::string& text,
                                   const PrepareOptions& options = {});

  /// Asynchronous submission into this node's admission queue. Fails with
  /// ResourceExhausted when the queue is full (backpressure) and
  /// FailedPrecondition when the cluster is not running.
  Result<QueryHandle> Submit(const PreparedQueryPtr& prepared,
                             const SubmitOptions& options = {});
  /// Prepare (cached, language auto-detected) + Submit.
  Result<QueryHandle> Submit(const std::string& text,
                             const SubmitOptions& options = {},
                             const PrepareOptions& prepare = {});

  /// Submit + Wait, resubmitting transient failures (Unavailable /
  /// ResourceExhausted) per options.retry with jittered exponential
  /// backoff. The default policy (max_attempts = 1) never retries.
  Result<QueryResult> Execute(const PreparedQueryPtr& prepared,
                              const SubmitOptions& options = {});
  Result<QueryResult> Execute(const std::string& text,
                              const SubmitOptions& options = {},
                              const PrepareOptions& prepare = {});

 private:
  friend class RingCluster;
  Session(RingCluster* cluster, core::NodeId node) : cluster_(cluster), node_(node) {}

  RingCluster* cluster_ = nullptr;
  core::NodeId node_ = 0;
};

}  // namespace dcy::runtime
