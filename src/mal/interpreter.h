// MAL plan execution: a builtin registry (sql.*, algebra.*, bat.*, aggr.*,
// group.*, batcalc.*, io.*, datacyclotron.*), a sequential interpreter, and
// a dataflow interpreter that runs independent instructions on a worker
// pool ("The MAL plan is executed using concurrent interpreter threads
// following the dataflow dependencies", paper §4.1).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bat/fragment_source.h"
#include "common/status.h"
#include "mal/program.h"
#include "mal/value.h"

namespace dcy::mal {

/// \brief Cooperative cancellation for one query execution. The interpreter
/// polls it between instructions; blocking builtins (datacyclotron.pin) use
/// the deadline for bounded waits and are woken by the embedder on Cancel().
///
/// Thread-safety: Cancel()/cancelled() are safe from any thread at any time.
/// The deadline is set once before execution starts (publication through the
/// submit path) and is read-only afterwards.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// Absolute execution deadline; time_point::max() (the default) disables it.
  void set_deadline(std::chrono::steady_clock::time_point d) { deadline_ = d; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }
  bool has_deadline() const {
    return deadline_ != std::chrono::steady_clock::time_point::max();
  }
  bool expired() const {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline_;
  }

  /// OK while the query may keep running; Aborted after Cancel(), TimedOut
  /// past the deadline.
  Status CheckLive() const {
    if (cancelled()) return Status::Aborted("query cancelled");
    if (expired()) return Status::TimedOut("query deadline expired");
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
};

/// \brief Capture sink for sql.exportResult: the builtin stores the exported
/// result set here (in addition to rendering into Context::out when bound),
/// so embedders get typed columns instead of re-parsing printed text.
/// Contract: one result set per plan — a plan calling sql.exportResult more
/// than once surfaces only the last export here (Context::out still receives
/// every rendering).
struct ExportSink {
  std::mutex mu;        ///< dataflow workers may export concurrently
  ResultSetPtr result;  ///< last exported result set (null = none yet)
};

/// \brief The Data Cyclotron integration surface of the interpreter: the
/// three calls the DcOptimizer injects (§4.1). The live runtime implements
/// this against its DcNode; plans executed locally leave it null and use
/// sql.bind directly.
class DcHooks {
 public:
  virtual ~DcHooks() = default;

  /// datacyclotron.request(schema, table, column, kind) -> handle.
  virtual Result<RequestHandle> Request(const std::string& schema, const std::string& table,
                                        const std::string& column, int64_t kind) = 0;
  /// datacyclotron.pin(handle) -> BAT; may block until the fragment passes.
  virtual Result<bat::BatPtr> Pin(const RequestHandle& handle) = 0;
  /// datacyclotron.unpin(pinned BAT or handle).
  virtual Status Unpin(const Datum& pinned) = 0;
};

/// \brief The write-path integration surface (ISSUE-9): the three builtins
/// SQL INSERT/DELETE compile to. The live runtime implements this against
/// the cluster WriteLog; executions without one reject writes with
/// FailedPrecondition. Implementations must be safe for concurrent calls
/// (dataflow workers buffer columns in parallel).
class WriteHooks {
 public:
  virtual ~WriteHooks() = default;

  /// sql.wappend(schema, table, column, v...): buffers one column of an
  /// INSERT statement. Returns a dataflow token chaining into sql.wcommit.
  virtual Result<int64_t> BufferColumn(const std::string& qualified_table,
                                       const std::string& column,
                                       std::vector<bat::Value> values) = 0;
  /// sql.wcommit(schema, table, nrows, tokens...): atomically commits every
  /// buffered column of `qualified_table` as one versioned write. Returns
  /// the number of rows inserted.
  virtual Result<int64_t> CommitInsert(const std::string& qualified_table,
                                       int64_t expected_rows) = 0;
  /// sql.wdelete(schema, table, positions): deletes the rows at the given
  /// positions (a mirror BAT of qualifying offsets into the query-snapshot
  /// view). Returns the number of rows deleted.
  virtual Result<int64_t> DeleteAt(const std::string& qualified_table,
                                   const bat::BatPtr& positions) = 0;
};

/// \brief Everything builtins may touch during execution.
struct Context {
  bat::FragmentSource* catalog = nullptr;  ///< local persistent BATs (sql.bind)
  DcHooks* dc = nullptr;               ///< ring integration; null = local-only
  WriteHooks* writer = nullptr;        ///< write path; null = read-only
  std::ostream* out = nullptr;         ///< io.stdout sink (null = discard)
  ExportSink* exported = nullptr;      ///< typed result capture (null = off)
};

using BuiltinFn = std::function<Result<Datum>(Context&, std::vector<Datum>&)>;

/// \brief Name -> builtin map. `Global()` holds every standard operator.
class Registry {
 public:
  void Register(const std::string& full_name, BuiltinFn fn);
  const BuiltinFn* Find(const std::string& full_name) const;
  std::vector<std::string> Names() const;

  /// The process-wide registry with all standard builtins installed.
  static const Registry& Global();

 private:
  std::map<std::string, BuiltinFn> fns_;
};

/// \brief Per-execution options: dataflow width, cooperative cancellation,
/// and parameter bindings for prepared plans.
struct ExecOptions {
  /// Instructions executing concurrently; <= 1 runs sequentially inline.
  size_t workers = 1;
  /// Polled between instructions; a tripped token fails the query with
  /// Aborted (Cancel) or TimedOut (deadline). Null = never stops.
  const CancelToken* cancel = nullptr;
  /// Initial variable bindings: a prepared plan may reference variables it
  /// never assigns (query parameters); they are seeded from here before the
  /// first instruction runs. Null = no parameters.
  const std::unordered_map<std::string, Datum>* params = nullptr;
};

/// \brief Executes parsed programs.
class Interpreter {
 public:
  Interpreter(const Registry* registry, Context context)
      : registry_(registry), context_(context) {}

  /// Runs `program` under `options` (sequentially for workers <= 1, else
  /// with dataflow parallelism). Returns the value of the last assigned
  /// variable (or nil).
  Result<Datum> Execute(const Program& program, const ExecOptions& options);

  /// Runs instructions in order (Execute with default options).
  Result<Datum> Run(const Program& program);

  /// Runs with dataflow parallelism: up to `workers` instructions execute
  /// concurrently as tasks on the process-wide exec::Executor (the calling
  /// thread participates; no threads are created per query). Blocking pin()
  /// calls occupy only their task slot — the executor backfills the blocked
  /// capacity from its reserve pool. Falls back to sequential for
  /// workers <= 1.
  Result<Datum> RunDataflow(const Program& program, size_t workers);

  /// Variable bindings after the last Run (for tests/inspection).
  const std::unordered_map<std::string, Datum>& variables() const { return vars_; }

 private:
  Result<Datum> RunSequential(const Program& program, const ExecOptions& options);
  Result<Datum> RunParallel(const Program& program, const ExecOptions& options);
  Result<Datum> ExecInstruction(const Instruction& ins,
                                std::unordered_map<std::string, Datum>* vars);

  const Registry* registry_;
  Context context_;
  std::unordered_map<std::string, Datum> vars_;
};

/// Builds the dataflow dependency lists for a program: deps[i] = indices of
/// instructions that must complete before instruction i (producer edges,
/// pseudo-write edges for void calls, and anti-dependencies for unpin).
std::vector<std::vector<size_t>> BuildDependencies(const Program& program);

}  // namespace dcy::mal
