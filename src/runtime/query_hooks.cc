#include "runtime/query_hooks.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/ring_cluster.h"
#include "runtime/ring_node.h"

namespace dcy::runtime {

namespace {

/// The datacyclotron.* builtins of one query execution.
class SessionHooks final : public mal::DcHooks {
 public:
  SessionHooks(RingNode* node, core::QueryId query, const mal::CancelToken* cancel,
               uint64_t snapshot)
      : node_(node), log_(&node->cluster()->write_log()), query_(query), cancel_(cancel),
        snapshot_(snapshot) {}

  ~SessionHooks() override {
    // Release everything the plan failed to unpin (aborted / cancelled /
    // timed-out executions): delivered pins drop their cache reference and
    // bare requests retire their S2 entry, so a dead query leaks neither
    // memory nor fragment requests that would keep BATs hot.
    for (const core::BatId bat : requested_) {
      node_->Post([node = node_, q = query_, bat] { node->dc().Unpin(q, bat); });
    }
  }

  /// Summed wall time the plan's pins spent blocked on the ring.
  double blocked_seconds() const {
    return static_cast<double>(blocked_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

  Result<mal::RequestHandle> Request(const std::string& schema, const std::string& table,
                                     const std::string& column, int64_t) override {
    const std::string name = schema + "." + table + "." + column;
    DCY_ASSIGN_OR_RETURN(core::BatId bat, log_->FindFragment(name));
    {
      std::lock_guard<std::mutex> lock(mu_);
      requested_.insert(bat);
    }
    node_->Post([node = node_, q = query_, bat] { node->dc().Request(q, bat); });
    return mal::RequestHandle{bat};
  }

  Result<bat::BatPtr> Pin(const mal::RequestHandle& handle) override {
    const core::BatId bat = handle.bat;
    if (cancel_ != nullptr) DCY_RETURN_NOT_OK(cancel_->CheckLive());
    {
      // Defensive pin-without-request still owes an unpin at teardown.
      std::lock_guard<std::mutex> lock(mu_);
      requested_.insert(bat);
    }
    // Register the waiter *before* pinning so a delivery racing the pin
    // cannot be missed.
    auto future = node_->AddWaiter(query_, bat);
    bool owned = false;
    node_->PostSync([&, this] {
      if (!node_->dc().Pin(query_, bat)) return;  // blocked on the ring
      owned = node_->dc().owned().Find(bat) != nullptr;
      // Not owned but available now: the store holds the copy the protocol
      // cache pins, and the waiter resolves from it.
      if (!owned) node_->DeliverToQuery(query_, bat);
    });
    bat::BatPtr value;
    if (owned) {
      // An owner's pin reads the write log's base, the fragment's only home.
      node_->RemoveWaiter(query_, bat);
      DCY_ASSIGN_OR_RETURN(write::FragmentRecord record, log_->Fragment(bat));
      value = std::move(record.base);
    } else {
      // Resolved already from the store's copy, or blocked until the
      // fragment flows by — or the query is cancelled or runs past its
      // deadline. Cancellation protocol: Cancel() sets the
      // token *then* aborts this query's waiters, and we re-check the token
      // only after registering the waiter, so one side always fires.
      const auto blocked_at = std::chrono::steady_clock::now();
      if (cancel_ != nullptr) {
        if (cancel_->cancelled()) {
          node_->ResolveWaiter(query_, bat, Status::Aborted("query cancelled"));
        } else if (cancel_->has_deadline() &&
                   future.wait_until(cancel_->deadline()) != std::future_status::ready) {
          node_->ResolveWaiter(query_, bat, cancel_->CheckLive());
        }
      }
      auto delivered = future.get();  // blocks until resolved either way
      blocked_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - blocked_at)
              .count(),
          std::memory_order_relaxed);
      if (!delivered.ok()) return delivered.status();
      value = *delivered;
    }
    // Versioned read: resolve the pinned payload into this query's snapshot
    // view. For unwritten tables this is one relaxed atomic and returns
    // `value` untouched; for written tables the log serves a merged view with
    // fresh columns (base + applicable deltas), ignoring whatever stale base
    // version the ring copy happened to carry.
    {
      auto view = log_->ResolveView(bat, value, snapshot_);
      if (!view.ok()) return view.status();
      value = std::move(view).value();
    }
    {
      // Dataflow workers pin concurrently; the bookkeeping maps need a lock.
      std::lock_guard<std::mutex> lock(mu_);
      pinned_[bat] = value;
      by_pointer_[value.get()] = bat;
    }
    return value;
  }

  Status Unpin(const mal::Datum& pinned) override {
    core::BatId bat = core::kInvalidBat;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto* h = std::get_if<mal::RequestHandle>(&pinned)) {
        bat = h->bat;
      } else if (const auto* b = std::get_if<bat::BatPtr>(&pinned)) {
        auto it = by_pointer_.find(b->get());
        if (it == by_pointer_.end()) {
          return Status::InvalidArgument("unpin of a BAT this query never pinned");
        }
        bat = it->second;
        by_pointer_.erase(it);
      } else {
        return Status::InvalidArgument("unpin expects a BAT or request handle");
      }
      pinned_.erase(bat);
      requested_.erase(bat);  // fully released: nothing left for teardown
    }
    node_->Post([node = node_, q = query_, bat] { node->dc().Unpin(q, bat); });
    return Status::OK();
  }

 private:
  RingNode* node_;
  write::WriteLog* log_;
  core::QueryId query_;
  const mal::CancelToken* cancel_;
  const uint64_t snapshot_;  ///< commit version every pin resolves at
  std::atomic<int64_t> blocked_ns_{0};
  std::mutex mu_;  ///< guards pinned_/by_pointer_/requested_ across workers
  std::unordered_map<core::BatId, bat::BatPtr> pinned_;
  std::unordered_map<const bat::Bat*, core::BatId> by_pointer_;
  std::set<core::BatId> requested_;  ///< every fragment this query touched
};

/// The sql.wappend / sql.wcommit / sql.wdelete hooks of one query execution:
/// columns buffer locally and commits go to the cluster write log, the single
/// commit authority that every later pin resolves through. Thread-safe: an
/// INSERT plan's wappend instructions run on concurrent dataflow workers.
class QueryWriteHooks final : public mal::WriteHooks {
 public:
  QueryWriteHooks(write::WriteLog* log, uint64_t snapshot)
      : log_(log), snapshot_(snapshot) {}

  Result<int64_t> BufferColumn(const std::string& table, const std::string& column,
                               std::vector<bat::Value> values) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto& cols = staged_[table];
    for (const auto& [name, unused] : cols) {
      if (name == column) {
        return Status::InvalidArgument("column \"" + column +
                                       "\" buffered twice in one INSERT");
      }
    }
    cols.emplace_back(column, std::move(values));
    return static_cast<int64_t>(cols.size());
  }

  Result<int64_t> CommitInsert(const std::string& table, int64_t expected_rows) override {
    std::vector<std::pair<std::string, std::vector<bat::Value>>> cols;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = staged_.find(table);
      if (it == staged_.end()) {
        return Status::FailedPrecondition("sql.wcommit without buffered columns for " +
                                          table);
      }
      cols = std::move(it->second);
      staged_.erase(it);
    }
    for (const auto& [name, values] : cols) {
      if (static_cast<int64_t>(values.size()) != expected_rows) {
        return Status::InvalidArgument(
            "column \"" + name + "\" buffered " + std::to_string(values.size()) +
            " value(s), statement inserts " + std::to_string(expected_rows) + " row(s)");
      }
    }
    DCY_ASSIGN_OR_RETURN(write::CommitResult cr, log_->CommitInsert(table, cols));
    NoteCommit(cr.version);
    return cr.rows;
  }

  Result<int64_t> DeleteAt(const std::string& table,
                           const bat::BatPtr& positions) override {
    // The mirror BAT's tail enumerates qualifying offsets into this query's
    // snapshot view — exactly the coordinate space CommitDeleteAt expects.
    const bat::Column& tail = *positions->tail();
    std::vector<uint64_t> offsets;
    offsets.reserve(tail.size());
    for (size_t i = 0; i < tail.size(); ++i) {
      offsets.push_back(static_cast<uint64_t>(tail.GetInt64(i)));
    }
    DCY_ASSIGN_OR_RETURN(write::CommitResult cr,
                         log_->CommitDeleteAt(table, offsets, snapshot_));
    NoteCommit(cr.version);
    return cr.rows;
  }

  /// Highest version this query committed (0 = read-only).
  uint64_t commit_version() const {
    return commit_version_.load(std::memory_order_relaxed);
  }

 private:
  void NoteCommit(uint64_t version) {
    uint64_t seen = commit_version_.load(std::memory_order_relaxed);
    while (seen < version &&
           !commit_version_.compare_exchange_weak(seen, version,
                                                  std::memory_order_relaxed)) {
    }
  }

  write::WriteLog* log_;
  const uint64_t snapshot_;
  std::atomic<uint64_t> commit_version_{0};
  std::mutex mu_;
  /// Per table: wappend-buffered columns awaiting the statement's wcommit.
  std::map<std::string, std::vector<std::pair<std::string, std::vector<bat::Value>>>>
      staged_;
};

}  // namespace

Result<QueryResult> RunQuery(RingNode* node, const PreparedQuery& plan,
                             internal::QueryState* state, const SubmitOptions& options) {
  write::WriteLog& log = node->cluster()->write_log();
  QueryResult qr;
  qr.query_id = state->id;

  // Version-at-prepare: pin one commit version for the whole execution, so
  // every fragment view this query resolves belongs to the same snapshot and
  // folds cannot slide bases out from under it.
  uint64_t snapshot = 0;
  if (!options.snapshot_version.has_value()) {
    snapshot = log.AcquireSnapshot();
  } else {
    DCY_ASSIGN_OR_RETURN(snapshot, log.AcquireSnapshotAt(*options.snapshot_version));
  }
  struct SnapshotRelease {
    write::WriteLog* log;
    uint64_t v;
    ~SnapshotRelease() { log->ReleaseSnapshot(v); }
  } snapshot_release{&log, snapshot};
  qr.snapshot_version = snapshot;

  mal::ExportSink exported;
  SessionHooks hooks(node, state->id, &state->cancel, snapshot);
  QueryWriteHooks write_hooks(&log, snapshot);
  // No ctx.catalog: a DC-optimized plan has no sql.bind left, so every read
  // is a pin resolved through the write log (SessionHooks::Pin).
  mal::Context ctx;
  ctx.dc = &hooks;
  ctx.writer = &write_hooks;
  ctx.out = nullptr;  // results are captured typed, not printed
  ctx.exported = &exported;

  mal::ExecOptions eopts;
  eopts.workers = node->cluster()->options().plan_workers;
  eopts.cancel = &state->cancel;
  eopts.params = options.params.empty() ? nullptr : &options.params;

  const auto start = std::chrono::steady_clock::now();
  mal::Interpreter interp(&mal::Registry::Global(), ctx);
  auto result = interp.Execute(plan.program(), eopts);
  qr.timing.exec_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  qr.timing.pin_blocked_seconds = hooks.blocked_seconds();
  qr.commit_version = write_hooks.commit_version();
  if (!result.ok()) return result.status();

  mal::ResultSetPtr table;
  {
    std::lock_guard<std::mutex> lock(exported.mu);
    table = exported.result;
  }
  qr.result = ResultSet::Build(table, std::move(result).value());
  return qr;
}

}  // namespace dcy::runtime
