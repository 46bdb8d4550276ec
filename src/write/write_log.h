// The versioned write subsystem of the ring: a cluster-level commit log plus
// the fold (compaction) machinery.
//
// Model. Every writable table is a set of base fragments (one per column)
// that fold up to a `base_version`, plus a list of pending commits under
// monotone commit versions. A commit stores its row ids once for the whole
// table and one column of appended values per table column (the fragment's
// delta; empty for a delete). Readers run at a snapshot version acquired at
// query start (version-at-prepare): the view of a fragment at snapshot S is
//
//     base rows surviving every delete with version <= S
//  ++ insert rows with version <= S surviving every delete with version <= S
//
// Rows carry stable row ids, so deletes commute with folds and the
// enumeration order (base order, then insert order) is identical across the
// columns of a table — the planner's positional-alignment invariant holds
// for merged views. Merges always build fresh bat::Column objects: the
// IsSorted() memoization and the zero-copy serialization path never observe
// a mutation.
//
// The log is the only way a commit reaches readers. The ring (paper §4)
// circulates base fragments and nothing else; every pin resolves the
// fragment it pinned through ResolveView at the query's snapshot. Folding is
// atomic per table and bounded by the minimum active snapshot, so a running
// query never sees a torn mix of old and new bases.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bat/bat.h"
#include "common/status.h"
#include "common/units.h"
#include "core/types.h"

namespace dcy::write {

/// \brief Compactor tunables (RingCluster::Options::compaction; the PR 8
/// ResilienceOptions pattern).
struct CompactionOptions {
  /// A table folds once it has this many pending deltas (commits touching
  /// it), once any of its fragments accumulates 256 KiB of pending delta
  /// bytes, or once its newest pending delta is unchanged between two
  /// compactor scans (the idle drain: without it a short tail would sit
  /// unfolded forever once writers go quiet).
  uint64_t max_delta_count = 64;
  /// Cadence of the cluster's background compactor thread (one scan each;
  /// the first scan comes one interval after RingCluster::Start).
  SimTime interval = FromMillis(25);
};

/// \brief Counters of the write subsystem (RingCluster::Writes()).
struct WriteMetrics {
  uint64_t commits = 0;
  uint64_t rows_inserted = 0;
  uint64_t rows_deleted = 0;
  uint64_t deltas_published = 0;  ///< fragment deltas committed (columns per commit)
  uint64_t deltas_merged = 0;     ///< delta applications into pin-time views
  uint64_t deltas_folded = 0;     ///< deltas retired into new bases
  uint64_t merges = 0;            ///< merged views built
  uint64_t merge_cache_hits = 0;  ///< views served from the per-fragment cache
  double merge_seconds = 0.0;     ///< time spent building merged views
  uint64_t compactions = 0;
  uint64_t compactions_abandoned = 0;  ///< folds dropped (owner died mid-fold)
  uint64_t snapshots_rejected = 0;     ///< reads under a folded-away snapshot
  // Gauges.
  uint64_t current_version = 0;
  uint64_t pending_deltas = 0;
  uint64_t pending_delta_bytes = 0;
};

/// \brief Outcome of one committed write statement.
struct CommitResult {
  uint64_t version = 0;  ///< commit version (readers at >= version see it)
  int64_t rows = 0;      ///< rows inserted/deleted
};

/// \brief One folded table and its new base fragments.
struct FoldResult {
  std::string table;
  uint64_t new_version = 0;  ///< base_version after the fold
  uint64_t deltas_folded = 0;
  /// (fragment id, qualified name, new base payload), column order.
  std::vector<std::tuple<core::BatId, std::string, bat::BatPtr>> rebased;
};

/// \brief One registered fragment as the log records it: the cluster's only
/// record of its qualified name and of its durable payload (whose tail type
/// is the column's).
struct FragmentRecord {
  std::string name;  ///< qualified "schema.table.column"
  bat::BatPtr base;  ///< the payload at the table's base version
};

/// \brief Per-table observability row (dcsql \tables, tests).
struct TableVersionInfo {
  std::string table;  ///< qualified ("sys.lineitem")
  uint64_t base_version = 0;
  uint64_t current_version = 0;  ///< latest commit touching this table
  uint64_t pending_deltas = 0;   ///< pending commits * columns
  uint64_t pending_delta_bytes = 0;
};

/// \brief The cluster-level write log, and the fragment directory: every
/// fragment's qualified name, tail type and durable payload live here and
/// nowhere else (a fold replaces the payload). Thread-safe; every mutation
/// happens under one internal mutex (writes are orders of magnitude rarer
/// than reads, and the read path short-circuits via an atomic when the
/// cluster has never committed a write).
class WriteLog {
 public:
  /// Registers a base fragment at version 0. Fragments of one table must be
  /// registered with equal row counts (column-store invariant); a qualified
  /// name registers once (AlreadyExists).
  Status RegisterFragment(core::BatId id, const std::string& table,
                          const std::string& column, bat::BatPtr base);

  // ---- the fragment directory -----------------------------------------------

  /// The id registered for "schema.table.column"; NotFound otherwise.
  Result<core::BatId> FindFragment(const std::string& name) const;
  /// The name and current base payload of fragment `id`; NotFound otherwise.
  Result<FragmentRecord> Fragment(core::BatId id) const;
  /// Tail type per qualified name, sorted by name (the SQL schema's source).
  std::map<std::string, bat::ValType> ColumnTypes() const;

  // ---- commits --------------------------------------------------------------

  /// Commits one INSERT of `rows` full rows. `columns` names every column of
  /// `table` exactly once (any order); row values are coerced to the column
  /// types (int widens to double; strings never coerce).
  Result<CommitResult> CommitInsert(
      const std::string& table,
      const std::vector<std::pair<std::string, std::vector<bat::Value>>>& columns);

  /// Commits one DELETE of the rows at `positions` (0-based offsets into the
  /// table's merged view at `snapshot`). Rows already deleted by a
  /// concurrent later commit are skipped, not failed.
  Result<CommitResult> CommitDeleteAt(const std::string& table,
                                      const std::vector<uint64_t>& positions,
                                      uint64_t snapshot);

  // ---- snapshots ------------------------------------------------------------

  /// Current version + refcount: folds never pass an active snapshot.
  uint64_t AcquireSnapshot();
  /// Refcounts a caller-chosen (paper: version-at-prepare) snapshot; fails
  /// when `v` is ahead of the current version.
  Result<uint64_t> AcquireSnapshotAt(uint64_t v);
  void ReleaseSnapshot(uint64_t v);
  uint64_t CurrentVersion() const;

  // ---- the read path --------------------------------------------------------

  /// Resolves the view of `fragment` at `snapshot`. Returns `pinned`
  /// untouched when the fragment's table has no writes at or before the
  /// snapshot (the read-only fast path costs one relaxed atomic load).
  /// Otherwise builds (or serves from the per-fragment cache) a merged view
  /// with fresh columns. FailedPrecondition when `snapshot` predates the
  /// folded base (the caller held no snapshot pin across the fold).
  Result<bat::BatPtr> ResolveView(core::BatId fragment, const bat::BatPtr& pinned,
                                  uint64_t snapshot);

  // ---- folding (background compactor) ---------------------------------------

  /// Tables whose pending deltas crossed the thresholds — or sat idle for a
  /// full scan (the idle drain, see CompactionOptions) — by first-fragment id
  /// (the runtime maps that to the owning node).
  std::vector<std::pair<std::string, core::BatId>> TablesReadyToFold(
      const CompactionOptions& opts);

  /// Folds every commit with version <= min(active snapshots, current) into
  /// new base fragments for `table`. `commit_guard` (may be null) runs under
  /// the log lock immediately before the fold becomes visible; returning
  /// false abandons it (Aborted) with the log untouched — the runtime uses
  /// this to drop folds whose owner node died mid-compaction. Returns OK
  /// with an empty FoldResult::rebased when there was nothing to fold.
  Result<FoldResult> FoldTable(const std::string& table,
                               const std::function<bool()>& commit_guard);

  /// Test-only: invoked after a fold's merge work, before its commit (the
  /// chaos suite uses it to crash the compacting node mid-fold).
  void SetFoldHookForTest(std::function<void(const std::string&)> hook);

  // ---- observability --------------------------------------------------------

  WriteMetrics Metrics() const;
  std::vector<TableVersionInfo> TableVersions() const;
  /// True once any write committed (the read fast path's condition).
  bool HasWrites() const { return commit_count_.load(std::memory_order_relaxed) > 0; }

 private:
  struct FragmentState {
    core::BatId id = core::kInvalidBat;
    std::string name;  ///< qualified "schema.table.column"
    bat::BatPtr base;
    /// Merged-view cache: the view at effective version `cache_version`
    /// (the last commit <= the reader's snapshot), invalidated by folds.
    uint64_t cache_version = 0;
    bat::BatPtr cache_view;
  };

  struct Commit {
    uint64_t version = 0;
    /// Per column of the table (registration order); never null, size 0 for
    /// delete-only commits.
    std::vector<bat::ColumnPtr> inserts;
    std::shared_ptr<const std::vector<uint64_t>> insert_row_ids;
    std::shared_ptr<const std::vector<uint64_t>> deletes;
    uint64_t max_column_bytes = 0;  ///< widest column's delta payload
  };

  struct TableState {
    std::vector<FragmentState> columns;  ///< registration order
    uint64_t base_version = 0;
    uint64_t base_rows = 0;
    std::vector<uint64_t> base_row_ids;  ///< strictly increasing
    uint64_t next_row_id = 0;
    std::vector<Commit> pending;  ///< version-ascending
    /// Row ids deleted by any pending commit (duplicate-delete filter).
    std::unordered_set<uint64_t> deleted;
    bool folding = false;
    /// Newest pending version at the last compactor scan (idle-drain mark).
    uint64_t idle_mark = 0;
  };

  /// Enumerates the row ids of `t`'s view at `snapshot` (base then inserts,
  /// deletes <= snapshot applied). Callers hold mu_.
  std::vector<uint64_t> ViewRowIdsLocked(const TableState& t, uint64_t snapshot) const;
  uint64_t MinActiveSnapshotLocked() const;
  TableState* FindTableLocked(const std::string& table);
  const FragmentState* FindFragmentLocked(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, TableState, std::less<>> tables_;
  std::unordered_map<core::BatId, std::pair<std::string, size_t>> fragment_index_;
  uint64_t version_ = 0;
  std::map<uint64_t, uint32_t> active_snapshots_;
  std::function<void(const std::string&)> fold_hook_;

  std::atomic<uint64_t> commit_count_{0};

  WriteMetrics metrics_;  ///< guarded by mu_
};

}  // namespace dcy::write
