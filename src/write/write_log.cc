#include "write/write_log.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string_view>

#include "common/logging.h"

namespace dcy::write {

namespace {

/// A table folds once any of its fragments accumulates this many pending
/// delta bytes (CompactionOptions names the other triggers).
constexpr uint64_t kMaxDeltaBytes = 256 * 1024;

/// Appends the rows of `src` whose ids are not in `dead`, batching runs of
/// survivors into bulk AppendColumnRange calls.
void AppendSurvivors(bat::ColumnBuilder* b, const bat::Column& src,
                     const std::vector<uint64_t>& ids,
                     const std::unordered_set<uint64_t>& dead) {
  size_t run_begin = 0;
  for (size_t i = 0; i <= ids.size(); ++i) {
    const bool keep = i < ids.size() && (dead.empty() || dead.count(ids[i]) == 0);
    if (keep) continue;
    if (i > run_begin) b->AppendColumnRange(src, run_begin, i - run_begin);
    run_begin = i + 1;
  }
}

}  // namespace

Status WriteLog::RegisterFragment(core::BatId id, const std::string& table,
                                  const std::string& column, bat::BatPtr base) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = table + "." + column;
  if (FindFragmentLocked(name) != nullptr) {
    return Status::AlreadyExists("fragment \"" + name + "\" is already registered");
  }
  TableState& t = tables_[table];
  if (t.columns.empty()) {
    t.base_rows = base->size();
    t.base_row_ids.resize(t.base_rows);
    for (size_t i = 0; i < t.base_rows; ++i) t.base_row_ids[i] = i;
    t.next_row_id = t.base_rows;
  } else if (base->size() != t.base_rows) {
    return Status::InvalidArgument("fragment \"" + name + "\" has " +
                                   std::to_string(base->size()) + " rows, table has " +
                                   std::to_string(t.base_rows));
  }
  FragmentState f;
  f.id = id;
  f.name = name;
  f.base = std::move(base);
  fragment_index_[id] = {table, t.columns.size()};
  t.columns.push_back(std::move(f));
  return Status::OK();
}

const WriteLog::FragmentState* WriteLog::FindFragmentLocked(
    const std::string& name) const {
  const size_t dot = name.rfind('.');
  if (dot == std::string::npos) return nullptr;
  auto it = tables_.find(std::string_view(name).substr(0, dot));
  if (it == tables_.end()) return nullptr;
  for (const FragmentState& f : it->second.columns) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Result<core::BatId> WriteLog::FindFragment(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const FragmentState* f = FindFragmentLocked(name);
  if (f == nullptr) return Status::NotFound("no fragment named " + name);
  return f->id;
}

Result<FragmentRecord> WriteLog::Fragment(core::BatId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fragment_index_.find(id);
  if (it == fragment_index_.end()) {
    return Status::NotFound("fragment " + std::to_string(id) + " is not registered");
  }
  const auto& [table, column] = it->second;
  const FragmentState& f = tables_.find(table)->second.columns[column];
  return FragmentRecord{f.name, f.base};
}

std::map<std::string, bat::ValType> WriteLog::ColumnTypes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, bat::ValType> out;
  for (const auto& [table, t] : tables_) {
    for (const FragmentState& f : t.columns) out.emplace(f.name, f.base->tail_type());
  }
  return out;
}

WriteLog::TableState* WriteLog::FindTableLocked(const std::string& table) {
  auto it = tables_.find(table);
  return it == tables_.end() || it->second.columns.empty() ? nullptr : &it->second;
}

uint64_t WriteLog::MinActiveSnapshotLocked() const {
  return active_snapshots_.empty() ? std::numeric_limits<uint64_t>::max()
                                   : active_snapshots_.begin()->first;
}

Result<CommitResult> WriteLog::CommitInsert(
    const std::string& table,
    const std::vector<std::pair<std::string, std::vector<bat::Value>>>& columns) {
  std::lock_guard<std::mutex> lock(mu_);
  TableState* t = FindTableLocked(table);
  if (t == nullptr) return Status::NotFound("unknown table \"" + table + "\"");
  if (columns.size() != t->columns.size()) {
    return Status::InvalidArgument(
        "INSERT must provide every column of \"" + table + "\" (" +
        std::to_string(t->columns.size()) + " columns, got " +
        std::to_string(columns.size()) + ")");
  }
  const size_t rows = columns.empty() ? 0 : columns.front().second.size();
  if (rows == 0) return CommitResult{version_, 0};

  // Reorder the provided columns into table registration order, coercing
  // each value to the column's physical type.
  Commit c;
  c.inserts.resize(t->columns.size());
  for (size_t ci = 0; ci < t->columns.size(); ++ci) {
    const FragmentState& f = t->columns[ci];
    const std::string col_name = f.name.substr(f.name.rfind('.') + 1);
    const std::vector<bat::Value>* values = nullptr;
    for (const auto& [name, vals] : columns) {
      if (name != col_name) continue;
      if (values != nullptr) {
        return Status::InvalidArgument("column \"" + col_name + "\" provided twice");
      }
      values = &vals;
    }
    if (values == nullptr) {
      return Status::InvalidArgument("INSERT is missing column \"" + col_name + "\"");
    }
    if (values->size() != rows) {
      return Status::InvalidArgument("INSERT rows are ragged at column \"" + col_name +
                                     "\"");
    }
    const bat::ValType target = f.base->tail_type();
    bat::ColumnBuilder b(target);
    b.Reserve(rows);
    for (const bat::Value& v : *values) {
      const bool v_str = v.type == bat::ValType::kStr;
      const bool t_str = target == bat::ValType::kStr;
      if (v_str != t_str) {
        return Status::InvalidArgument("cannot insert " +
                                       std::string(bat::ValTypeName(v.type)) +
                                       " into column \"" + col_name + "\" (" +
                                       bat::ValTypeName(target) + ")");
      }
      if (target == bat::ValType::kDbl) {
        b.AppendDouble(v.AsDouble());
      } else if (t_str) {
        b.AppendString(v.s);
      } else {
        if (v.type == bat::ValType::kDbl) {
          return Status::InvalidArgument("cannot insert double into column \"" +
                                         col_name + "\" (" + bat::ValTypeName(target) +
                                         ")");
        }
        b.AppendInt64(v.i);
      }
    }
    c.inserts[ci] = b.Finish();
    c.max_column_bytes = std::max(c.max_column_bytes, c.inserts[ci]->ByteSize());
  }

  auto ids = std::make_shared<std::vector<uint64_t>>();
  ids->reserve(rows);
  for (size_t i = 0; i < rows; ++i) ids->push_back(t->next_row_id + i);
  t->next_row_id += rows;
  c.version = ++version_;
  c.insert_row_ids = ids;
  c.deletes = std::make_shared<std::vector<uint64_t>>();

  const CommitResult out{c.version, static_cast<int64_t>(rows)};
  t->pending.push_back(std::move(c));

  metrics_.commits++;
  metrics_.rows_inserted += rows;
  metrics_.deltas_published += t->columns.size();
  commit_count_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::vector<uint64_t> WriteLog::ViewRowIdsLocked(const TableState& t,
                                                 uint64_t snapshot) const {
  std::unordered_set<uint64_t> dead;
  for (const Commit& c : t.pending) {
    if (c.version > snapshot) break;
    for (uint64_t id : *c.deletes) dead.insert(id);
  }
  std::vector<uint64_t> out;
  out.reserve(t.base_row_ids.size());
  for (uint64_t id : t.base_row_ids) {
    if (dead.empty() || dead.count(id) == 0) out.push_back(id);
  }
  for (const Commit& c : t.pending) {
    if (c.version > snapshot) break;
    for (uint64_t id : *c.insert_row_ids) {
      if (dead.empty() || dead.count(id) == 0) out.push_back(id);
    }
  }
  return out;
}

Result<CommitResult> WriteLog::CommitDeleteAt(const std::string& table,
                                              const std::vector<uint64_t>& positions,
                                              uint64_t snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  TableState* t = FindTableLocked(table);
  if (t == nullptr) return Status::NotFound("unknown table \"" + table + "\"");
  if (positions.empty()) return CommitResult{version_, 0};

  const std::vector<uint64_t> view = ViewRowIdsLocked(*t, snapshot);
  auto dead = std::make_shared<std::vector<uint64_t>>();
  dead->reserve(positions.size());
  for (uint64_t p : positions) {
    if (p >= view.size()) {
      return Status::InvalidArgument("DELETE position " + std::to_string(p) +
                                     " beyond the snapshot view (" +
                                     std::to_string(view.size()) + " rows)");
    }
    const uint64_t id = view[p];
    // A later concurrent commit may have deleted the row already; deleting
    // it twice is a no-op, not an error.
    if (t->deleted.count(id) == 0) dead->push_back(id);
  }
  std::sort(dead->begin(), dead->end());
  dead->erase(std::unique(dead->begin(), dead->end()), dead->end());
  if (dead->empty()) return CommitResult{version_, 0};

  Commit c;
  c.version = ++version_;
  c.inserts.reserve(t->columns.size());
  for (const FragmentState& f : t->columns) {
    c.inserts.push_back(bat::ColumnBuilder(f.base->tail_type()).Finish());
  }
  c.insert_row_ids = std::make_shared<std::vector<uint64_t>>();
  c.deletes = dead;
  c.max_column_bytes = dead->size() * sizeof(uint64_t);
  for (uint64_t id : *dead) t->deleted.insert(id);

  const CommitResult out{c.version, static_cast<int64_t>(dead->size())};
  t->pending.push_back(std::move(c));

  metrics_.commits++;
  metrics_.rows_deleted += out.rows;
  metrics_.deltas_published += t->columns.size();
  commit_count_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

uint64_t WriteLog::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  active_snapshots_[version_]++;
  return version_;
}

Result<uint64_t> WriteLog::AcquireSnapshotAt(uint64_t v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (v > version_) {
    return Status::InvalidArgument("snapshot " + std::to_string(v) +
                                   " is ahead of the current version " +
                                   std::to_string(version_));
  }
  active_snapshots_[v]++;
  return v;
}

void WriteLog::ReleaseSnapshot(uint64_t v) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_snapshots_.find(v);
  if (it == active_snapshots_.end()) return;
  if (--it->second == 0) active_snapshots_.erase(it);
}

uint64_t WriteLog::CurrentVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

Result<bat::BatPtr> WriteLog::ResolveView(core::BatId fragment,
                                          const bat::BatPtr& pinned,
                                          uint64_t snapshot) {
  if (!HasWrites()) return pinned;  // read-only cluster fast path
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fragment_index_.find(fragment);
  if (it == fragment_index_.end()) return pinned;
  TableState& t = tables_[it->second.first];
  FragmentState& f = t.columns[it->second.second];
  if (t.pending.empty() && t.base_version == 0) return pinned;  // table untouched
  if (snapshot < t.base_version) {
    metrics_.snapshots_rejected++;
    return Status::FailedPrecondition(
        "snapshot " + std::to_string(snapshot) + " predates the compacted base of \"" +
        it->second.first + "\" (version " + std::to_string(t.base_version) + ")");
  }

  // Effective version: the last commit visible at this snapshot. Readers at
  // different snapshots between the same two commits share one view.
  uint64_t eff = t.base_version;
  size_t applicable = 0;
  for (const Commit& c : t.pending) {
    if (c.version > snapshot) break;
    eff = c.version;
    ++applicable;
  }
  // The log's base is authoritative: a ring-delivered payload may be a
  // stale pre-fold copy, so written tables always resolve through it.
  if (applicable == 0) return f.base;
  if (f.cache_version == eff && f.cache_view != nullptr) {
    metrics_.merge_cache_hits++;
    return f.cache_view;
  }

  const auto start = std::chrono::steady_clock::now();
  std::unordered_set<uint64_t> dead;
  for (size_t i = 0; i < applicable; ++i) {
    for (uint64_t id : *t.pending[i].deletes) dead.insert(id);
  }
  // Merges always build a fresh column: IsSorted() memoization starts cold
  // on every version bump and the base columns stay immutable.
  bat::ColumnBuilder b(f.base->tail_type());
  b.Reserve(t.base_rows + 64);
  AppendSurvivors(&b, *f.base->tail(), t.base_row_ids, dead);
  for (size_t i = 0; i < applicable; ++i) {
    const Commit& c = t.pending[i];
    AppendSurvivors(&b, *c.inserts[it->second.second], *c.insert_row_ids, dead);
  }
  bat::BatPtr view = bat::Bat::MakeColumn(b.Finish());
  f.cache_version = eff;
  f.cache_view = view;
  metrics_.merges++;
  metrics_.deltas_merged += applicable;
  metrics_.merge_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return view;
}

std::vector<std::pair<std::string, core::BatId>> WriteLog::TablesReadyToFold(
    const CompactionOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, core::BatId>> out;
  for (auto& [name, t] : tables_) {
    if (t.folding || t.pending.empty() || t.columns.empty()) continue;
    uint64_t fragment_bytes = 0;
    for (const Commit& c : t.pending) fragment_bytes += c.max_column_bytes;
    // Idle drain: once writers go quiet, the pending tail never reaches the
    // thresholds, so a table whose newest pending version is unchanged since
    // the previous scan folds anyway.
    const uint64_t newest = t.pending.back().version;
    const bool idle = newest == t.idle_mark;
    t.idle_mark = newest;
    if (idle || t.pending.size() >= opts.max_delta_count ||
        fragment_bytes >= kMaxDeltaBytes) {
      out.emplace_back(name, t.columns.front().id);
    }
  }
  return out;
}

void WriteLog::SetFoldHookForTest(std::function<void(const std::string&)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fold_hook_ = std::move(hook);
}

Result<FoldResult> WriteLog::FoldTable(const std::string& table,
                                       const std::function<bool()>& commit_guard) {
  // Phase 1 (locked): pick the fold point and snapshot the inputs.
  std::vector<Commit> commits;
  std::vector<bat::ColumnPtr> bases;
  std::vector<uint64_t> base_ids;
  std::function<void(const std::string&)> hook;
  uint64_t fold_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TableState* t = FindTableLocked(table);
    if (t == nullptr) return Status::NotFound("unknown table \"" + table + "\"");
    if (t->folding) return FoldResult{table, t->base_version, 0, {}};
    // Never fold past an active snapshot: its reader still needs the
    // pre-fold deltas (version-at-prepare, no torn reads).
    const uint64_t bound = std::min(version_, MinActiveSnapshotLocked());
    for (const Commit& c : t->pending) {
      if (c.version > bound) break;
      commits.push_back(c);
      fold_version = c.version;
    }
    if (commits.empty()) return FoldResult{table, t->base_version, 0, {}};
    t->folding = true;
    for (const FragmentState& f : t->columns) bases.push_back(f.base->tail());
    base_ids = t->base_row_ids;
    hook = fold_hook_;
  }

  // Phase 2 (unlocked): merge the fold window into fresh base columns.
  // Commits and columns are immutable, so no lock is needed; concurrent
  // commits append versions > fold_version and are untouched.
  std::unordered_set<uint64_t> dead;
  for (const Commit& c : commits) {
    for (uint64_t id : *c.deletes) dead.insert(id);
  }
  std::vector<uint64_t> new_ids;
  new_ids.reserve(base_ids.size());
  for (uint64_t id : base_ids) {
    if (dead.empty() || dead.count(id) == 0) new_ids.push_back(id);
  }
  for (const Commit& c : commits) {
    for (uint64_t id : *c.insert_row_ids) {
      if (dead.empty() || dead.count(id) == 0) new_ids.push_back(id);
    }
  }
  std::vector<bat::BatPtr> rebased;
  rebased.reserve(bases.size());
  for (size_t ci = 0; ci < bases.size(); ++ci) {
    bat::ColumnBuilder b(bases[ci]->type());
    b.Reserve(new_ids.size());
    AppendSurvivors(&b, *bases[ci], base_ids, dead);
    for (const Commit& c : commits) {
      AppendSurvivors(&b, *c.inserts[ci], *c.insert_row_ids, dead);
    }
    rebased.push_back(bat::Bat::MakeColumn(b.Finish()));
  }
  if (hook) hook(table);

  // Phase 3 (locked): commit the fold atomically — or abandon it untouched
  // when the guard says the compacting node died meanwhile.
  std::lock_guard<std::mutex> lock(mu_);
  TableState* t = FindTableLocked(table);
  DCY_CHECK(t != nullptr);
  t->folding = false;
  if (commit_guard && !commit_guard()) {
    metrics_.compactions_abandoned++;
    return Status::Aborted("fold of \"" + table + "\" abandoned: compacting node down");
  }
  DCY_CHECK(t->pending.size() >= commits.size());
  DCY_CHECK(t->pending[commits.size() - 1].version == fold_version);
  t->pending.erase(t->pending.begin(), t->pending.begin() + commits.size());
  t->base_version = fold_version;
  t->base_rows = new_ids.size();
  t->base_row_ids = std::move(new_ids);
  t->deleted.clear();
  for (const Commit& c : t->pending) {
    for (uint64_t id : *c.deletes) t->deleted.insert(id);
  }
  FoldResult out;
  out.table = table;
  out.new_version = fold_version;
  out.deltas_folded = commits.size() * t->columns.size();
  for (size_t ci = 0; ci < t->columns.size(); ++ci) {
    FragmentState& f = t->columns[ci];
    f.base = rebased[ci];
    f.cache_version = 0;
    f.cache_view = nullptr;
    out.rebased.emplace_back(f.id, f.name, rebased[ci]);
  }
  metrics_.compactions++;
  metrics_.deltas_folded += out.deltas_folded;
  return out;
}

WriteMetrics WriteLog::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  WriteMetrics m = metrics_;
  m.current_version = version_;
  for (const auto& [name, t] : tables_) {
    m.pending_deltas += t.pending.size() * t.columns.size();
    for (const Commit& c : t.pending) {
      m.pending_delta_bytes += c.max_column_bytes * t.columns.size();
    }
  }
  return m;
}

std::vector<TableVersionInfo> WriteLog::TableVersions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TableVersionInfo> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) {
    TableVersionInfo info;
    info.table = name;
    info.base_version = t.base_version;
    info.current_version = t.pending.empty() ? t.base_version : t.pending.back().version;
    info.pending_deltas = t.pending.size() * t.columns.size();
    for (const Commit& c : t.pending) {
      info.pending_delta_bytes += c.max_column_bytes * t.columns.size();
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace dcy::write
