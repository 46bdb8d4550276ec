// Tests of the write subsystem: the WriteLog commit/snapshot/fold semantics,
// the fresh-merged-columns regression (IsSorted memoization survives version
// bumps), and end-to-end SQL INSERT/DELETE over a live ring with snapshot
// replay and background compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bat/bat.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "write/write_log.h"

namespace dcy {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// WriteLog: commits, snapshots, views, folds.
// ---------------------------------------------------------------------------

class WriteLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = bat::Bat::MakeColumn(bat::MakeLngColumn({1, 2, 3}));
    b_ = bat::Bat::MakeColumn(bat::MakeDblColumn({1.5, 2.5, 3.5}));
    ASSERT_TRUE(log_.RegisterFragment(1, "sys.w", "a", a_).ok());
    ASSERT_TRUE(log_.RegisterFragment(2, "sys.w", "b", b_).ok());
  }

  Result<write::CommitResult> Insert(int64_t av, double bv) {
    return log_.CommitInsert(
        "sys.w", {{"a", {bat::Value::MakeLng(av)}}, {"b", {bat::Value::MakeDbl(bv)}}});
  }

  /// Base version of sys.w (both of its fragments fold together).
  uint64_t BaseVersion() const {
    for (const auto& info : log_.TableVersions()) {
      if (info.table == "sys.w") return info.base_version;
    }
    return 0;
  }

  std::vector<int64_t> ViewA(uint64_t snapshot) {
    auto view = log_.ResolveView(1, a_, snapshot);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    std::vector<int64_t> out;
    if (!view.ok()) return out;
    for (size_t i = 0; i < (*view)->size(); ++i) {
      out.push_back((*view)->tail()->GetInt64(i));
    }
    return out;
  }

  write::WriteLog log_;
  bat::BatPtr a_, b_;
};

TEST_F(WriteLogTest, RegisterFragmentRejectsRowCountMismatch) {
  write::WriteLog log;
  ASSERT_TRUE(log.RegisterFragment(1, "sys.x", "a",
                                   bat::Bat::MakeColumn(bat::MakeLngColumn({1, 2, 3})))
                  .ok());
  auto bad = log.RegisterFragment(2, "sys.x", "b",
                                  bat::Bat::MakeColumn(bat::MakeLngColumn({1, 2})));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST_F(WriteLogTest, CommitInsertAppendsAndCoerces) {
  // Column order in the statement is free; ints widen into double columns.
  auto cr = log_.CommitInsert(
      "sys.w", {{"b", {bat::Value::MakeLng(4)}}, {"a", {bat::Value::MakeLng(4)}}});
  ASSERT_TRUE(cr.ok()) << cr.status().ToString();
  EXPECT_EQ(cr->version, 1u);
  EXPECT_EQ(cr->rows, 1);
  EXPECT_EQ(log_.Metrics().deltas_published, 2u);  // one delta per column

  EXPECT_EQ(ViewA(1), (std::vector<int64_t>{1, 2, 3, 4}));
  auto vb = log_.ResolveView(2, b_, 1);
  ASSERT_TRUE(vb.ok());
  ASSERT_EQ((*vb)->size(), 4u);
  EXPECT_DOUBLE_EQ((*vb)->tail()->GetDouble(3), 4.0);
  // The pre-commit snapshot still reads the untouched base.
  EXPECT_EQ(ViewA(0), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(WriteLogTest, CommitInsertRejectsBadShapesAndTypes) {
  // Narrowing double -> lng is refused.
  auto narrowing = log_.CommitInsert(
      "sys.w", {{"a", {bat::Value::MakeDbl(1.5)}}, {"b", {bat::Value::MakeDbl(1.5)}}});
  EXPECT_EQ(narrowing.status().code(), StatusCode::kInvalidArgument);
  // Strings never coerce.
  auto strval = log_.CommitInsert(
      "sys.w", {{"a", {bat::Value::MakeStr("x")}}, {"b", {bat::Value::MakeDbl(1.0)}}});
  EXPECT_EQ(strval.status().code(), StatusCode::kInvalidArgument);
  // Missing, duplicate and ragged column lists.
  auto missing = log_.CommitInsert("sys.w", {{"a", {bat::Value::MakeLng(1)}}});
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  auto dup = log_.CommitInsert(
      "sys.w", {{"a", {bat::Value::MakeLng(1)}}, {"a", {bat::Value::MakeLng(2)}}});
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  auto ragged = log_.CommitInsert(
      "sys.w", {{"a", {bat::Value::MakeLng(1), bat::Value::MakeLng(2)}},
                {"b", {bat::Value::MakeDbl(1.0)}}});
  EXPECT_EQ(ragged.status().code(), StatusCode::kInvalidArgument);
  // Nothing committed by any of the failures.
  EXPECT_EQ(log_.CurrentVersion(), 0u);
  EXPECT_EQ(ViewA(0), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(WriteLogTest, DeleteAtResolvesPositionsAgainstTheSnapshotView) {
  // Position 1 in the v0 view [1 2 3] is row id 1 (value 2).
  auto d1 = log_.CommitDeleteAt("sys.w", {1}, 0);
  ASSERT_TRUE(d1.ok()) << d1.status().ToString();
  EXPECT_EQ(d1->rows, 1);
  EXPECT_EQ(ViewA(1), (std::vector<int64_t>{1, 3}));

  // The same position at the same old snapshot maps to the same (already
  // deleted) row: skipped, a no-op commit.
  auto again = log_.CommitDeleteAt("sys.w", {1}, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows, 0);
  EXPECT_EQ(log_.Metrics().deltas_published, 2u);  // only the first delete

  // At the newer snapshot the view is [1 3]: position 1 now means value 3.
  auto d2 = log_.CommitDeleteAt("sys.w", {1}, 1);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->rows, 1);
  EXPECT_EQ(ViewA(d2->version), (std::vector<int64_t>{1}));

  auto oob = log_.CommitDeleteAt("sys.w", {5}, 0);
  EXPECT_EQ(oob.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WriteLogTest, SnapshotsPinTheVersionReadersSee) {
  auto ahead = log_.AcquireSnapshotAt(log_.CurrentVersion() + 1);
  EXPECT_EQ(ahead.status().code(), StatusCode::kInvalidArgument);

  const uint64_t snap0 = log_.AcquireSnapshot();
  EXPECT_EQ(snap0, 0u);
  ASSERT_TRUE(Insert(4, 4.0).ok());

  // At the pinned old snapshot the untouched base is served by identity --
  // the merge path is never entered.
  auto old_view = log_.ResolveView(1, a_, snap0);
  ASSERT_TRUE(old_view.ok());
  EXPECT_EQ(old_view->get(), a_.get());
  EXPECT_EQ(ViewA(log_.CurrentVersion()), (std::vector<int64_t>{1, 2, 3, 4}));
  log_.ReleaseSnapshot(snap0);
}

TEST_F(WriteLogTest, FoldIsBoundedByActiveSnapshotsAndRetiresDeltas) {
  const uint64_t snap0 = log_.AcquireSnapshot();
  ASSERT_TRUE(Insert(4, 4.0).ok());

  // The active snapshot at version 0 pins the fold bound: nothing folds.
  auto noop = log_.FoldTable("sys.w", {});
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();
  EXPECT_TRUE(noop->rebased.empty());
  EXPECT_EQ(BaseVersion(), 0u);

  log_.ReleaseSnapshot(snap0);
  auto folded = log_.FoldTable("sys.w", {});
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded->new_version, 1u);
  EXPECT_EQ(folded->deltas_folded, 2u);
  ASSERT_EQ(folded->rebased.size(), 2u);
  EXPECT_EQ(std::get<2>(folded->rebased[0])->size(), 4u);
  EXPECT_EQ(BaseVersion(), 1u);

  // Readers at or past the fold see the new base; a reader that held no
  // snapshot pin across the fold is rejected typed, not served garbage.
  EXPECT_EQ(ViewA(1), (std::vector<int64_t>{1, 2, 3, 4}));
  auto stale = log_.ResolveView(1, a_, 0);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  const auto m = log_.Metrics();
  EXPECT_EQ(m.compactions, 1u);
  EXPECT_EQ(m.deltas_folded, 2u);
  EXPECT_EQ(m.snapshots_rejected, 1u);
  EXPECT_EQ(m.pending_deltas, 0u);
}

TEST_F(WriteLogTest, FoldCommitGuardAbandonsAtomically) {
  ASSERT_TRUE(Insert(4, 4.0).ok());
  auto aborted = log_.FoldTable("sys.w", [] { return false; });
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kAborted);
  EXPECT_EQ(log_.Metrics().compactions_abandoned, 1u);
  // The log is untouched: the delta is still pending and folds later.
  EXPECT_EQ(BaseVersion(), 0u);
  EXPECT_GT(log_.Metrics().pending_deltas, 0u);
  auto folded = log_.FoldTable("sys.w", [] { return true; });
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded->new_version, 1u);
  EXPECT_EQ(ViewA(1), (std::vector<int64_t>{1, 2, 3, 4}));
}

// Satellite regression: merged views are built from fresh Column objects, so
// the IsSorted() memoization can never serve a stale answer across a version
// bump, and older views stay frozen.
TEST(WriteLogFreshColumns, MergedViewsNeverReuseMemoizedColumns) {
  write::WriteLog log;
  auto base = bat::Bat::MakeColumn(bat::MakeLngColumn({1, 2, 3}));
  ASSERT_TRUE(log.RegisterFragment(1, "sys.s", "a", base).ok());
  ASSERT_TRUE(base->tail()->IsSorted());
  ASSERT_TRUE(base->tail()->SortednessKnown());

  // Commit a row that breaks sortedness.
  ASSERT_TRUE(log.CommitInsert("sys.s", {{"a", {bat::Value::MakeLng(0)}}}).ok());
  auto view = log.ResolveView(1, base, 1);
  ASSERT_TRUE(view.ok());
  ASSERT_NE(view->get(), base.get());
  ASSERT_NE((*view)->tail().get(), base->tail().get());
  // The fresh column has no inherited memoization and answers correctly.
  EXPECT_FALSE((*view)->tail()->SortednessKnown());
  EXPECT_FALSE((*view)->tail()->IsSorted());
  // The base fragment's memoized answer is untouched.
  EXPECT_TRUE(base->tail()->IsSorted());

  // Re-resolving the same snapshot serves the cached view (same memoized
  // column -- valid, it is the same version)...
  auto view2 = log.ResolveView(1, base, 1);
  ASSERT_TRUE(view2.ok());
  EXPECT_EQ(view2->get(), view->get());
  EXPECT_GE(log.Metrics().merge_cache_hits, 1u);

  // ...but the next version bump yields a fresh column again, leaving the
  // older view frozen.
  ASSERT_TRUE(log.CommitInsert("sys.s", {{"a", {bat::Value::MakeLng(9)}}}).ok());
  auto view3 = log.ResolveView(1, base, 2);
  ASSERT_TRUE(view3.ok());
  EXPECT_NE(view3->get(), view->get());
  EXPECT_NE((*view3)->tail().get(), (*view)->tail().get());
  EXPECT_FALSE((*view3)->tail()->SortednessKnown());
  EXPECT_EQ((*view)->size(), 4u);
  EXPECT_EQ((*view3)->size(), 5u);
}

// ---------------------------------------------------------------------------
// End to end: SQL INSERT/DELETE over a live ring.
// ---------------------------------------------------------------------------

class WriteRing : public ::testing::Test {
 protected:
  static runtime::RingCluster::Options FastOptions() {
    runtime::RingCluster::Options opts;
    opts.num_nodes = 3;
    opts.node.min_resend_timeout = FromMillis(20);
    return opts;
  }

  void StartCluster(runtime::RingCluster::Options opts) {
    cluster = std::make_unique<runtime::RingCluster>(opts);
    Load(0, "sys.u.id", bat::MakeLngColumn({1, 2, 3}));
    Load(1, "sys.u.v", bat::MakeLngColumn({10, 20, 30}));
    cluster->Start();
  }

  void Load(core::NodeId node, const std::string& name, bat::ColumnPtr tail) {
    ASSERT_TRUE(
        cluster->LoadBat(node, name, bat::Bat::MakeColumn(std::move(tail))).ok());
  }

  Result<runtime::QueryResult> Run(const std::string& text,
                                   runtime::SubmitOptions submit = {}) {
    auto session = cluster->OpenSession(0);
    if (!session.ok()) return session.status();
    return session->Execute(text, submit);
  }

  std::multiset<int64_t> SelectV(runtime::SubmitOptions submit = {},
                                 const std::string& sql = "select v from u") {
    std::multiset<int64_t> got;
    auto result = Run(sql, submit);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return got;
    const runtime::ResultSet& rs = result->result;
    for (size_t r = 0; r < rs.num_rows(); ++r) got.insert(rs.Int64At(r, 0));
    return got;
  }

  bool WaitUntil(const std::function<bool()>& pred, milliseconds timeout) {
    const auto deadline = steady_clock::now() + timeout;
    while (steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(milliseconds(5));
    }
    return pred();
  }

  std::unique_ptr<runtime::RingCluster> cluster;
};

TEST_F(WriteRing, InsertIsVisibleToSubsequentReadsAndCirculates) {
  auto opts = FastOptions();
  // No fold within the test (the compactor's first scan is an hour away):
  // the merge path stays exercised.
  opts.compaction.interval = FromSeconds(3600);
  StartCluster(opts);

  auto ins = Run("insert into u values (4, 40)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(std::get<int64_t>(ins->result.scalar()), 1);
  EXPECT_EQ(ins->commit_version, 1u);

  EXPECT_EQ(SelectV({}, "select v from u where id = 4"),
            (std::multiset<int64_t>{40}));
  EXPECT_EQ(SelectV(), (std::multiset<int64_t>{10, 20, 30, 40}));

  const auto m = cluster->write_log().Metrics();
  EXPECT_EQ(m.commits, 1u);
  EXPECT_EQ(m.rows_inserted, 1u);
  EXPECT_EQ(m.deltas_published, 2u);
  EXPECT_GT(m.merges, 0u);
  EXPECT_GT(m.deltas_merged, 0u);

  // The commit reached the reads through the write log alone: node 0 read
  // sys.u.v as the base fragment circulating from its owner, node 1, and
  // its pin merged the delta in from the log.
  EXPECT_GT(cluster->Bandwidth().frames_encoded, 0u);
}

TEST_F(WriteRing, DeleteRemovesMatchingRows) {
  auto opts = FastOptions();
  opts.compaction.interval = FromSeconds(3600);  // deltas stay pending
  StartCluster(opts);

  auto del = Run("delete from u where id = 2");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(std::get<int64_t>(del->result.scalar()), 1);
  EXPECT_EQ(SelectV(), (std::multiset<int64_t>{10, 30}));
  EXPECT_EQ(cluster->write_log().Metrics().rows_deleted, 1u);

  // Insert after delete: both deltas apply in version order.
  ASSERT_TRUE(Run("insert into u values (5, 50)").ok());
  EXPECT_EQ(SelectV(), (std::multiset<int64_t>{10, 30, 50}));
}

TEST_F(WriteRing, PinnedSnapshotsReplayThePast) {
  auto opts = FastOptions();
  opts.compaction.interval = FromSeconds(3600);  // deltas stay pending
  StartCluster(opts);

  const uint64_t snap = cluster->write_log().AcquireSnapshot();
  ASSERT_TRUE(Run("insert into u values (4, 40)").ok());

  runtime::SubmitOptions at_snap;
  at_snap.snapshot_version = snap;
  auto past = Run("select v from u", at_snap);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_EQ(past->snapshot_version, snap);
  EXPECT_EQ(past->result.num_rows(), 3u);

  EXPECT_EQ(SelectV(), (std::multiset<int64_t>{10, 20, 30, 40}));
  cluster->write_log().ReleaseSnapshot(snap);

  // A snapshot ahead of the current version is refused at submit.
  runtime::SubmitOptions ahead;
  ahead.snapshot_version = cluster->write_log().CurrentVersion() + 5;
  auto bad = Run("select v from u", ahead);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WriteRing, BackgroundCompactionFoldsAndReadsStayCorrect) {
  auto opts = FastOptions();
  opts.compaction.max_delta_count = 1;  // fold after every commit
  opts.compaction.interval = FromMillis(5);
  StartCluster(opts);

  ASSERT_TRUE(Run("insert into u values (4, 40)").ok());
  ASSERT_TRUE(Run("insert into u values (5, 50)").ok());
  ASSERT_TRUE(Run("delete from u where id = 1").ok());

  ASSERT_TRUE(WaitUntil(
      [&] {
        const auto m = cluster->write_log().Metrics();
        return m.compactions >= 1 && m.pending_deltas == 0;
      },
      milliseconds(10000)))
      << "compactor never folded the pending deltas";

  EXPECT_EQ(SelectV(), (std::multiset<int64_t>{20, 30, 40, 50}));
  const auto m = cluster->write_log().Metrics();
  EXPECT_GT(m.deltas_published, 0u);
  EXPECT_GT(m.deltas_folded, 0u);

  bool found = false;
  for (const auto& info : cluster->write_log().TableVersions()) {
    if (info.table != "sys.u") continue;
    found = true;
    EXPECT_GE(info.base_version, 1u);
    EXPECT_EQ(info.pending_deltas, 0u);
  }
  EXPECT_TRUE(found);

  // Writes after a fold start a new delta generation.
  ASSERT_TRUE(Run("insert into u values (6, 60)").ok());
  EXPECT_EQ(SelectV(), (std::multiset<int64_t>{20, 30, 40, 50, 60}));
}

TEST_F(WriteRing, FoldRepublishEncodesTheNewBaseOnTheNextLoad) {
  auto opts = FastOptions();
  opts.compaction.max_delta_count = 1;  // fold after every commit
  opts.compaction.interval = FromMillis(5);
  StartCluster(opts);

  // Node 0 reads sys.u.v from its owner, node 1, which encodes it and keeps
  // the frame. sys.u.id is node 0's own and never loads.
  EXPECT_EQ(SelectV(), (std::multiset<int64_t>{10, 20, 30}));
  const auto loaded = cluster->Bandwidth();
  ASSERT_GE(loaded.frames_encoded, 1u);
  ASSERT_GT(loaded.memo_bytes, 0u);

  ASSERT_TRUE(Run("insert into u values (4, 40)").ok());
  ASSERT_TRUE(WaitUntil(
      [&] {
        const auto m = cluster->write_log().Metrics();
        return m.compactions >= 1 && m.pending_deltas == 0;
      },
      milliseconds(10000)))
      << "compactor never folded the insert";
  // The fold replaced the base object and the retired one was freed, so the
  // next maintenance tick drops its frame: the gauge falls by its whole size.
  ASSERT_TRUE(WaitUntil([&] { return cluster->Bandwidth().memo_bytes == 0; },
                        milliseconds(5000)))
      << cluster->Bandwidth().memo_bytes << " memoized bytes left of "
      << loaded.memo_bytes;

  // Read until the owner loads sys.u.v again: that load encodes the new
  // base, and every answer includes the committed row.
  const uint64_t frames_at_fold = cluster->Bandwidth().frames_encoded;
  const uint64_t loads_at_fold = cluster->NodeMetrics(1).bats_loaded;
  for (int i = 0; i < 200 && cluster->NodeMetrics(1).bats_loaded == loads_at_fold;
       ++i) {
    ASSERT_EQ(SelectV(), (std::multiset<int64_t>{10, 20, 30, 40}));
    std::this_thread::sleep_for(milliseconds(20));
  }
  ASSERT_GT(cluster->NodeMetrics(1).bats_loaded, loads_at_fold)
      << "the owner never reloaded the folded fragment";
  const auto reloaded = cluster->Bandwidth();
  EXPECT_GT(reloaded.frames_encoded, frames_at_fold);
  EXPECT_GT(reloaded.memo_bytes, 0u);
  EXPECT_EQ(SelectV(), (std::multiset<int64_t>{10, 20, 30, 40}));
}

TEST_F(WriteRing, WritesToUnknownTablesFailAtPrepare) {
  StartCluster(FastOptions());
  auto bad = Run("insert into nosuch values (1)");
  EXPECT_FALSE(bad.ok());
  auto bad_col = Run("delete from u where nosuch = 1");
  EXPECT_FALSE(bad_col.ok());
}

}  // namespace
}  // namespace dcy
