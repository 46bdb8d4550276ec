// End-to-end tests of the session-based query API (ISSUE-4): prepared plans
// shared through the cluster plan cache, asynchronous Submit with
// Wait/TryWait/deadline/Cancel, typed ResultSet access, per-node FIFO
// admission control with backpressure, and LoadBat validation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bat/operators.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"

namespace dcy::runtime {
namespace {

using std::chrono::milliseconds;

constexpr const char* kTable1Plan = R"(
function user.s1_2():void;
    X1 := sql.bind("sys","t","id",0);
    X6 := sql.bind("sys","c","t_id",0);
    X9 := bat.reverse(X6);
    X10 := algebra.join(X1, X9);
    X13 := algebra.markT(X10,0@0);
    X14 := bat.reverse(X13);
    X15 := algebra.join(X14, X1);
    X16 := sql.resultSet(1,1,X15);
    sql.rsCol(X16,"sys.c","t_id","int",32,0,X15);
    X22 := io.stdout();
    sql.exportResult(X22,X16);
end s1_2;
)";

constexpr const char* kSumPlan = R"(
X1 := sql.bind("sys","t","id",0);
X2 := aggr.sum(X1);
)";

RingCluster::Options FastOptions(uint32_t nodes = 3) {
  RingCluster::Options opts;
  opts.num_nodes = nodes;
  opts.node.load_all_period = FromMillis(2);
  opts.node.maintenance_period = FromMillis(10);
  opts.node.adapt_period = FromMillis(10);
  opts.node.initial_rotation_estimate = FromMillis(5);
  opts.node.min_resend_timeout = FromMillis(20);
  return opts;
}

class SessionApi : public ::testing::Test {
 protected:
  void SetUpCluster(RingCluster::Options opts) {
    cluster = std::make_unique<RingCluster>(opts);
    ASSERT_TRUE(cluster
                    ->LoadBat(1 % opts.num_nodes, "sys.t.id",
                              bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 4})))
                    .ok());
    ASSERT_TRUE(cluster
                    ->LoadBat(2 % opts.num_nodes, "sys.c.t_id",
                              bat::Bat::MakeColumn(bat::MakeIntColumn({2, 3, 3, 5})))
                    .ok());
    cluster->Start();
  }

  /// A cluster whose owner may never load anything into the ring
  /// (admission headroom 0): every remote pin blocks forever, which is the
  /// deterministic stage for Cancel() / deadline tests.
  void SetUpStuckCluster() {
    auto opts = FastOptions();
    opts.node.load_admission_headroom = 0.0;
    SetUpCluster(opts);
  }

  std::unique_ptr<RingCluster> cluster;
};

// ---------------------------------------------------------------------------
// Typed results.
// ---------------------------------------------------------------------------

TEST_F(SessionApi, TypedResultSetExposesNamedTypedColumns) {
  SetUpCluster(FastOptions());
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  auto result = session->Execute(kTable1Plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const ResultSet& rs = result->result;
  ASSERT_TRUE(rs.has_table());
  ASSERT_EQ(rs.num_columns(), 1u);
  EXPECT_EQ(rs.column(0).table, "sys.c");
  EXPECT_EQ(rs.column(0).name, "t_id");
  EXPECT_EQ(rs.column(0).decl_type, "int");
  EXPECT_EQ(rs.column(0).type, bat::ValType::kInt);
  EXPECT_EQ(rs.FindColumn("t_id"), 0);
  EXPECT_EQ(rs.FindColumn("sys.c.t_id"), 0);
  EXPECT_EQ(rs.FindColumn("nope"), -1);

  ASSERT_EQ(rs.num_rows(), 3u);
  std::multiset<int64_t> got;
  for (size_t r = 0; r < rs.num_rows(); ++r) got.insert(rs.Int64At(r, 0));
  EXPECT_EQ(got, (std::multiset<int64_t>{2, 3, 3}));

  // Span access over the fixed-width payload.
  auto span = rs.FixedValues<int32_t>(0);
  ASSERT_EQ(span.size, 3u);

  // The text rendering carries the legacy printed format.
  EXPECT_NE(rs.ToText().find("sys.c.t_id"), std::string::npos);
}

TEST_F(SessionApi, ScalarPlansReturnScalarAndNoTable) {
  SetUpCluster(FastOptions());
  auto session = cluster->OpenSession(1);
  ASSERT_TRUE(session.ok());
  auto result = session->Execute(kSumPlan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->result.has_table());
  EXPECT_EQ(std::get<int64_t>(result->result.scalar()), 10);
  EXPECT_EQ(result->result.ToText(), "");
}

// ---------------------------------------------------------------------------
// Prepared plans + plan cache.
// ---------------------------------------------------------------------------

TEST_F(SessionApi, PreparedPlanCompilesExactlyOnce) {
  SetUpCluster(FastOptions());
  auto s0 = *cluster->OpenSession(0);
  auto s1 = *cluster->OpenSession(1);

  auto prepared = s0.Prepare(kTable1Plan);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(cluster->plan_cache_stats().misses, 1u);

  // N executions across two sessions: zero further compilations.
  constexpr int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) {
    ASSERT_TRUE(s0.Execute(*prepared).ok());
    ASSERT_TRUE(s1.Execute(*prepared).ok());
  }
  EXPECT_EQ(cluster->plan_cache_stats().misses, 1u);

  // Re-preparing the same text is a cache hit sharing the same plan.
  auto again = s1.Prepare(kTable1Plan);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), prepared->get());
  const auto stats = cluster->plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // An uncached Prepare compiles afresh without touching the cache counters.
  PrepareOptions no_cache;
  no_cache.use_cache = false;
  auto uncached = cluster->Prepare(kTable1Plan, no_cache);
  ASSERT_TRUE(uncached.ok());
  EXPECT_NE(uncached->get(), prepared->get());
  EXPECT_EQ(cluster->plan_cache_stats().misses, 1u);
}

TEST_F(SessionApi, PlanCacheEvictsOldestBeyondCapacity) {
  auto opts = FastOptions();
  opts.plan_cache_capacity = 2;
  SetUpCluster(opts);
  // Three distinct texts: the first insertion is evicted at the third.
  ASSERT_TRUE(cluster->Prepare("X1 := io.stdout();").ok());
  ASSERT_TRUE(cluster->Prepare("X2 := io.stdout();").ok());
  ASSERT_TRUE(cluster->Prepare("X3 := io.stdout();").ok());
  auto stats = cluster->plan_cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.misses, 3u);
  // The evicted text recompiles; the resident ones still hit.
  ASSERT_TRUE(cluster->Prepare("X1 := io.stdout();").ok());
  EXPECT_EQ(cluster->plan_cache_stats().misses, 4u);
  ASSERT_TRUE(cluster->Prepare("X3 := io.stdout();").ok());
  EXPECT_EQ(cluster->plan_cache_stats().hits, 1u);
}

TEST_F(SessionApi, ParameterBindingPerSubmission) {
  SetUpCluster(FastOptions());
  auto session = *cluster->OpenSession(1);
  auto prepared = session.Prepare(R"(
X1 := sql.bind("sys","t","id",0);
X2 := algebra.select(X1, LO, HI);
X3 := aggr.count(X2);
)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  SubmitOptions narrow;
  narrow.params["LO"] = mal::Datum(int64_t{2});
  narrow.params["HI"] = mal::Datum(int64_t{3});
  auto r1 = session.Execute(*prepared, narrow);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(std::get<int64_t>(r1->result.scalar()), 2);  // ids 2,3

  SubmitOptions wide;
  wide.params["LO"] = mal::Datum(int64_t{1});
  wide.params["HI"] = mal::Datum(int64_t{4});
  auto r2 = session.Execute(*prepared, wide);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(std::get<int64_t>(r2->result.scalar()), 4);

  // One compile served both parameterizations.
  EXPECT_EQ(cluster->plan_cache_stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Async submission.
// ---------------------------------------------------------------------------

TEST_F(SessionApi, SubmitIsAsynchronousAndWaitable) {
  SetUpCluster(FastOptions());
  auto session = *cluster->OpenSession(0);
  auto prepared = *session.Prepare(kTable1Plan);

  auto handle = session.Submit(prepared);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(handle->valid());
  EXPECT_GT(handle->query_id(), 0u);

  // TryWait polls; Wait blocks until terminal.
  Result<QueryResult> polled = Status(StatusCode::kUnknown, "");
  while (!handle->TryWait(&polled)) std::this_thread::yield();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  auto waited = handle->Wait();
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(waited->query_id, polled->query_id);
  EXPECT_GT(waited->timing.wall_seconds, 0.0);
  EXPECT_GT(waited->timing.exec_seconds, 0.0);
  EXPECT_GE(waited->timing.wall_seconds,
            waited->timing.exec_seconds + waited->timing.queued_seconds - 1e-6);
}

TEST_F(SessionApi, PinBlockedTimeIsReportedSeparately) {
  SetUpCluster(FastOptions());
  auto session = *cluster->OpenSession(0);
  // Both fragments are remote to node 0: the first execution must block in
  // pin at least once, and that wait must be visible in the timing split.
  auto result = session.Execute(kTable1Plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->timing.pin_blocked_seconds, 0.0);
  EXPECT_GT(result->timing.exec_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST_F(SessionApi, BurstDegradesToQueuingBoundedByAdmissionCap) {
  auto opts = FastOptions();
  opts.admission.max_concurrent = 2;
  SetUpCluster(opts);
  auto session = *cluster->OpenSession(0);
  auto prepared = *session.Prepare(kTable1Plan);

  // A burst of 4xC submissions from many threads.
  constexpr int kBurst = 8;
  std::vector<QueryHandle> handles(kBurst);
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int i = 0; i < kBurst; ++i) {
    submitters.emplace_back([&, i] {
      auto h = session.Submit(prepared);
      if (h.ok()) {
        handles[i] = *h;
      } else {
        ++failures;
      }
    });
  }
  for (auto& t : submitters) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (auto& h : handles) ASSERT_TRUE(h.Wait().ok());

  const auto metrics = cluster->NodeAdmissionMetrics(0);
  EXPECT_EQ(metrics.submitted, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(metrics.admitted, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(metrics.completed, static_cast<uint64_t>(kBurst));
  EXPECT_LE(metrics.peak_running, 2u);  // never more than C in flight
  EXPECT_EQ(metrics.running, 0u);
  EXPECT_EQ(metrics.queued, 0u);
  EXPECT_EQ(metrics.rejected, 0u);
}

TEST_F(SessionApi, AdmissionIsFifoPerNode) {
  auto opts = FastOptions();
  opts.admission.max_concurrent = 1;
  SetUpCluster(opts);
  auto session = *cluster->OpenSession(0);
  auto prepared = *session.Prepare(kTable1Plan);

  constexpr int kQueries = 6;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < kQueries; ++i) {
    auto h = session.Submit(prepared);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  uint64_t last_seq = 0;
  for (int i = 0; i < kQueries; ++i) {
    auto r = handles[i].Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (i > 0) {
      EXPECT_GT(r->admitted_seq, last_seq) << "FIFO order violated at " << i;
    }
    last_seq = r->admitted_seq;
  }
}

TEST_F(SessionApi, FullQueueAppliesBackpressure) {
  auto opts = FastOptions();
  opts.node.load_admission_headroom = 0.0;  // pins block forever
  opts.admission.max_concurrent = 1;
  opts.admission.max_queued = 2;
  SetUpCluster(opts);
  auto session = *cluster->OpenSession(0);
  auto prepared = *session.Prepare(kTable1Plan);

  // First query occupies the single slot (blocked in pin), two more fill
  // the queue; everything beyond bounces with ResourceExhausted.
  auto running = session.Submit(prepared);
  ASSERT_TRUE(running.ok());
  // Wait until it actually occupies the execution slot.
  while (cluster->NodeAdmissionMetrics(0).running == 0) std::this_thread::yield();

  std::vector<QueryHandle> queued;
  for (int i = 0; i < 2; ++i) {
    auto h = session.Submit(prepared);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    queued.push_back(*h);
  }
  auto rejected = session.Submit(prepared);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  EXPECT_GE(cluster->NodeAdmissionMetrics(0).rejected, 1u);
  EXPECT_EQ(cluster->NodeAdmissionMetrics(0).peak_queued, 2u);

  // Unwind: cancel everything and let the cluster drain.
  running->Cancel();
  for (auto& h : queued) h.Cancel();
  EXPECT_TRUE(running->Wait().status().code() == StatusCode::kAborted);
  for (auto& h : queued) {
    EXPECT_EQ(h.Wait().status().code(), StatusCode::kAborted);
  }
}

// ---------------------------------------------------------------------------
// Cancellation + deadlines.
// ---------------------------------------------------------------------------

TEST_F(SessionApi, CancelUnblocksAPinnedSessionWithoutLeakingRequests) {
  SetUpStuckCluster();
  auto session = *cluster->OpenSession(0);
  auto prepared = *session.Prepare(kTable1Plan);

  auto handle = session.Submit(prepared);
  ASSERT_TRUE(handle.ok());
  // Let the query reach its blocked pin: the S2 request entries appear.
  while (cluster->OutstandingRequestEntries(0) < 2) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_FALSE(handle->TryWait());  // genuinely stuck

  handle->Cancel();
  Result<QueryResult> out = Status(StatusCode::kUnknown, "");
  ASSERT_TRUE(handle->WaitFor(std::chrono::seconds(10), &out))
      << "Cancel() must unblock a session stuck in datacyclotron.pin";
  EXPECT_EQ(out.status().code(), StatusCode::kAborted);

  // The cancelled query's fragment requests retire (maintenance GC):
  // nothing may keep requesting the fragments on its behalf.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster->OutstandingRequestEntries(0) != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "cancelled query leaked S2 request entries";
    std::this_thread::sleep_for(milliseconds(5));
  }

  // Cancel is idempotent and terminal.
  handle->Cancel();
  EXPECT_EQ(handle->Wait().status().code(), StatusCode::kAborted);
}

TEST_F(SessionApi, DeadlineExpiresABlockedQuery) {
  SetUpStuckCluster();
  auto session = *cluster->OpenSession(0);
  SubmitOptions opts;
  opts.timeout = milliseconds(100);
  auto handle = session.Submit(*session.Prepare(kTable1Plan), opts);
  ASSERT_TRUE(handle.ok());
  auto result = handle->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimedOut()) << result.status().ToString();
}

TEST_F(SessionApi, DeadlineExpiresWhileStillQueued) {
  auto opts = FastOptions();
  opts.node.load_admission_headroom = 0.0;
  opts.admission.max_concurrent = 1;
  SetUpCluster(opts);
  auto session = *cluster->OpenSession(0);
  auto prepared = *session.Prepare(kTable1Plan);

  auto blocker = session.Submit(prepared);  // occupies the slot forever
  ASSERT_TRUE(blocker.ok());
  while (cluster->NodeAdmissionMetrics(0).running == 0) std::this_thread::yield();

  SubmitOptions timed;
  timed.timeout = milliseconds(50);
  auto doomed = session.Submit(prepared, timed);
  ASSERT_TRUE(doomed.ok());
  auto result = doomed->Wait();
  EXPECT_TRUE(result.status().IsTimedOut()) << result.status().ToString();
  EXPECT_GE(cluster->NodeAdmissionMetrics(0).timed_out_queued, 1u);

  (*blocker).Cancel();
  EXPECT_EQ(blocker->Wait().status().code(), StatusCode::kAborted);
}

TEST_F(SessionApi, CancelBeforeExecutionStartsCountsAsQueuedCancel) {
  auto opts = FastOptions();
  opts.node.load_admission_headroom = 0.0;
  opts.admission.max_concurrent = 1;
  SetUpCluster(opts);
  auto session = *cluster->OpenSession(0);
  auto prepared = *session.Prepare(kTable1Plan);

  auto blocker = session.Submit(prepared);
  ASSERT_TRUE(blocker.ok());
  while (cluster->NodeAdmissionMetrics(0).running == 0) std::this_thread::yield();
  auto queued = session.Submit(prepared);
  ASSERT_TRUE(queued.ok());

  queued->Cancel();
  EXPECT_EQ(queued->Wait().status().code(), StatusCode::kAborted);
  EXPECT_GE(cluster->NodeAdmissionMetrics(0).cancelled_queued, 1u);
  blocker->Cancel();
  EXPECT_EQ(blocker->Wait().status().code(), StatusCode::kAborted);
}

// ---------------------------------------------------------------------------
// LoadBat validation.
// ---------------------------------------------------------------------------

TEST_F(SessionApi, LoadBatValidatesQualifiedNamesAndDuplicates) {
  auto opts = FastOptions();
  cluster = std::make_unique<RingCluster>(opts);
  auto bat = [] { return bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3})); };

  // Malformed qualified names are rejected up front.
  for (const char* bad : {"plain", "two.parts", "a.b.c.d", ".b.c", "a..c", "a.b."}) {
    auto status = cluster->LoadBat(0, bad, bat());
    EXPECT_TRUE(status.IsInvalidArgument()) << bad << ": " << status.ToString();
  }
  EXPECT_TRUE(cluster->LoadBat(0, "sys.t.id", nullptr).IsInvalidArgument());

  // A valid registration succeeds once; duplicates are rejected (even on a
  // different owner) without clobbering the original directory entry.
  ASSERT_TRUE(cluster->LoadBat(0, "sys.t.id", bat()).ok());
  EXPECT_EQ(cluster->LoadBat(0, "sys.t.id", bat()).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cluster->LoadBat(1, "sys.t.id", bat()).code(), StatusCode::kAlreadyExists);

  ASSERT_TRUE(cluster->LoadBat(1, "sys.c.t_id", bat()).ok());
  cluster->Start();
  auto result = cluster->OpenSession(1)->Execute(kSumPlan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<int64_t>(result->result.scalar()), 6);
}

TEST_F(SessionApi, SubmitRequiresARunningCluster) {
  auto opts = FastOptions();
  cluster = std::make_unique<RingCluster>(opts);
  ASSERT_TRUE(cluster->LoadBat(1, "sys.t.id",
                               bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 4})))
                  .ok());
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());  // sessions may be opened early...
  auto prepared = session->Prepare(kSumPlan);
  ASSERT_TRUE(prepared.ok());  // ...and plans prepared early,
  auto handle = session->Submit(*prepared);
  ASSERT_FALSE(handle.ok());  // ...but submission needs a started cluster.
  EXPECT_EQ(handle.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cluster->OpenSession(7).ok());
}

TEST_F(SessionApi, StopFailsInFlightQueriesCleanly) {
  SetUpStuckCluster();
  auto session = *cluster->OpenSession(0);
  auto prepared = *session.Prepare(kTable1Plan);
  auto stuck = session.Submit(prepared);
  ASSERT_TRUE(stuck.ok());
  while (cluster->NodeAdmissionMetrics(0).running == 0) std::this_thread::yield();
  auto queued = session.Submit(prepared);
  ASSERT_TRUE(queued.ok());

  cluster->Stop();
  EXPECT_EQ(stuck->Wait().status().code(), StatusCode::kAborted);
  EXPECT_EQ(queued->Wait().status().code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace dcy::runtime
