// Chaos suite (ISSUE-7): the live ring under scripted fault schedules and
// node failures. Every scenario asserts the graceful-degradation contract —
// queries either return bit-correct results or fail with a typed status
// (Unavailable / TimedOut / Aborted), never hang, and never leak ring
// request entries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bat/operators.h"
#include "rdma/fault.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"

namespace dcy::runtime {
namespace {

using std::chrono::milliseconds;

constexpr const char* kJoinPlan = R"(
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

/// Fast protocol timers + aggressive failure detection, so crash->recovery
/// completes in tens of milliseconds instead of the production seconds.
RingCluster::Options ChaosOptions(uint32_t nodes = 3) {
  RingCluster::Options opts;
  opts.num_nodes = nodes;
  opts.node.maintenance_period = FromMillis(5);
  opts.node.min_resend_timeout = FromMillis(20);
  opts.resilience.heartbeat_period = FromMillis(5);
  opts.resilience.heartbeat_miss_threshold = 4;
  opts.resilience.link.initial_backoff = FromMillis(1);
  opts.resilience.link.max_backoff = FromMillis(10);
  return opts;
}

bool Eventually(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return pred();
}

class ChaosTest : public ::testing::Test {
 protected:
  /// Injector for fault-schedule tests. A fixture member declared before
  /// `cluster` so it outlives the ring even when an ASSERT exits the test
  /// body early — channels hold a bare pointer to it until Stop().
  rdma::FaultInjector* MakeInjector(uint64_t seed) {
    fault_ = std::make_unique<rdma::FaultInjector>(seed);
    return fault_.get();
  }

  /// t.id on node 1, c.t_id on node 2 — crashing either owner starves the
  /// join plan in a known way.
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

  void ExpectSumCorrect(Session* session, const SubmitOptions& options = {}) {
    auto result = session->Execute(kSumPlan, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(std::get<int64_t>(result->result.scalar()), 10);
  }

  std::unique_ptr<rdma::FaultInjector> fault_;  ///< before cluster: outlives it
  std::unique_ptr<RingCluster> cluster;
};

// ---------------------------------------------------------------------------
// Lossy fabric: queries stay correct, the hop layer absorbs the faults.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, LossyScheduleStillReturnsCorrectAnswers) {
  rdma::FaultInjector& fault = *MakeInjector(0xC0FFEE);
  const rdma::FaultLink all;  // every link, every channel
  fault.AddRule(rdma::FaultInjector::Drop(all, 0.05));
  fault.AddRule(rdma::FaultInjector::Duplicate(all, 0.02));
  fault.AddRule(rdma::FaultInjector::Corrupt(all, 0.02));
  fault.AddRule(rdma::FaultInjector::Delay(all, 0.02, FromMillis(1)));

  auto opts = ChaosOptions();
  opts.fault = &fault;
  SetUpCluster(opts);
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  for (int i = 0; i < 25; ++i) {
    auto result = session->Execute(kJoinPlan);
    ASSERT_TRUE(result.ok()) << "query " << i << ": " << result.status().ToString();
    ASSERT_EQ(result->result.num_rows(), 3u) << "query " << i;
    ExpectSumCorrect(&*session);
  }

  // The schedule actually bit, and the reliability layer actually worked.
  EXPECT_GT(fault.counters().dropped.load(), 0u);
  const auto res = cluster->Resilience();
  EXPECT_GT(res.retransmits + res.frames_gap + res.frames_corrupted +
                res.frames_duplicate + res.link_resets,
            0u);
}

TEST_F(ChaosTest, CorruptingFabricNeverPoisonsAMemoizedFrame) {
  // After a clean warm-up, in which every node hashes both circulating
  // frames, about one BAT frame in five arrives with a bit flipped, and
  // every frame arrives twice. The injector damages a private copy, so the
  // owner's memoized frame stays clean, and the retransmission that repairs
  // a failed hop CRC re-sends it. A node's CRC memo must neither vouch for
  // a damaged copy of a frame it knows nor pass the duplicate of a damaged
  // copy it has already hashed.
  rdma::FaultInjector& fault = *MakeInjector(0xF8A3E);
  rdma::FaultLink data;
  data.channel = rdma::kFaultChannelData;
  constexpr uint64_t kWarmFrames = 24;  // per link, before the first fault
  rdma::FaultRule corrupt = rdma::FaultInjector::Corrupt(data, 0.2);
  corrupt.from_frame = kWarmFrames;
  rdma::FaultRule duplicate = rdma::FaultInjector::Duplicate(data, 1.0);
  duplicate.from_frame = kWarmFrames;
  fault.AddRule(corrupt);
  fault.AddRule(duplicate);

  auto opts = ChaosOptions();
  opts.fault = &fault;
  SetUpCluster(opts);
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  // Both fragments are remote for node 0; spaced queries let them unload,
  // so their owners reload them many times.
  constexpr uint64_t kFragments = 2;
  uint64_t loads = 0;
  for (int i = 0; i < 300 && loads < 6 * kFragments; ++i) {
    auto result = session->Execute(kJoinPlan);
    ASSERT_TRUE(result.ok()) << "query " << i << ": " << result.status().ToString();
    std::multiset<int64_t> got;
    for (size_t r = 0; r < result->result.num_rows(); ++r) {
      got.insert(result->result.Int64At(r, 0));
    }
    ASSERT_EQ(got, (std::multiset<int64_t>{2, 3, 3})) << "query " << i;
    ExpectSumCorrect(&*session);
    std::this_thread::sleep_for(milliseconds(20));
    loads = 0;
    for (core::NodeId n = 0; n < 3; ++n) loads += cluster->NodeMetrics(n).bats_loaded;
  }
  ASSERT_GE(loads, 6 * kFragments) << "fragments were not reloaded often enough";
  // Every damaged copy fails its hop CRC twice: on arrival, and again as
  // its own duplicate.
  fault.ClearRules();
  const uint64_t damaged = fault.counters().corrupted.load();
  EXPECT_GT(damaged, 0u);
  EXPECT_TRUE(Eventually(
      [&] { return cluster->Resilience().frames_corrupted == 2 * damaged; }))
      << cluster->Resilience().frames_corrupted << " failed hop CRCs for " << damaged
      << " damaged copies";
  EXPECT_EQ(cluster->Resilience().decode_failures, 0u);
  // Every reload shipped the frame encoded at the first load.
  EXPECT_LE(cluster->Bandwidth().frames_encoded, kFragments);
}

TEST_F(ChaosTest, PartitionedLinkHealsAndQueriesResume) {
  rdma::FaultInjector& fault = *MakeInjector(0xBEEF);
  // Blackout of 30 consecutive data frames on the 1 -> 2 hop; the sender
  // retransmits through the hole (or resets and the DC resend recovers).
  fault.AddRule(
      rdma::FaultInjector::Partition({1, 2, rdma::kFaultChannelData}, 5, 35));

  auto opts = ChaosOptions();
  opts.fault = &fault;
  SetUpCluster(opts);
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  for (int i = 0; i < 15; ++i) {
    auto result = session->Execute(kJoinPlan);
    ASSERT_TRUE(result.ok()) << "query " << i << ": " << result.status().ToString();
    ASSERT_EQ(result->result.num_rows(), 3u);
  }
  EXPECT_GT(fault.counters().dropped.load(), 0u);
}

// ---------------------------------------------------------------------------
// Node crash: detection, re-splice, fragment re-homing.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, CrashedOwnerIsDetectedAndRingResplices) {
  SetUpCluster(ChaosOptions());
  ASSERT_TRUE(cluster->CrashNode(1).ok());
  EXPECT_FALSE(cluster->IsNodeAlive(1));
  EXPECT_TRUE(cluster->degraded());

  // Heartbeat silence (4 x 5ms) makes a neighbour report the crash.
  EXPECT_TRUE(Eventually([&] { return cluster->Resilience().ring_resplices >= 1; }))
      << "ring never respliced around the dead node";
  const auto res = cluster->Resilience();
  EXPECT_GE(res.nodes_crashed, 1u);
  EXPECT_GE(res.heartbeats_missed, 1u);
  EXPECT_GT(res.last_recovery_seconds, 0.0);
  EXPECT_LT(res.last_recovery_seconds, 5.0);
}

TEST_F(ChaosTest, FragmentsRehomeToTheHeirAndQueriesSucceed) {
  SetUpCluster(ChaosOptions());  // auto_rehome defaults on
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  ExpectSumCorrect(&*session);  // warm path before the crash

  ASSERT_TRUE(cluster->CrashNode(1).ok());  // owner of sys.t.id
  ASSERT_TRUE(Eventually([&] { return cluster->Resilience().rehomed_fragments >= 1; }))
      << "fragments were never re-homed";

  // The heir now owns and serves the dead node's fragment: same answer.
  for (int i = 0; i < 5; ++i) ExpectSumCorrect(&*session);
  const auto res = cluster->Resilience();
  EXPECT_GE(res.ring_resplices, 1u);
  EXPECT_GE(res.rehomed_fragments, 1u);
}

TEST_F(ChaosTest, WithoutRehomingPinsFailTypedUnavailable) {
  auto opts = ChaosOptions();
  opts.resilience.auto_rehome = false;
  SetUpCluster(opts);
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  ExpectSumCorrect(&*session);

  ASSERT_TRUE(cluster->CrashNode(1).ok());  // owner of sys.t.id
  ASSERT_TRUE(Eventually([&] { return cluster->Resilience().ring_resplices >= 1; }));

  // Queries needing the dead node's fragment fail typed — and fast, not by
  // hanging until a deadline.
  auto result = session->Execute(kSumPlan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_GT(cluster->Resilience().unavailable_failures, 0u);
  // No ring request entries leak from the failed query.
  EXPECT_TRUE(Eventually([&] { return cluster->OutstandingRequestEntries(0) == 0; }));
}

TEST_F(ChaosTest, SubmitToACrashedNodeFailsImmediately) {
  SetUpCluster(ChaosOptions());
  ASSERT_TRUE(cluster->CrashNode(2).ok());
  auto session = cluster->OpenSession(2);
  ASSERT_TRUE(session.ok());  // the session object itself is just a handle
  auto result = session->Execute(kSumPlan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
}

TEST_F(ChaosTest, CrashingTheLastAliveNodeIsRefused) {
  SetUpCluster(ChaosOptions(2));
  ASSERT_TRUE(cluster->CrashNode(0).ok());
  EXPECT_FALSE(cluster->CrashNode(1).ok());
  EXPECT_TRUE(cluster->IsNodeAlive(1));
}

TEST_F(ChaosTest, DegradedAdmissionShedsLoad) {
  auto opts = ChaosOptions();
  opts.admission.degraded_max_queued = 0;  // shed everything while degraded
  SetUpCluster(opts);
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  ExpectSumCorrect(&*session);  // healthy ring admits normally

  ASSERT_TRUE(cluster->CrashNode(2).ok());
  auto result = session->Execute(kSumPlan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_GT(cluster->Resilience().shed_degraded, 0u);
}

// ---------------------------------------------------------------------------
// Restart and re-admission.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, RestartedNodeRejoinsAndServesItsFragments) {
  auto opts = ChaosOptions();
  opts.resilience.auto_rehome = false;  // fragments stay with the owner
  SetUpCluster(opts);
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE(cluster->CrashNode(1).ok());
  ASSERT_TRUE(Eventually([&] { return cluster->Resilience().ring_resplices >= 1; }));
  ASSERT_TRUE(cluster->RestartNode(1).ok());
  EXPECT_TRUE(cluster->IsNodeAlive(1));
  EXPECT_FALSE(cluster->degraded());

  // The restarted owner reloads sys.t.id; queries come back bit-correct.
  ASSERT_TRUE(Eventually([&] {
    auto result = session->Execute(kSumPlan);
    return result.ok() && std::get<int64_t>(result->result.scalar()) == 10;
  })) << "restarted node never served its fragment again";
  EXPECT_GE(cluster->Resilience().nodes_restarted, 1u);
  EXPECT_FALSE(cluster->RestartNode(1).ok());  // not crashed: refused
}

TEST_F(ChaosTest, RetryPolicyRidesOutACrashRestartCycle) {
  auto opts = ChaosOptions();
  opts.resilience.auto_rehome = false;
  SetUpCluster(opts);
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE(cluster->CrashNode(1).ok());
  ASSERT_TRUE(Eventually([&] { return cluster->Resilience().ring_resplices >= 1; }));

  std::thread healer([&] {
    std::this_thread::sleep_for(milliseconds(100));
    ASSERT_TRUE(cluster->RestartNode(1).ok());
  });

  SubmitOptions options;
  options.retry.max_attempts = 20;
  options.retry.initial_backoff = milliseconds(10);
  options.retry.max_backoff = milliseconds(50);
  auto result = session->Execute(kSumPlan, options);
  healer.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<int64_t>(result->result.scalar()), 10);
  EXPECT_GE(result->attempts, 2u);  // at least one Unavailable was retried
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation while the ring is degraded (no failure
// detection: pins genuinely block, the client contract must still hold).
// ---------------------------------------------------------------------------

class DegradedBlockingTest : public ChaosTest {
 protected:
  void SetUpBlockedRing() {
    auto opts = ChaosOptions();
    // No failure detection: a silence bound of ~248 days at 5 ms periods
    // means the crash is never detected, the ring never resplices, and
    // requests for the dead owner's fragment silently vanish. This is the
    // worst case: pins block until the client's deadline/cancel fires.
    opts.resilience.heartbeat_miss_threshold = UINT32_MAX;
    SetUpCluster(opts);
    session = std::make_unique<Session>(*cluster->OpenSession(0));
    ASSERT_TRUE(cluster->CrashNode(1).ok());  // owner of sys.t.id
    ASSERT_TRUE(cluster->degraded());
  }

  std::unique_ptr<Session> session;
};

TEST_F(DegradedBlockingTest, DeadlineExpiresBlockedPinWithoutLeaks) {
  SetUpBlockedRing();
  SubmitOptions options;
  options.timeout = milliseconds(150);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = session->Execute(kSumPlan, options);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimedOut)
      << result.status().ToString();
  // It timed out, it did not hang.
  EXPECT_LT(std::chrono::duration_cast<milliseconds>(waited).count(), 5000);
  // The expired query's ring request entries drain — nothing leaks.
  EXPECT_TRUE(Eventually([&] { return cluster->OutstandingRequestEntries(0) == 0; }));
}

TEST_F(DegradedBlockingTest, CancelUnblocksAPinStuckOnADeadOwner) {
  SetUpBlockedRing();
  auto handle = session->Submit(kSumPlan);
  ASSERT_TRUE(handle.ok());
  // Let the query reach its blocked pin, then cancel.
  std::this_thread::sleep_for(milliseconds(50));
  handle->Cancel();
  auto result = handle->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted) << result.status().ToString();
  EXPECT_TRUE(Eventually([&] { return cluster->OutstandingRequestEntries(0) == 0; }));
}

// ---------------------------------------------------------------------------
// Memory pressure: a node's budget bounds the copies of ring BATs its queries
// hold. Owned fragments live in the write log and are never charged, so an
// owner under a budget loads and encodes each fragment once. Queries stay
// bit-correct through budget refusals and across a node failure.
// ---------------------------------------------------------------------------

bat::BatPtr FillerBat(int32_t value) {
  return bat::Bat::MakeColumn(
      bat::MakeIntColumn(std::vector<int32_t>(1000, value)));
}

/// 100k distinct ints: a fragment large enough that a budget of about one
/// of it binds.
bat::BatPtr BigFillerBat() {
  std::vector<int32_t> values(100000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i * 2654435761u);
  }
  return bat::Bat::MakeColumn(bat::MakeIntColumn(values));
}

int64_t SumOf(const bat::BatPtr& b) {
  int64_t sum = 0;
  for (size_t i = 0; i < b->size(); ++i) sum += b->tail()->GetInt64(i);
  return sum;
}

/// A client retry policy that rides out typed memory-pressure refusals.
SubmitOptions PressureRetries() {
  SubmitOptions options;
  options.retry.max_attempts = 20;
  options.retry.initial_backoff = milliseconds(5);
  options.retry.max_backoff = milliseconds(50);
  return options;
}

constexpr const char* kF1SumPlan = R"(
X1 := sql.bind("sys","f1","v",0);
X2 := aggr.sum(X1);
)";

constexpr const char* kF2SumPlan = R"(
X1 := sql.bind("sys","f2","v",0);
X2 := aggr.sum(X1);
)";

constexpr const char* kF3SumPlan = R"(
X1 := sql.bind("sys","f3","v",0);
X2 := aggr.sum(X1);
)";

TEST_F(ChaosTest, OwnedFragmentsNeverEnterABudgetedStore) {
  const auto filler = BigFillerBat();
  auto opts = ChaosOptions();
  // About one filler: node 1 owns four fragments, more than its budget.
  opts.memory.budget_bytes = filler->ByteSize() + 512;
  cluster = std::make_unique<RingCluster>(opts);
  ASSERT_TRUE(cluster
                  ->LoadBat(1, "sys.t.id",
                            bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 4})))
                  .ok());
  for (const char* table : {"f1", "f2", "f3"}) {
    ASSERT_TRUE(cluster->LoadBat(1, std::string("sys.") + table + ".v", filler).ok());
  }
  cluster->Start();
  // The write log holds the owned payloads; no store admits them.
  EXPECT_EQ(cluster->NodeMemory(1).resident_bytes, 0u);

  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  const SubmitOptions options = PressureRetries();
  const int64_t want = SumOf(filler);
  for (int round = 0; round < 4; ++round) {
    for (const char* plan : {kF1SumPlan, kF2SumPlan, kF3SumPlan}) {
      auto result = session->Execute(plan, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(std::get<int64_t>(result->result.scalar()), want);
    }
  }

  // Node 1 encoded each fragment it loaded once, however often it reloaded
  // it: nothing swapped its payload object.
  ASSERT_GT(cluster->NodeMetrics(1).bats_loaded, 3u) << "no fragment was reloaded";
  EXPECT_LE(cluster->Bandwidth().frames_encoded, 4u);
  EXPECT_EQ(cluster->NodeMemory(1).admissions, 0u);
  EXPECT_GT(cluster->NodeMemory(0).admissions, 0u);
}

TEST_F(ChaosTest, RestartedNodeKeepsOnlyTheFragmentsItOwns) {
  auto opts = ChaosOptions();  // auto_rehome on: the heir inherits all three
  cluster = std::make_unique<RingCluster>(opts);
  ASSERT_TRUE(cluster
                  ->LoadBat(1, "sys.t.id",
                            bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 4})))
                  .ok());
  ASSERT_TRUE(cluster->LoadBat(1, "sys.f1.v", FillerBat(1)).ok());
  ASSERT_TRUE(cluster->LoadBat(1, "sys.f2.v", FillerBat(2)).ok());
  cluster->Start();

  ASSERT_TRUE(cluster->CrashNode(1).ok());
  ASSERT_TRUE(Eventually([&] { return cluster->Resilience().rehomed_fragments >= 3; }))
      << "fragments were never re-homed";
  ASSERT_TRUE(cluster->RestartNode(1).ok());

  // The heir owns all three now: the restarted node's store is empty, and
  // it loads nothing while node 0 reads every fragment.
  EXPECT_EQ(cluster->NodeMemory(1).resident_bytes, 0u);
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  ExpectSumCorrect(&*session);
  for (const auto& [plan, want] : {std::pair{kF1SumPlan, 1000}, std::pair{kF2SumPlan, 2000}}) {
    auto result = session->Execute(plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(std::get<int64_t>(result->result.scalar()), want);
  }
  EXPECT_EQ(cluster->NodeMetrics(1).bats_loaded, 0u);
  EXPECT_EQ(cluster->NodeMemory(1).resident_bytes, 0u);
}

TEST_F(ChaosTest, PinsDuringARestartFailRetryableUntilTheOwnerIsBack) {
  // Node 1 owns sys.t.id and 24 fillers of 100k distinct ints, all of which
  // its restart re-registers before the node counts as alive.
  const auto filler = BigFillerBat();
  auto opts = ChaosOptions();
  opts.resilience.auto_rehome = false;  // fragments stay with their owner
  cluster = std::make_unique<RingCluster>(opts);
  ASSERT_TRUE(cluster
                  ->LoadBat(1, "sys.t.id",
                            bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 4})))
                  .ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(cluster->LoadBat(1, "sys.f" + std::to_string(i) + ".v", filler).ok());
  }
  cluster->Start();
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE(cluster->CrashNode(1).ok());
  ASSERT_TRUE(Eventually([&] { return cluster->Resilience().ring_resplices >= 1; }));

  // Pins of the dead owner's fragment, without retries, all through the
  // restart: each one fails with a retryable Unavailable until the owner
  // serves the fragment again, and never with NotFound. The restart waits
  // for the pinner's second attempt, so one attempt ran while the node was
  // down and the next spans the restart, however slowly a pin fails.
  std::atomic<bool> restarted{false};
  std::vector<Status> failures;
  std::atomic<uint64_t> attempts{0};
  std::thread pinner([&] {
    while (!restarted.load()) {
      ++attempts;
      auto result = session->Execute(kSumPlan);
      if (!result.ok()) failures.push_back(result.status());
    }
  });
  const bool pinned_while_down = Eventually([&] { return attempts.load() > 1; }, 20000);
  const Status restart = cluster->RestartNode(1);
  restarted.store(true);
  pinner.join();
  ASSERT_TRUE(restart.ok()) << restart.ToString();
  EXPECT_TRUE(pinned_while_down) << attempts.load() << " attempt(s) before the restart";
  for (const Status& failure : failures) {
    EXPECT_TRUE(failure.IsUnavailable()) << failure.ToString();
  }
  ASSERT_TRUE(Eventually([&] {
    auto result = session->Execute(kSumPlan);
    return result.ok() && std::get<int64_t>(result->result.scalar()) == 10;
  })) << "queries never recovered after restart";
}

TEST_F(ChaosTest, QueriesStayCorrectUnderMemoryPressure) {
  const auto f1 = FillerBat(1);
  auto opts = ChaosOptions();
  // Node 0's budget holds one filler copy plus change: each query's copy
  // must be released before the next one fits.
  opts.memory.budget_bytes = f1->ByteSize() + 512;
  cluster = std::make_unique<RingCluster>(opts);
  ASSERT_TRUE(cluster
                  ->LoadBat(1, "sys.t.id",
                            bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 4})))
                  .ok());
  ASSERT_TRUE(cluster->LoadBat(1, "sys.f1.v", f1).ok());
  ASSERT_TRUE(cluster->LoadBat(1, "sys.f2.v", FillerBat(2)).ok());
  ASSERT_TRUE(cluster->LoadBat(1, "sys.f3.v", FillerBat(3)).ok());
  cluster->Start();
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  // Memory-pressure refusals are typed retryable; the client retry policy
  // must ride them out without ever seeing a wrong answer.
  const SubmitOptions options = PressureRetries();
  const struct {
    const char* plan;
    int64_t expect;
  } queries[] = {{kSumPlan, 10},
                 {kF1SumPlan, 1000},
                 {kF2SumPlan, 2000},
                 {kF3SumPlan, 3000}};
  for (int round = 0; round < 6; ++round) {
    for (const auto& q : queries) {
      auto result = session->Execute(q.plan, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(std::get<int64_t>(result->result.scalar()), q.expect);
      EXPECT_LE(cluster->NodeMemory(0).resident_bytes, opts.memory.budget_bytes);
    }
  }

  const auto m = cluster->NodeMemory(0);
  EXPECT_GT(m.admissions, 0u);
  EXPECT_EQ(m.budget_bytes, opts.memory.budget_bytes);
  EXPECT_EQ(cluster->NodeMemory(1).resident_bytes, 0u);  // the owner holds no copy
}

// ---------------------------------------------------------------------------
// Writes under chaos (ISSUE-9): concurrent writers and readers over a lossy
// ring, with the fold owner crashed mid-compaction. Every acknowledged write
// survives, and every successful read validates bit-identically against a
// plain-C++ reference model at the read's snapshot version.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, AcknowledgedWritesSurviveCrashMidCompaction) {
  rdma::FaultInjector& fault = *MakeInjector(0xD17AD17A);
  const rdma::FaultLink all;
  fault.AddRule(rdma::FaultInjector::Drop(all, 0.03));
  fault.AddRule(rdma::FaultInjector::Duplicate(all, 0.02));
  fault.AddRule(rdma::FaultInjector::Delay(all, 0.02, FromMillis(1)));

  auto opts = ChaosOptions(3);
  opts.fault = &fault;
  opts.compaction.max_delta_count = 6;  // fold while the writers are active
  opts.compaction.interval = FromMillis(5);
  cluster = std::make_unique<RingCluster>(opts);
  // Both columns of sys.u live on node 1: its compactor owns the fold, and
  // crashing it re-homes the table onto an heir whose compactor takes over.
  ASSERT_TRUE(cluster
                  ->LoadBat(1, "sys.u.id",
                            bat::Bat::MakeColumn(bat::MakeLngColumn({1, 2, 3})))
                  .ok());
  ASSERT_TRUE(cluster
                  ->LoadBat(1, "sys.u.v",
                            bat::Bat::MakeColumn(bat::MakeLngColumn({10, 20, 30})))
                  .ok());

  // Reference model: id -> (value, insert version, delete version or 0).
  struct Row {
    int64_t v = 0;
    uint64_t born = 0;
    uint64_t died = 0;
  };
  std::mutex model_mu;
  std::map<int64_t, Row> model = {{1, {10, 0, 0}}, {2, {20, 0, 0}}, {3, {30, 0, 0}}};

  // Crash the fold owner exactly once, mid-fold: after the merge work, before
  // the commit. The commit guard then rejects the fold (Aborted) and the log
  // stands untouched — no acknowledged write rides on the abandoned fold.
  std::atomic<bool> crashed{false};
  std::atomic<bool> crash_ok{false};
  cluster->write_log().SetFoldHookForTest([&](const std::string& table) {
    if (table == "sys.u" && !crashed.exchange(true)) {
      crash_ok.store(cluster->CrashNode(1).ok());
    }
  });
  cluster->Start();

  SubmitOptions write_opts;
  write_opts.retry.max_attempts = 20;
  write_opts.retry.initial_backoff = milliseconds(2);
  write_opts.retry.max_backoff = milliseconds(20);

  // Two writers on the surviving nodes. Insert plans carry no ring pins, so
  // with admission retries every statement must eventually be acknowledged.
  auto writer = [&](core::NodeId node, int64_t first_id) {
    auto session = cluster->OpenSession(node);
    ASSERT_TRUE(session.ok());
    for (int64_t i = 0; i < 12; ++i) {
      const int64_t id = first_id + i;
      auto r = session->Execute("insert into u values (" + std::to_string(id) + ", " +
                                    std::to_string(id * 10) + ")",
                                write_opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(std::get<int64_t>(r->result.scalar()), 1);
      std::lock_guard<std::mutex> lock(model_mu);
      model[id] = {id * 10, r->commit_version, 0};
    }
  };

  // Readers record (snapshot version, observed multiset) pairs; during the
  // crash window a read may fail typed (Unavailable / TimedOut), never wrong.
  std::mutex obs_mu;
  std::vector<std::pair<uint64_t, std::multiset<int64_t>>> observations;
  std::atomic<bool> stop_readers{false};
  auto reader = [&](core::NodeId node) {
    auto session = cluster->OpenSession(node);
    ASSERT_TRUE(session.ok());
    SubmitOptions read_opts;
    read_opts.retry.max_attempts = 4;
    while (!stop_readers.load()) {
      auto r = session->Execute("select v from u", read_opts);
      if (r.ok()) {
        std::multiset<int64_t> got;
        for (size_t i = 0; i < r->result.num_rows(); ++i) {
          got.insert(r->result.Int64At(i, 0));
        }
        std::lock_guard<std::mutex> lock(obs_mu);
        observations.emplace_back(r->snapshot_version, std::move(got));
      }
      std::this_thread::sleep_for(milliseconds(2));
    }
  };

  std::thread w0(writer, 0, 100), w2(writer, 2, 200);
  std::thread r0(reader, 0), r2(reader, 2);
  w0.join();
  w2.join();

  // One delete, concurrent with the readers; it pins the table's columns, so
  // it rides the retry machinery across the re-homing window.
  {
    auto session = cluster->OpenSession(2);
    ASSERT_TRUE(session.ok());
    SubmitOptions del_opts = write_opts;
    uint64_t delete_version = 0;
    ASSERT_TRUE(Eventually(
        [&] {
          auto r = session->Execute("delete from u where id = 2", del_opts);
          if (!r.ok()) return false;
          EXPECT_EQ(std::get<int64_t>(r->result.scalar()), 1);
          delete_version = r->commit_version;
          return true;
        },
        15000));
    std::lock_guard<std::mutex> lock(model_mu);
    model[2].died = delete_version;
  }

  // The owner's first fold fires the hook (crash), the guard abandons that
  // fold, and after the re-homing the heir's compactor folds every pending
  // delta under the next base version.
  EXPECT_TRUE(Eventually([&] { return crashed.load(); }, 10000));
  EXPECT_TRUE(Eventually(
      [&] { return cluster->write_log().Metrics().compactions_abandoned >= 1; }, 10000));
  EXPECT_TRUE(Eventually(
      [&] {
        const auto m = cluster->write_log().Metrics();
        return m.compactions >= 1 && m.pending_deltas == 0;
      },
      20000));
  EXPECT_TRUE(crash_ok.load());

  stop_readers.store(true);
  r0.join();
  r2.join();

  // Reference view at snapshot s.
  const auto expect_at = [&](uint64_t s) {
    std::multiset<int64_t> want;
    for (const auto& [id, row] : model) {
      if (row.born <= s && (row.died == 0 || row.died > s)) want.insert(row.v);
    }
    return want;
  };

  // Every successful read was bit-identical to the reference at its snapshot.
  ASSERT_FALSE(observations.empty());
  for (const auto& [s, got] : observations) {
    EXPECT_EQ(got, expect_at(s)) << "read at snapshot " << s;
  }

  // Every acknowledged write survived the crash and the fold.
  {
    auto session = cluster->OpenSession(0);
    ASSERT_TRUE(session.ok());
    auto r = session->Execute("select v from u", write_opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::multiset<int64_t> final_rows;
    for (size_t i = 0; i < r->result.num_rows(); ++i) {
      final_rows.insert(r->result.Int64At(i, 0));
    }
    EXPECT_EQ(final_rows, expect_at(cluster->write_log().CurrentVersion()));
  }

  const auto m = cluster->write_log().Metrics();
  EXPECT_EQ(m.rows_inserted, 24u);
  EXPECT_EQ(m.rows_deleted, 1u);
  EXPECT_GT(m.deltas_published, 0u);
  EXPECT_GT(m.deltas_merged, 0u);
  EXPECT_GT(m.deltas_folded, 0u);
}

// ---------------------------------------------------------------------------
// Owner pins read the write log's base while a fold replaces it. A pin must
// never find its owner without the fragment and fail NotFound (which no
// retry policy retries). Folding after every commit, every 1 ms, makes any
// such window between a fold and the owner's next read hot.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, OwnerPinsSurviveFoldRepublish) {
  auto opts = ChaosOptions(2);
  opts.compaction.max_delta_count = 1;
  opts.compaction.interval = FromMillis(1);
  cluster = std::make_unique<RingCluster>(opts);
  ASSERT_TRUE(cluster
                  ->LoadBat(0, "sys.u.id",
                            bat::Bat::MakeColumn(bat::MakeLngColumn({1, 2, 3})))
                  .ok());
  ASSERT_TRUE(cluster
                  ->LoadBat(0, "sys.u.v",
                            bat::Bat::MakeColumn(bat::MakeLngColumn({10, 20, 30})))
                  .ok());
  cluster->Start();
  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());

  // Node 1 inserts one row per commit; insert plans pin nothing.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> write_failures{0};
  std::thread writer([&] {
    auto session = cluster->OpenSession(1);
    ASSERT_TRUE(session.ok());
    for (int64_t id = 100; !stop.load(); ++id) {
      auto r = session->Execute("insert into u values (" + std::to_string(id) + ", " +
                                std::to_string(id * 10) + ")");
      if (!r.ok()) write_failures.fetch_add(1);
    }
  });

  // Node 0 owns both columns, so every pin of the count takes the owner's
  // write-log path. Only sys.u is written and every commit inserts one
  // row, so the count at snapshot s is 3 + s.
  SubmitOptions read_opts;
  read_opts.retry.max_attempts = 3;
  uint64_t reads = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_error;
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(10000);
  while (std::chrono::steady_clock::now() < deadline) {
    auto r = session->Execute("select count(*) from u;", read_opts);
    ++reads;
    if (!r.ok()) {
      if (failed++ == 0) first_error = r.status().ToString();
      continue;
    }
    const int64_t want = 3 + static_cast<int64_t>(r->snapshot_version);
    if (r->result.ValueAt(0, 0).AsInt64() != want) ++wrong;
  }
  stop.store(true);
  writer.join();

  const auto m = cluster->write_log().Metrics();
  EXPECT_EQ(failed, 0u) << failed << " of " << reads << " reads failed over "
                        << m.compactions << " folds; first: " << first_error;
  EXPECT_EQ(wrong, 0u) << wrong << " of " << reads << " counts were wrong";
  EXPECT_EQ(write_failures.load(), 0u);
  EXPECT_GT(m.compactions, 0u);
}

// ---------------------------------------------------------------------------
// Heartbeat accounting.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, HeartbeatsFlowOnAHealthyRing) {
  SetUpCluster(ChaosOptions());
  ASSERT_TRUE(Eventually([&] {
    const auto res = cluster->Resilience();
    return res.heartbeats_sent > 0 && res.heartbeats_received > 0;
  }));
  // A healthy ring never suspects anyone.
  EXPECT_EQ(cluster->Resilience().ring_resplices, 0u);
}

TEST_F(ChaosTest, SilentButLiveNeighboursAreFalseSuspicions) {
  rdma::FaultInjector& fault = *MakeInjector(0x51DE);
  // Node 1 hears no control frame (heartbeat, ACK, NACK) for the first 40
  // from each sender: both of its live neighbours go silent to it.
  fault.AddRule(rdma::FaultInjector::Partition(
      {rdma::kAnyEndpoint, 1, rdma::kFaultChannelCtrl}, 0, 40));
  auto opts = ChaosOptions();
  opts.fault = &fault;
  SetUpCluster(opts);

  // Node 1 reports each neighbour, and the membership oracle finds each one
  // alive: the suspicions are false and the ring stays whole.
  ASSERT_TRUE(
      Eventually([&] { return cluster->Resilience().false_suspicions >= 2; }))
      << "node 1 never reported its silent neighbours";
  const auto res = cluster->Resilience();
  EXPECT_EQ(res.ring_resplices, 0u);
  EXPECT_EQ(res.nodes_crashed, 0u);
  EXPECT_FALSE(cluster->degraded());

  auto session = cluster->OpenSession(0);
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 5; ++i) ExpectSumCorrect(&*session);
}

}  // namespace
}  // namespace dcy::runtime
