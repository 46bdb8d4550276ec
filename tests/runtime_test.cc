// End-to-end tests of the live multi-threaded ring: real MAL plans rewritten
// by the DcOptimizer, real BAT payloads circulating over the RDMA-emulating
// channels, results identical to single-node execution.
//
// Queries enter through Session::Execute and come back as typed ResultSets;
// the session API itself (prepare, async submit, cancel, admission) is
// covered in session_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "bat/operators.h"
#include "exec/executor.h"
#include "runtime/ring_cluster.h"

namespace dcy::runtime {
namespace {

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

constexpr const char* kCountPlan = R"(
X1 := sql.bind("sys","t","id",0);
X2 := aggr.count(X1);
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

class RuntimeRing : public ::testing::Test {
 protected:
  void SetUpCluster(RingCluster::Options opts) {
    cluster = std::make_unique<RingCluster>(opts);
    // sys.t(id) on node 1, sys.c(t_id) on node 2: both remote for node 0.
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

  /// One blocking query from a session on `node`.
  Result<QueryResult> Run(core::NodeId node, const std::string& text) {
    DCY_ASSIGN_OR_RETURN(Session session, cluster->OpenSession(node));
    return session.Execute(text);
  }

  static void ExpectTable1Result(const QueryResult& qr) {
    const ResultSet& rs = qr.result;
    ASSERT_EQ(rs.num_columns(), 1u);
    EXPECT_EQ(rs.column(0).table, "sys.c");
    EXPECT_EQ(rs.column(0).name, "t_id");
    // select c.t_id from t, c where c.t_id = t.id -> {2, 3, 3}.
    std::multiset<int64_t> got;
    for (size_t r = 0; r < rs.num_rows(); ++r) got.insert(rs.Int64At(r, 0));
    EXPECT_EQ(got, (std::multiset<int64_t>{2, 3, 3}));
  }

  std::unique_ptr<RingCluster> cluster;
};

TEST_F(RuntimeRing, ExecutesPaperPlanOverTheRing) {
  SetUpCluster(FastOptions());
  auto result = Run(0, kTable1Plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectTable1Result(*result);

  // Both fragments were remote: the ring must actually have moved data.
  EXPECT_GT(cluster->TotalDataBytesMoved(), 0u);
  const auto m0 = cluster->NodeMetrics(0);
  EXPECT_GE(m0.requests_registered, 2u);
  EXPECT_GE(m0.deliveries + m0.pins_local_hit, 2u);
}

TEST_F(RuntimeRing, LocalExecutionOnOwnerNeedsNoRing) {
  SetUpCluster(FastOptions());
  // Node 1 owns sys.t.id; a plan touching only that BAT pins locally.
  auto result = Run(1, R"(
X1 := sql.bind("sys","t","id",0);
X2 := aggr.sum(X1);
)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<int64_t>(result->result.scalar()), 10);  // 1+2+3+4
  EXPECT_EQ(cluster->NodeMetrics(1).pins_blocked, 0u);
}

TEST_F(RuntimeRing, HandWrittenPlansSeeCommittedWritesOnEveryNode) {
  auto opts = FastOptions();
  opts.compaction.enable = false;  // the insert stays a delta over the base
  SetUpCluster(opts);
  auto ins = Run(0, "insert into t (id) values (5)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_EQ(std::get<int64_t>(ins->result.scalar()), 1);

  // The one read path: sql.bind becomes a pin resolved through the write
  // log, so the owner's local base fragment is never read as-is.
  for (core::NodeId node : {core::NodeId{1}, core::NodeId{0}}) {  // owner, non-owner
    auto count = Run(node, kCountPlan);
    ASSERT_TRUE(count.ok()) << "node " << node << ": " << count.status().ToString();
    EXPECT_EQ(std::get<int64_t>(count->result.scalar()), 5) << "node " << node;
  }
}

TEST_F(RuntimeRing, EveryNodeCanRunTheSameQuery) {
  SetUpCluster(FastOptions(4));
  for (core::NodeId n = 0; n < 4; ++n) {
    auto result = Run(n, kTable1Plan);
    ASSERT_TRUE(result.ok()) << "node " << n << ": " << result.status().ToString();
    ExpectTable1Result(*result);
  }
}

TEST_F(RuntimeRing, ConcurrentQueriesFromMultipleNodes) {
  SetUpCluster(FastOptions(4));
  constexpr int kQueriesPerNode = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (core::NodeId n = 0; n < 4; ++n) {
    clients.emplace_back([&, n] {
      for (int q = 0; q < kQueriesPerNode; ++q) {
        auto result = Run(n, kTable1Plan);
        if (!result.ok() || result->result.num_rows() != 3) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(RuntimeRing, SteadyStateQueryTrafficCreatesZeroThreads) {
  SetUpCluster(FastOptions());
  // Warm-up: the first query may lazily construct the shared executor (its
  // fixed pool spawns exactly once per process).
  ASSERT_TRUE(Run(0, kTable1Plan).ok());
  const auto warm = exec::Executor::Default().metrics();

  // Concurrent load from every node: plans run as tasks on the shared pool,
  // not on per-query thread pools.
  constexpr int kQueriesPerNode = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (core::NodeId n = 0; n < 3; ++n) {
    clients.emplace_back([&, n] {
      for (int q = 0; q < kQueriesPerNode; ++q) {
        if (!Run(n, kTable1Plan).ok()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  const auto after = exec::Executor::Default().metrics();
  EXPECT_EQ(after.threads_created, warm.threads_created)
      << "steady-state queries must not spawn threads";
  EXPECT_GT(after.tasks_executed, warm.tasks_executed)
      << "plans should have executed as shared-pool tasks";
}

TEST_F(RuntimeRing, ExecPolicyRidesOptionsIntoTheProcessPolicy) {
  // RAII restore: Start() overwrites the process policy below, and an early
  // ASSERT return must not leak it into later tests.
  exec::ScopedExecPolicy restore(exec::GetExecPolicy());
  auto opts = FastOptions();
  opts.exec_policy.workers = 2;
  opts.exec_policy.morsel_rows = 4096;
  opts.exec_policy.min_parallel_rows = 8192;
  SetUpCluster(opts);
  const auto policy = exec::GetExecPolicy();
  EXPECT_EQ(policy.workers, 2u);
  EXPECT_EQ(policy.morsel_rows, 4096u);
  EXPECT_EQ(policy.min_parallel_rows, 8192u);
  // Queries still work under the custom policy.
  auto result = Run(0, kTable1Plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectTable1Result(*result);
}

TEST_F(RuntimeRing, MissingFragmentFailsTheQuery) {
  SetUpCluster(FastOptions());
  auto result = Run(0, R"(
X1 := sql.bind("sys","ghost","col",0);
X2 := aggr.count(X1);
)");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(RuntimeRing, ResultsMatchAcrossTransferModes) {
  for (auto mode : {rdma::TransferMode::kZeroCopy, rdma::TransferMode::kNicOffload,
                    rdma::TransferMode::kLegacy}) {
    auto opts = FastOptions();
    opts.mode = mode;
    SetUpCluster(opts);
    auto result = Run(0, kTable1Plan);
    ASSERT_TRUE(result.ok())
        << rdma::TransferModeName(mode) << ": " << result.status().ToString();
    ExpectTable1Result(*result);
    cluster->Stop();
  }
}

TEST_F(RuntimeRing, RepeatedQueriesReuseTheHotSet) {
  SetUpCluster(FastOptions());
  ASSERT_TRUE(Run(0, kTable1Plan).ok());
  const auto first = cluster->NodeMetrics(1);  // owner of sys.t.id
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(Run(0, kTable1Plan).ok());
  const auto later = cluster->NodeMetrics(1);
  // The fragment stays hot between queries: few (if any) additional loads.
  EXPECT_LE(later.bats_loaded - first.bats_loaded, 3u);
}

}  // namespace
}  // namespace dcy::runtime
