// Quickstart: the paper's §3/§4 walk-through end to end on a live ring,
// driven through the session-based query API.
//
// 1. Build a tiny two-table database (sys.t, sys.c) and spread it over a
//    3-node in-process Data Cyclotron ring (RDMA-emulating channels).
// 2. Prepare the MAL plan of paper Table 1 once: the cluster parses it and
//    the DcOptimizer rewrites it into paper Table 2 (request/pin/unpin
//    injection); the compiled plan is cached and reusable.
// 3. Open a session on a node that owns neither table, submit the prepared
//    plan asynchronously, and read the typed ResultSet: the fragments are
//    requested, circulate clockwise, and the query picks them up as they
//    flow by.
//
// Run: ./quickstart
#include <cstdio>

#include "bat/operators.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"

using namespace dcy;  // NOLINT

namespace {

constexpr const char* kPlan = R"(
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

}  // namespace

int main() {
  std::printf("== The paper's SQL: select c.t_id from t, c where c.t_id = t.id ==\n\n");

  // A 3-node ring; the two tables live on nodes 1 and 2.
  runtime::RingCluster::Options opts;
  opts.num_nodes = 3;
  runtime::RingCluster ring(opts);

  DCY_CHECK_OK(ring.LoadBat(1, "sys.t.id", bat::Bat::MakeColumn(bat::MakeIntColumn(
                                               {1, 2, 3, 4}))));
  DCY_CHECK_OK(ring.LoadBat(2, "sys.c.t_id", bat::Bat::MakeColumn(bat::MakeIntColumn(
                                                 {2, 3, 3, 5}))));
  ring.Start();

  // Prepare once: parse + DcOptimize are paid here, never per execution.
  auto prepared = ring.Prepare(kPlan);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare error: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("-- MAL plan as submitted (paper Table 1):\n%s\n", kPlan);
  std::printf("-- After the DcOptimizer (paper Table 2):\n%s\n",
              (*prepared)->program().ToString().c_str());

  std::printf("== Executing on node 0 (owns neither table) ==\n");
  auto session = ring.OpenSession(0);
  DCY_CHECK_OK(session.status());

  // Asynchronous submission: Submit returns a handle immediately; Wait()
  // blocks until the fragments have flowed by and the plan finished.
  auto handle = session->Submit(*prepared);
  DCY_CHECK_OK(handle.status());
  auto result = handle->Wait();
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // Typed results: named columns with row/span accessors, no text parsing.
  const runtime::ResultSet& rs = result->result;
  for (size_t c = 0; c < rs.num_columns(); ++c) {
    std::printf("%s.%s (%s)\n", rs.column(c).table.c_str(), rs.column(c).name.c_str(),
                rs.column(c).decl_type.c_str());
  }
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    std::printf("  row %zu: %lld\n", r, static_cast<long long>(rs.Int64At(r, 0)));
  }

  std::printf("\nquery %llu finished in %.1f ms (%.1f ms blocked on ring pins, "
              "%.1f ms queued); ring moved %.1f KiB of BAT payloads\n",
              static_cast<unsigned long long>(result->query_id),
              result->timing.exec_seconds * 1e3,
              result->timing.pin_blocked_seconds * 1e3,
              result->timing.queued_seconds * 1e3,
              static_cast<double>(ring.TotalDataBytesMoved()) / 1024.0);

  const auto metrics = ring.NodeMetrics(0);
  std::printf("node 0 protocol: %llu requests registered, %llu request messages, "
              "%llu pins (%llu blocked), %llu deliveries\n",
              static_cast<unsigned long long>(metrics.requests_registered),
              static_cast<unsigned long long>(metrics.request_msgs_sent),
              static_cast<unsigned long long>(metrics.pins_total),
              static_cast<unsigned long long>(metrics.pins_blocked),
              static_cast<unsigned long long>(metrics.deliveries));

  const auto admission = ring.NodeAdmissionMetrics(0);
  std::printf("node 0 admission: %llu submitted, %llu admitted, peak %u running / "
              "%u queued\n",
              static_cast<unsigned long long>(admission.submitted),
              static_cast<unsigned long long>(admission.admitted),
              admission.peak_running, admission.peak_queued);
  return 0;
}
