// Example: TPC-H trace-driven scale-out (paper §5.4, Table 4), plus a live
// multi-session replay of a TPC-H-style aggregation on the real ring.
//
// Part 1 generates synthetic TPC-H SF-5 traces (22 templates, calibrated
// operator times, partitioned columns as ring fragments) and replays them on
// simulated rings of growing size, reporting the paper's four columns.
//
// Part 2 exercises the session-based query API end to end: TPC-H-flavoured
// lineitem columns are spread over a live 3-node ring, one revenue
// aggregation plan is prepared once (parse + DcOptimize), and S concurrent
// sessions submit it asynchronously under per-node admission control.
//
// Run: ./tpch_ring [--queries_per_node=200] [--max_nodes=4]
//                  [--sessions=4] [--live_queries=8] [--live_rows=65536]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "simdc/experiments.h"
#include "workload/tpch.h"

using namespace dcy;  // NOLINT

namespace {

constexpr const char* kRevenuePlan = R"(
function user.q_revenue():void;
    X1 := sql.bind("sys","lineitem","l_extendedprice",0);
    X2 := sql.bind("sys","lineitem","l_quantity",0);
    X3 := batcalc.mul(X1, X2);
    X4 := aggr.sum(X3);
end q_revenue;
)";

int RunLiveSessions(uint32_t sessions, uint32_t queries_per_session, size_t rows) {
  runtime::RingCluster::Options opts;
  opts.num_nodes = 3;
  runtime::RingCluster ring(opts);

  Rng rng(42);
  std::vector<double> price(rows), quantity(rows);
  for (auto& p : price) p = rng.UniformDouble(1.0, 1000.0);
  for (auto& q : quantity) q = rng.UniformDouble(1.0, 50.0);
  DCY_CHECK_OK(ring.LoadBat(1, "sys.lineitem.l_extendedprice",
                            bat::Bat::MakeColumn(bat::MakeDblColumn(std::move(price)))));
  DCY_CHECK_OK(ring.LoadBat(2, "sys.lineitem.l_quantity",
                            bat::Bat::MakeColumn(bat::MakeDblColumn(std::move(quantity)))));
  ring.Start();

  // One compile serves every session and every execution.
  auto prepared = ring.Prepare(kRevenuePlan);
  DCY_CHECK_OK(prepared.status());

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::atomic<double> pin_blocked_total{0.0};
  for (uint32_t s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      auto session = ring.OpenSession(s % ring.num_nodes());
      if (!session.ok()) {
        ++failures;
        return;
      }
      double blocked = 0.0;
      for (uint32_t q = 0; q < queries_per_session; ++q) {
        auto result = session->Execute(*prepared);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        blocked += result->timing.pin_blocked_seconds;
      }
      double expected = pin_blocked_total.load();
      while (!pin_blocked_total.compare_exchange_weak(expected, expected + blocked)) {
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const uint32_t total = sessions * queries_per_session;
  std::printf("%u sessions x %u queries: %u ok, %.2f q/s, %.1f ms ring-blocked "
              "per query, %.1f KiB moved\n",
              sessions, queries_per_session, total - failures.load(),
              static_cast<double>(total) / wall,
              pin_blocked_total.load() * 1e3 / total,
              static_cast<double>(ring.TotalDataBytesMoved()) / 1024.0);
  for (core::NodeId n = 0; n < ring.num_nodes(); ++n) {
    const auto m = ring.NodeAdmissionMetrics(n);
    std::printf("  node %u admission: %llu submitted, peak %u running / %u queued\n", n,
                static_cast<unsigned long long>(m.submitted), m.peak_running,
                m.peak_queued);
  }
  const auto cache = ring.plan_cache_stats();
  std::printf("  plan cache: %llu compilations, %llu hits\n",
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.hits));
  return failures.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint32_t queries = static_cast<uint32_t>(flags.GetInt("queries_per_node", 200));
  const uint32_t max_nodes = static_cast<uint32_t>(flags.GetInt("max_nodes", 4));

  std::printf("TPC-H SF-5 on the Data Cyclotron (paper §5.4), %u queries/node @ 8 q/s\n\n",
              queries);

  // Show what the trace generator builds.
  workload::TpchOptions topts;
  topts.queries_per_node = queries;
  auto wl = workload::GenerateTpchWorkload(topts, 2);
  std::printf("dataset: %u fragments from %zu logical columns/indexes, %.2f GB total\n",
              wl.dataset.num_bats(), workload::TpchColumns().size(),
              static_cast<double>(wl.dataset.total_bytes()) / 1e9);
  std::printf("mean useful CPU per query: %.2f core-seconds (target %.2f)\n\n",
              wl.useful_cpu_seconds / (2.0 * queries), topts.target_mean_cpu_sec);

  std::printf("%-8s %9s %12s %16s %7s\n", "#nodes", "exec(sec)", "throughput",
              "throughP/node", "CPU%");
  {
    simdc::TpchExperimentOptions opts;
    opts.num_nodes = 1;
    opts.tpch.queries_per_node = queries;
    opts.tpch.cpu_inflation = 420.0 / 317.0;  // the paper's MonetDB row
    std::printf("%s\n", simdc::FormatTpchRow(simdc::RunTpchExperiment(opts)).c_str());
  }
  for (uint32_t nodes = 1; nodes <= max_nodes; ++nodes) {
    simdc::TpchExperimentOptions opts;
    opts.num_nodes = nodes;
    opts.tpch.queries_per_node = queries;
    std::printf("%s\n", simdc::FormatTpchRow(simdc::RunTpchExperiment(opts)).c_str());
  }

  std::printf("\nReading: throughput scales ~linearly with nodes at near-constant\n"
              "throughput/node, while CPU utilization decays slowly as ring rotation\n"
              "latency grows — the paper's Table 4 shape.\n");

  std::printf("\n== Live ring: prepared TPC-H revenue plan over concurrent sessions ==\n");
  const uint32_t sessions = static_cast<uint32_t>(flags.GetInt("sessions", 4));
  const uint32_t live_queries = static_cast<uint32_t>(flags.GetInt("live_queries", 8));
  const size_t live_rows = static_cast<size_t>(flags.GetInt("live_rows", 64 * 1024));
  return RunLiveSessions(sessions, live_queries, live_rows);
}
