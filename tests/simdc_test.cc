// Integration tests: a complete simulated ring executing synthetic
// workloads end-to-end, including determinism, conservation invariants,
// query drain, loss recovery, and the CPU scheduler.
#include <gtest/gtest.h>

#include <memory>

#include "simdc/collector.h"
#include "simdc/experiments.h"
#include "simdc/sim_cluster.h"
#include "workload/dataset.h"
#include "workload/synthetic.h"

namespace dcy::simdc {
namespace {

using workload::Dataset;
using workload::GenerateUniformWorkload;
using workload::InstallDataset;
using workload::MakeUniformDataset;
using workload::UniformWorkloadOptions;

ClusterOptions SmallCluster(uint32_t nodes = 4) {
  ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.bat_queue_capacity = 20 * kMB;
  opts.static_loit = 0.5;
  opts.disk_bytes_per_sec = 400e6;
  opts.seed = 99;
  return opts;
}

struct Harness {
  explicit Harness(ClusterOptions copts, uint32_t num_bats = 60,
                   uint64_t min_size = 100 * kKiB, uint64_t max_size = 1 * kMB) {
    Rng rng(copts.seed);
    dataset = MakeUniformDataset(num_bats, min_size, max_size, copts.num_nodes, &rng);
    ExperimentCollector::Options copts2;
    copts2.num_bats = num_bats;
    collector = std::make_unique<ExperimentCollector>(copts2);
    cluster = std::make_unique<SimCluster>(copts, collector.get());
    InstallDataset(dataset, cluster.get());
  }

  void SubmitUniform(double rate, SimTime duration, uint64_t seed = 5) {
    UniformWorkloadOptions wopts;
    wopts.rate_per_node = rate;
    wopts.duration = duration;
    wopts.shape.min_proc = FromMillis(10);
    wopts.shape.max_proc = FromMillis(20);
    wopts.seed = seed;
    auto per_node = GenerateUniformWorkload(wopts, dataset, cluster->num_nodes());
    for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
      cluster->driver(n).SubmitWorkload(std::move(per_node[n]));
    }
  }

  Dataset dataset;
  std::unique_ptr<ExperimentCollector> collector;
  std::unique_ptr<SimCluster> cluster;
};

TEST(SimClusterTest, AllQueriesFinish) {
  Harness h(SmallCluster());
  h.SubmitUniform(/*rate=*/20, /*duration=*/5 * kSecond);
  h.cluster->Start();
  // Declared after `h`: unwinds first, so the sampler is released while the
  // simulator is still alive even when an ASSERT below returns early.
  ScopedSampling sampling(h.collector.get(), &h.cluster->simulator());
  ASSERT_TRUE(h.cluster->RunUntilQueriesDrain(FromSeconds(300)));
  EXPECT_EQ(h.cluster->total_expected(), 4u * 100u);
  EXPECT_EQ(h.cluster->total_finished(), h.cluster->total_expected());
  EXPECT_EQ(h.cluster->total_failed(), 0u);
}

TEST(SimClusterTest, DeterministicForSeed) {
  auto run = [] {
    Harness h(SmallCluster());
    h.SubmitUniform(20, 5 * kSecond);
    h.cluster->Start();
    h.cluster->RunUntilQueriesDrain(FromSeconds(300));
    return std::make_tuple(h.cluster->last_finish_time(), h.cluster->total_finished(),
                           h.collector->total_loads(), h.collector->total_unloads(),
                           h.cluster->simulator().total_fired());
  };
  EXPECT_EQ(run(), run());
}

TEST(SimClusterTest, ConservationOfHotBats) {
  Harness h(SmallCluster());
  h.SubmitUniform(20, 5 * kSecond);
  h.cluster->Start();
  ASSERT_TRUE(h.cluster->RunUntilQueriesDrain(FromSeconds(300)));
  // Every load is matched by an unload, a loss write-off, or the BAT is
  // still hot in the ring.
  EXPECT_EQ(h.collector->total_loads(),
            h.collector->total_unloads() + h.collector->total_presumed_lost() +
                h.collector->current_ring_bats());
  // With lossless links nothing may be presumed lost.
  EXPECT_EQ(h.collector->total_presumed_lost(), 0u);
  EXPECT_EQ(h.cluster->total_data_drops(), 0u);
}

TEST(SimClusterTest, LossFreeRingServesBlockedPinsWithoutResends) {
  // §4.2.3 resend() exists for lost messages. With none lost, every blocked
  // pin must be served by the rotation, a pin-time re-request or a pending
  // load, never by waiting out the resend timeout. The run is seeded, so
  // the count is exact.
  Harness h(SmallCluster());
  h.SubmitUniform(20, 5 * kSecond);
  h.cluster->Start();
  ASSERT_TRUE(h.cluster->RunUntilQueriesDrain(FromSeconds(300)));
  uint64_t resends = 0, rescues = 0;
  for (uint32_t n = 0; n < h.cluster->num_nodes(); ++n) {
    resends += h.cluster->node(n).metrics().resends;
    rescues += h.cluster->node(n).metrics().resend_rescues;
  }
  EXPECT_EQ(rescues, 0u) << "of " << resends << " resends";
  EXPECT_EQ(h.cluster->total_data_drops(), 0u);
}

TEST(SimClusterTest, RingEmptiesAfterWorkloadEnds) {
  Harness h(SmallCluster());
  h.SubmitUniform(20, 3 * kSecond);
  h.cluster->Start();
  ASSERT_TRUE(h.cluster->RunUntilQueriesDrain(FromSeconds(300)));
  // Keep simulating: with no interest every BAT's LOI decays below any
  // threshold and the owners pull them out.
  h.cluster->RunUntil(h.cluster->simulator().Now() + FromSeconds(120));
  EXPECT_EQ(h.collector->current_ring_bats(), 0u);
  EXPECT_EQ(h.collector->current_ring_bytes(), 0u);
}

TEST(SimClusterTest, QueriesForMissingBatFail) {
  Harness h(SmallCluster());
  // One query asking for a BAT that does not exist anywhere.
  QuerySpec spec;
  spec.id = 1;
  spec.arrival = kSecond;
  spec.steps.push_back(QueryStep{9999, FromMillis(10)});
  h.cluster->driver(0).SubmitWorkload({spec});
  h.cluster->Start();
  ASSERT_TRUE(h.cluster->RunUntilQueriesDrain(FromSeconds(60)));
  EXPECT_EQ(h.cluster->total_failed(), 1u);
  EXPECT_EQ(h.cluster->total_finished(), 0u);
}

TEST(SimClusterTest, RecoverFromWireLoss) {
  ClusterOptions opts = SmallCluster();
  opts.loss_probability = 0.02;  // 2% of messages vanish on the wire
  opts.node.min_resend_timeout = FromMillis(100);
  opts.node.initial_rotation_estimate = FromMillis(100);
  Harness h(opts);
  h.SubmitUniform(10, 3 * kSecond, /*seed=*/11);
  h.cluster->Start();
  // Resend + lost-BAT detection must still drain every query.
  ASSERT_TRUE(h.cluster->RunUntilQueriesDrain(FromSeconds(600)));
  EXPECT_EQ(h.cluster->total_finished(), h.cluster->total_expected());
}

TEST(SimClusterTest, ThroughputScalesWithLoit) {
  // The §5.1 headline at 1/10 scale through the real experiment runner:
  // with the hot set far above ring capacity, a high LOIT must yield more
  // finished queries at a mid-run checkpoint and a lower mean life time
  // than a very low LOIT (paper Figs. 6a/6b).
  auto run = [](double loit) {
    UniformExperimentOptions opts;
    opts.loit = loit;
    opts.scale = 0.1;
    return RunUniformExperiment(opts);
  };
  const ExperimentResult low = run(0.1);
  const ExperimentResult high = run(1.1);
  const auto& low_fin = low.collector->query_series().all().at("finished");
  const auto& high_fin = high.collector->query_series().all().at("finished");
  EXPECT_GT(high_fin.At(50.0), low_fin.At(50.0));
  EXPECT_LT(high.collector->lifetime_stat().mean(), low.collector->lifetime_stat().mean());
  EXPECT_EQ(high.finished + high.failed, high.registered);
}

TEST(CpuSchedulerTest, UnboundedRunsConcurrently) {
  sim::Simulator sim;
  CpuScheduler cpu(&sim, 0);
  int done = 0;
  for (int i = 0; i < 10; ++i) cpu.Submit(100, [&] { ++done; });
  sim.Run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(sim.Now(), 100);  // all in parallel
  EXPECT_EQ(cpu.busy_time(), 1000);
}

TEST(CpuSchedulerTest, BoundedCoresQueueWork) {
  sim::Simulator sim;
  CpuScheduler cpu(&sim, 2);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) cpu.Submit(100, [&] { completions.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_EQ(completions[0], 100);
  EXPECT_EQ(completions[1], 100);
  EXPECT_EQ(completions[2], 200);  // waited for a core
  EXPECT_EQ(completions[3], 200);
}

TEST(CpuSchedulerTest, ZeroDurationTasksComplete) {
  sim::Simulator sim;
  CpuScheduler cpu(&sim, 1);
  bool ran = false;
  cpu.Submit(0, [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace dcy::simdc
