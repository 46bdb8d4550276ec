// Micro-benchmarks of the BAT engine operators (M1): select / hash join /
// merge join / fetch join (against its keyed merge twin) / semijoin / sort /
// group-aggregate throughput, plus the bulk
// BAT serializer on the ring hot path, the morsel-parallel engine with a
// workers axis (par_* cases — select/join/aggregate since issue 3;
// sort/topn, the radix-partitioned join build, and the two-pass string
// gather since issue 5; --workers=N pins one point, --workers=0 sweeps
// 1/2/4/8; --morsel_rows tunes the stealing granule, --scale shrinks the
// parallel input for smoke runs), and the session query API on a live ring
// (query_prepared vs query_reparse, --sessions=1/4/16 concurrency axis).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bat/kernels.h"
#include "bat/operators.h"
#include "bat/serialize.h"
#include "bench/harness.h"
#include "common/flags.h"
#include "common/random.h"
#include "exec/executor.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"

namespace {

using namespace dcy;       // NOLINT
using namespace dcy::bat;  // NOLINT
using bench::RepResult;

BatPtr RandomIntBat(size_t n, int32_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  for (auto& x : v) x = static_cast<int32_t>(rng.UniformInt(0, domain));
  return Bat::MakeColumn(MakeIntColumn(std::move(v)));
}

std::map<std::string, std::string> Params(size_t n, int iters) {
  return {{"n", std::to_string(n)}, {"iters", std::to_string(iters)}};
}

std::map<std::string, std::string> ParParams(size_t n, size_t workers,
                                             size_t morsel_rows) {
  return {{"n", std::to_string(n)},
          {"workers", std::to_string(workers)},
          {"morsel_rows", std::to_string(morsel_rows)}};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::Harness harness("micro_engine", argc, argv, /*default_repeats=*/5,
                         /*default_warmup=*/1);
  const int iters = static_cast<int>(flags.GetInt("iters", 20));
  // --compression=0 makes every frame column pass-through; the encoded cases
  // then measure the plain-string/plain-int paths on the same data.
  const bool compression = flags.GetBool("compression", true);
  enc::SetWireCompression(compression);

  for (size_t n : {size_t{1} << 12, size_t{1} << 16, size_t{1} << 20}) {
    auto b = RandomIntBat(n, 1000, 1);
    harness.Run("select_range/" + std::to_string(n), Params(n, iters), [&] {
      for (int i = 0; i < iters; ++i) {
        auto r = SelectRange(b, Value::MakeInt(100), Value::MakeInt(300));
      }
      RepResult rep;
      rep.items = static_cast<double>(n) * iters;
      return rep;
    });
  }

  for (size_t n : {size_t{1} << 12, size_t{1} << 16}) {
    auto l = RandomIntBat(n, static_cast<int32_t>(n / 4), 2);
    auto r = Reverse(RandomIntBat(n / 4, static_cast<int32_t>(n / 4), 3));
    harness.Run("hash_join/" + std::to_string(n), Params(n, iters), [&] {
      for (int i = 0; i < iters; ++i) {
        auto out = Join(l, r);
      }
      RepResult rep;
      rep.items = static_cast<double>(n) * iters;
      return rep;
    });
  }

  for (size_t n : {size_t{1} << 12, size_t{1} << 16}) {
    Rng rng(4);
    std::vector<int32_t> lk(n), rk(n / 4);
    for (auto& x : lk) x = static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(n)));
    for (auto& x : rk) x = static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(n)));
    std::sort(lk.begin(), lk.end());
    std::sort(rk.begin(), rk.end());
    Bat::Properties lp;
    lp.tsorted = true;
    lp.hsorted = true;
    auto l = std::make_shared<Bat>(MakeDenseOid(0, n), MakeIntColumn(std::move(lk)), lp);
    Bat::Properties rp;
    rp.hsorted = true;
    auto r = std::make_shared<Bat>(MakeIntColumn(std::move(rk)), MakeDenseOid(0, n / 4), rp);
    harness.Run("merge_join/" + std::to_string(n), Params(n, iters), [&] {
      for (int i = 0; i < iters; ++i) {
        auto out = Join(BatPtr(l), BatPtr(r));
      }
      RepResult rep;
      rep.items = static_cast<double>(n) * iters;
      return rep;
    });
  }

  // The leftjoin every SQL plan runs per live column after a selection:
  // [dense, sorted positions] against a [dense, lng] column, through ~98%
  // of its rows (the Q1 shape). fetch_join takes the positional path; the
  // keyed twin holds the same head as a sorted oid column, so Join takes
  // the merge path instead. validate_bench_json.py gates their ratio, also
  // on one-repeat smoke runs, so each row runs one untimed join and then
  // probes at least 2^22 rows per repeat: a lone stall or first-touch page
  // fault must not decide the ratio.
  for (size_t n : {size_t{1} << 16, size_t{1} << 20}) {
    const int twin_iters = std::max(iters, static_cast<int>((size_t{1} << 22) / n));
    Rng rng(9);
    std::vector<int64_t> values(n);
    for (auto& v : values) v = rng.UniformInt(0, int64_t{1} << 40);
    std::vector<Oid> positions;
    positions.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.UniformU64(0, 49) != 0) positions.push_back(i);
    }
    const size_t m = positions.size();
    Bat::Properties lp;
    lp.hsorted = lp.hkey = lp.tsorted = lp.tkey = true;
    auto l = std::make_shared<Bat>(MakeDenseOid(0, m),
                                   MakeOidColumn(std::move(positions)), lp);
    auto column = Bat::MakeColumn(MakeLngColumn(std::move(values)));
    std::vector<Oid> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = i;
    auto keyed = std::make_shared<Bat>(MakeOidColumn(std::move(keys)), column->tail(),
                                       column->props());
    const std::pair<std::string, BatPtr> twins[] = {{"fetch_join/", column},
                                                    {"fetch_join_keyed/", keyed}};
    for (const auto& twin : twins) {
      const BatPtr& r = twin.second;
      auto warm = LeftJoin(l, r);
      harness.Run(twin.first + std::to_string(n), Params(n, twin_iters), [&] {
        for (int i = 0; i < twin_iters; ++i) {
          auto out = LeftJoin(l, r);
        }
        RepResult rep;
        rep.items = static_cast<double>(m) * twin_iters;
        return rep;
      });
    }
  }

  for (size_t n : {size_t{1} << 12, size_t{1} << 16}) {
    auto b = RandomIntBat(n, 1 << 30, 5);
    harness.Run("sort/" + std::to_string(n), Params(n, iters), [&] {
      for (int i = 0; i < iters; ++i) {
        auto r = Sort(b);
      }
      RepResult rep;
      rep.items = static_cast<double>(n) * iters;
      return rep;
    });
  }

  for (size_t n : {size_t{1} << 12, size_t{1} << 16}) {
    auto b = RandomIntBat(n, 64, 6);
    harness.Run("group_aggregate/" + std::to_string(n), Params(n, iters), [&] {
      for (int i = 0; i < iters; ++i) {
        auto gids = GroupId(b);
        auto sums = SumPerGroup(b, *gids, 65);
      }
      RepResult rep;
      rep.items = static_cast<double>(n) * iters;
      return rep;
    });
  }

  for (size_t n : {size_t{1} << 12, size_t{1} << 16}) {
    auto l = Reverse(RandomIntBat(n, static_cast<int32_t>(n / 2), 7));
    auto r = Reverse(RandomIntBat(n / 4, static_cast<int32_t>(n / 2), 8));
    harness.Run("semijoin/" + std::to_string(n), Params(n, iters), [&] {
      for (int i = 0; i < iters; ++i) {
        auto in = SemiJoin(l, r);
      }
      RepResult rep;
      rep.items = static_cast<double>(n) * iters;
      return rep;
    });
  }

  // Morsel-parallel engine: the same hot operators at ring-fragment scale
  // (default 4M rows) across a worker axis, so run-over-run reports expose
  // the scaling curve. workers=1 is the sequential engine (the parallel
  // kernels fall back below min_parallel_rows and when only one worker
  // would participate) — its p50 is the no-regression baseline.
  {
    const auto scale = flags.GetDouble("scale", 1.0);
    const size_t par_rows = std::max<size_t>(
        size_t{1} << 16, static_cast<size_t>(scale * static_cast<double>(1 << 22)));
    const size_t morsel_rows =
        static_cast<size_t>(flags.GetInt("morsel_rows", 64 * 1024));
    const int64_t pinned = flags.GetInt("workers", 0);
    std::vector<size_t> axis;
    if (pinned > 0) {
      axis.push_back(static_cast<size_t>(pinned));
    } else {
      axis = {1, 2, 4, 8};
    }

    auto probe = RandomIntBat(par_rows, static_cast<int32_t>(par_rows / 4), 10);
    auto build = Reverse(RandomIntBat(par_rows / 4, static_cast<int32_t>(par_rows / 4), 11));
    auto values = RandomIntBat(par_rows, 1 << 20, 12);
    auto gids = RandomIntBat(par_rows, 255, 13);
    auto sort_input = RandomIntBat(par_rows, 1 << 30, 15);
    // Sparse 64-bit build keys: the partitioned open-addressing build (a
    // compact domain would collapse to direct addressing).
    std::vector<int64_t> build_keys(par_rows);
    {
      Rng rng(16);
      for (auto& k : build_keys) {
        k = static_cast<int64_t>(rng.UniformU64(0, ~uint64_t{0} >> 1));
      }
    }
    // String gather input: par_rows short strings, gathered in random order.
    BatPtr str_bat;
    std::vector<uint32_t> str_idx(par_rows);
    {
      Rng rng(17);
      ColumnBuilder sb(ValType::kStr);
      std::string s;
      for (size_t i = 0; i < par_rows; ++i) {
        s = "v" + std::to_string(rng.UniformU64(0, 1 << 16));
        sb.AppendString(s);
      }
      str_bat = Bat::MakeColumn(sb.Finish());
      for (auto& x : str_idx) {
        x = static_cast<uint32_t>(rng.UniformU64(0, par_rows - 1));
      }
    }
    // Encoded-kernel inputs, built through the wire round trip so the cases
    // measure the kernels on exactly what the ring delivers: a
    // low-cardinality string fragment (a dictionary column when compression
    // is on, a plain heap when off) and a sorted int64 fragment (a FOR
    // frame when compression is on).
    BatPtr dict_bat;
    std::string sorted_frame;
    const std::string dict_needle = "grp-0042";
    {
      Rng rng(18);
      ColumnBuilder sb(ValType::kStr);
      std::string s;
      char buf[16];
      for (size_t i = 0; i < par_rows; ++i) {
        std::snprintf(buf, sizeof(buf), "grp-%04d",
                      static_cast<int>(rng.UniformU64(0, 63)));
        sb.AppendString(buf);
      }
      auto plain = Bat::MakeColumn(sb.Finish());
      dict_bat = *Deserialize(Serialize(*plain));
      std::vector<int64_t> sorted(par_rows);
      int64_t acc = 1'000'000;
      for (auto& x : sorted) {
        acc += static_cast<int64_t>(rng.UniformU64(0, 7));
        x = acc;
      }
      auto sorted_bat = Bat::MakeColumn(MakeLngColumn(std::move(sorted)));
      sorted_bat->tail()->IsSorted();  // memoize: the FOR codec trigger
      SerializeInto(*sorted_bat, &sorted_frame);
    }

    for (size_t w : axis) {
      exec::ExecPolicy policy;
      policy.workers = w;
      policy.morsel_rows = morsel_rows;
      policy.min_parallel_rows = size_t{1} << 16;
      exec::ScopedExecPolicy scoped(policy);
      const std::string suffix = "/" + std::to_string(par_rows) + "/w" + std::to_string(w);

      harness.Run("par_select_range" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        auto r = SelectRange(values, Value::MakeInt(1 << 18), Value::MakeInt(3 << 18));
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["selected"] = r.ok() ? static_cast<double>((*r)->size()) : -1.0;
        return rep;
      });

      harness.Run("par_hash_join" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        auto out = Join(probe, build);
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["matches"] = out.ok() ? static_cast<double>((*out)->size()) : -1.0;
        return rep;
      });

      harness.Run("par_aggregate" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        auto total = Sum(values);
        auto per_group = SumPerGroup(values, gids, 256);
        auto counts = CountPerGroup(gids, 256);
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["sum_ok"] =
            total.ok() && per_group.ok() && counts.ok() ? 1.0 : 0.0;
        return rep;
      });

      harness.Run("par_sort" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        auto r = Sort(sort_input);
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["rows"] = r.ok() ? static_cast<double>((*r)->size()) : -1.0;
        return rep;
      });

      harness.Run("par_topn" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        auto r = TopN(sort_input, 100, /*descending=*/true);
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["rows"] = r.ok() ? static_cast<double>((*r)->size()) : -1.0;
        return rep;
      });

      harness.Run("par_join_build" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        // Isolates the radix-partitioned hash build (no probe).
        kernels::PartitionedTable table(build_keys.data(), build_keys.size());
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["partitions"] = static_cast<double>(table.partitions());
        return rep;
      });

      harness.Run("par_str_gather" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        // Two-pass parallel string materialization (size scan + splice).
        auto col = kernels::Gather(*str_bat->tail(), str_idx.data(), str_idx.size());
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["heap_bytes"] = static_cast<double>(col->ByteSize());
        return rep;
      });

      harness.Run("dict_select" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        // String equality on the ring-delivered column: one dictionary
        // binary search + a SIMD integer scan over the codes when encoded,
        // a full heap scan when not.
        auto r = Select(dict_bat, Value::MakeStr(dict_needle));
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["selected"] = r.ok() ? static_cast<double>((*r)->size()) : -1.0;
        return rep;
      });

      harness.Run("for_unpack" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        // Decode of a sorted int64 fragment: FOR unpack (SIMD gather +
        // shift) when encoded, a plain memcpy when not.
        auto restored = Deserialize(sorted_frame);
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["rows"] =
            restored.ok() ? static_cast<double>((*restored)->size()) : -1.0;
        return rep;
      });

      harness.Run("encoded_roundtrip" + suffix, ParParams(par_rows, w, morsel_rows), [&] {
        // Full encode + decode of the low-cardinality string fragment (the
        // string-heavy counterpart of serialize_roundtrip below).
        std::string frame;
        SerializeInto(*dict_bat, &frame);
        auto restored = Deserialize(frame);
        RepResult rep;
        rep.items = static_cast<double>(par_rows);
        rep.metrics["frame_bytes"] =
            restored.ok() ? static_cast<double>(frame.size()) : -1.0;
        return rep;
      });
    }
  }

  // Query API control path on a live 3-node ring (small fragments, so the
  // numbers isolate plan preparation + submission + admission cost, not scan
  // cost): prepared-vs-reparse execution, and a concurrent-sessions axis
  // (--sessions=N pins one point, default sweeps 1/4/16) where submissions
  // beyond the per-node admission cap degrade to FIFO queuing.
  {
    const auto scale = flags.GetDouble("scale", 1.0);
    const size_t ring_rows = std::max<size_t>(
        size_t{1} << 10, static_cast<size_t>(scale * static_cast<double>(1 << 16)));
    runtime::RingCluster::Options ropts;
    ropts.num_nodes = 3;
    ropts.node.load_all_period = FromMillis(2);
    ropts.node.maintenance_period = FromMillis(10);
    ropts.node.adapt_period = FromMillis(10);
    ropts.node.initial_rotation_estimate = FromMillis(5);
    runtime::RingCluster ring(ropts);
    {
      Rng rng(14);
      std::vector<int32_t> t(ring_rows), c(ring_rows);
      for (auto& x : t) x = static_cast<int32_t>(rng.UniformInt(0, 1 << 20));
      for (auto& x : c) x = static_cast<int32_t>(rng.UniformInt(0, 1 << 20));
      DCY_CHECK_OK(ring.LoadBat(1, "sys.t.id",
                                Bat::MakeColumn(MakeIntColumn(std::move(t)))));
      DCY_CHECK_OK(ring.LoadBat(2, "sys.c.t_id",
                                Bat::MakeColumn(MakeIntColumn(std::move(c)))));
    }
    ring.Start();

    const std::string plan_text = R"(
X1 := sql.bind("sys","t","id",0);
X2 := sql.bind("sys","c","t_id",0);
X3 := batcalc.add(X1, X2);
X4 := aggr.sum(X3);
)";
    const int query_iters = std::max(1, static_cast<int>(iters / 4));
    runtime::PrepareOptions no_cache;
    no_cache.use_cache = false;
    auto warm = ring.OpenSession(0);
    DCY_CHECK_OK(warm.status());
    DCY_CHECK_OK(warm->Execute(plan_text).status());  // hot-set warmup

    harness.Run("query_reparse/" + std::to_string(ring_rows),
                Params(ring_rows, query_iters), [&] {
                  double blocked = 0.0;
                  for (int i = 0; i < query_iters; ++i) {
                    auto p = ring.Prepare(plan_text, no_cache);
                    DCY_CHECK_OK(p.status());
                    auto r = warm->Execute(*p);
                    DCY_CHECK_OK(r.status());
                    blocked += r->timing.pin_blocked_seconds;
                  }
                  RepResult rep;
                  rep.items = query_iters;
                  rep.metrics["pin_blocked_ms_per_query"] = blocked * 1e3 / query_iters;
                  return rep;
                });

    auto prepared = ring.Prepare(plan_text);
    DCY_CHECK_OK(prepared.status());
    harness.Run("query_prepared/" + std::to_string(ring_rows),
                Params(ring_rows, query_iters), [&] {
                  double blocked = 0.0;
                  for (int i = 0; i < query_iters; ++i) {
                    auto r = warm->Execute(*prepared);
                    DCY_CHECK_OK(r.status());
                    blocked += r->timing.pin_blocked_seconds;
                  }
                  RepResult rep;
                  rep.items = query_iters;
                  rep.metrics["pin_blocked_ms_per_query"] = blocked * 1e3 / query_iters;
                  return rep;
                });

    const int64_t pinned_sessions = flags.GetInt("sessions", 0);
    std::vector<size_t> session_axis;
    if (pinned_sessions > 0) {
      session_axis.push_back(static_cast<size_t>(pinned_sessions));
    } else {
      session_axis = {1, 4, 16};
    }
    for (size_t s : session_axis) {
      harness.Run(
          "concurrent_sessions/" + std::to_string(s),
          {{"sessions", std::to_string(s)}, {"iters", std::to_string(query_iters)}},
          [&] {
            std::vector<std::thread> clients;
            std::atomic<int> failures{0};
            for (size_t k = 0; k < s; ++k) {
              clients.emplace_back([&, k] {
                auto session = ring.OpenSession(k % ring.num_nodes());
                if (!session.ok()) {
                  ++failures;
                  return;
                }
                for (int i = 0; i < query_iters; ++i) {
                  if (!session->Execute(*prepared).ok()) ++failures;
                }
              });
            }
            for (auto& t : clients) t.join();
            DCY_CHECK(failures.load() == 0) << "concurrent sessions failed";
            uint32_t peak_running = 0, peak_queued = 0;
            for (core::NodeId n = 0; n < ring.num_nodes(); ++n) {
              const auto m = ring.NodeAdmissionMetrics(n);
              peak_running = std::max(peak_running, m.peak_running);
              peak_queued = std::max(peak_queued, m.peak_queued);
            }
            RepResult rep;
            rep.items = static_cast<double>(s) * query_iters;
            rep.metrics["peak_running"] = peak_running;
            rep.metrics["peak_queued"] = peak_queued;
            return rep;
          });
    }
  }

  // Wire-compression accounting over representative fragments (string-heavy,
  // sorted-int, random-int), mirroring the ring-level `bandwidth` row of
  // bench_table4_tpch. No ring hops here, so bytes/hop is bytes/frame.
  {
    const size_t n = size_t{1} << 16;
    std::vector<BatPtr> frags;
    {
      Rng rng(19);
      ColumnBuilder sb(ValType::kStr);
      char buf[16];
      for (size_t i = 0; i < n; ++i) {
        std::snprintf(buf, sizeof(buf), "grp-%04d",
                      static_cast<int>(rng.UniformU64(0, 63)));
        sb.AppendString(buf);
      }
      frags.push_back(Bat::MakeColumn(sb.Finish()));
      std::vector<int64_t> sorted(n);
      int64_t acc = 1'000'000;
      for (auto& x : sorted) {
        acc += static_cast<int64_t>(rng.UniformU64(0, 7));
        x = acc;
      }
      frags.push_back(Bat::MakeColumn(MakeLngColumn(std::move(sorted))));
      frags.back()->tail()->IsSorted();  // memoize: the FOR codec trigger
      frags.push_back(RandomIntBat(n, 1 << 30, 20));
    }
    CodecStats total;
    for (const BatPtr& f : frags) {
      const FrameEncoder e(*f);
      total.raw_bytes += e.stats().raw_bytes;
      total.wire_bytes += e.stats().wire_bytes;
      total.dict_columns += e.stats().dict_columns;
      total.for_columns += e.stats().for_columns;
      total.plain_columns += e.stats().plain_columns;
    }
    harness.Run("bandwidth",
                {{"n", std::to_string(n)},
                 {"compression", compression ? "1" : "0"}},
                [&] {
                  RepResult rep;
                  rep.items = static_cast<double>(frags.size());
                  rep.metrics["frames"] = static_cast<double>(frags.size());
                  rep.metrics["raw_bytes"] = static_cast<double>(total.raw_bytes);
                  rep.metrics["wire_bytes"] = static_cast<double>(total.wire_bytes);
                  rep.metrics["bytes_per_hop"] =
                      static_cast<double>(total.wire_bytes) /
                      static_cast<double>(frags.size());
                  rep.metrics["encoded_vs_raw_bytes"] =
                      total.raw_bytes ? static_cast<double>(total.wire_bytes) /
                                            static_cast<double>(total.raw_bytes)
                                      : 1.0;
                  rep.metrics["dict_columns"] = static_cast<double>(total.dict_columns);
                  rep.metrics["for_columns"] = static_cast<double>(total.for_columns);
                  rep.metrics["plain_columns"] =
                      static_cast<double>(total.plain_columns);
                  rep.metrics["compression"] = compression ? 1.0 : 0.0;
                  return rep;
                });
  }

  // Ring hot path: encode + decode round trip of a column fragment, with a
  // reused frame (the pooled-buffer pattern of runtime/ring_cluster).
  for (size_t n : {size_t{1} << 12, size_t{1} << 16, size_t{1} << 20}) {
    auto b = RandomIntBat(n, 1 << 30, 9);
    std::string frame;
    harness.Run("serialize_roundtrip/" + std::to_string(n), Params(n, iters), [&] {
      uint64_t bytes = 0;
      for (int i = 0; i < iters; ++i) {
        SerializeInto(*b, &frame);
        auto restored = Deserialize(frame);
        bytes += frame.size();
      }
      RepResult rep;
      rep.items = static_cast<double>(n) * iters;
      rep.metrics["frame_bytes"] = static_cast<double>(bytes) / iters;
      return rep;
    });
  }

  return harness.Finish();
}
