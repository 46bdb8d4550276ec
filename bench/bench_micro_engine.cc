// Micro-benchmarks of the BAT engine operators (M1): select / hash join /
// merge join / fetch join (against its keyed merge twin) / semijoin / sort /
// group-aggregate throughput, plus the frame CRC (against its scalar twin)
// and the bulk BAT serializer on the ring hot path, the kernels on
// ring-delivered encoded fragments and the presized string gather at
// fragment scale (dict_select, for_unpack, encoded_roundtrip, str_gather;
// --scale shrinks their 4M-row input for smoke runs), and the session query
// API on a live ring (query_prepared vs query_reparse, --sessions=1/4/16
// concurrency axis). Every kernel runs on the calling thread.
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
#include "runtime/ring_cluster.h"
#include "runtime/session.h"

namespace {

using namespace dcy;       // NOLINT
using namespace dcy::bat;  // NOLINT
using bench::Harness;
using bench::RepResult;

/// Timed rounds of each twin pair whose ratio validate_bench_json.py gates,
/// however few repeats --repeat asks for.
constexpr int kTwinRounds = 5;

BatPtr RandomIntBat(size_t n, int32_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  for (auto& x : v) x = static_cast<int32_t>(rng.UniformInt(0, domain));
  return Bat::MakeColumn(MakeIntColumn(std::move(v)));
}

std::map<std::string, std::string> Params(size_t n, int iters) {
  return {{"n", std::to_string(n)}, {"iters", std::to_string(iters)}};
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
  // probes at least 2^22 rows per repeat, and the twins alternate their
  // repeats over at least kTwinRounds rounds: a lone stall, a first-touch
  // page fault or a busy neighbour must not decide the ratio.
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
    const auto twin = [&](const std::string& prefix, BatPtr r) {
      auto warm = LeftJoin(l, r);
      return Harness::TwinCase{
          prefix + std::to_string(n), Params(n, twin_iters), [&, r] {
            for (int i = 0; i < twin_iters; ++i) {
              auto out = LeftJoin(l, r);
            }
            RepResult rep;
            rep.items = static_cast<double>(m) * twin_iters;
            return rep;
          }};
    };
    harness.RunAlternating(twin("fetch_join/", column), twin("fetch_join_keyed/", keyed),
                           kTwinRounds);
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

  // Ring-fragment scale (default 4M rows): the string gather and the
  // kernels on encoded fragments.
  {
    const auto scale = flags.GetDouble("scale", 1.0);
    const size_t rows = std::max<size_t>(
        size_t{1} << 16, static_cast<size_t>(scale * static_cast<double>(1 << 22)));
    const std::string suffix = "/" + std::to_string(rows);
    const std::map<std::string, std::string> params = {{"n", std::to_string(rows)}};
    // String gather input: `rows` short strings, gathered in random order.
    BatPtr str_bat;
    std::vector<uint32_t> str_idx(rows);
    {
      Rng rng(17);
      ColumnBuilder sb(ValType::kStr);
      std::string s;
      for (size_t i = 0; i < rows; ++i) {
        s = "v" + std::to_string(rng.UniformU64(0, 1 << 16));
        sb.AppendString(s);
      }
      str_bat = Bat::MakeColumn(sb.Finish());
      for (auto& x : str_idx) {
        x = static_cast<uint32_t>(rng.UniformU64(0, rows - 1));
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
      for (size_t i = 0; i < rows; ++i) {
        std::snprintf(buf, sizeof(buf), "grp-%04d",
                      static_cast<int>(rng.UniformU64(0, 63)));
        sb.AppendString(buf);
      }
      auto plain = Bat::MakeColumn(sb.Finish());
      dict_bat = *Deserialize(Serialize(*plain));
      std::vector<int64_t> sorted(rows);
      int64_t acc = 1'000'000;
      for (auto& x : sorted) {
        acc += static_cast<int64_t>(rng.UniformU64(0, 7));
        x = acc;
      }
      auto sorted_bat = Bat::MakeColumn(MakeLngColumn(std::move(sorted)));
      sorted_bat->tail()->IsSorted();  // memoize: the FOR codec trigger
      SerializeInto(*sorted_bat, &sorted_frame);
    }

    harness.Run("str_gather" + suffix, params, [&] {
      // Presized string materialization (length sum, then one memcpy per
      // string).
      auto col = kernels::Gather(*str_bat->tail(), str_idx.data(), str_idx.size());
      RepResult rep;
      rep.items = static_cast<double>(rows);
      rep.metrics["heap_bytes"] = static_cast<double>(col->ByteSize());
      return rep;
    });

    harness.Run("dict_select" + suffix, params, [&] {
      // String equality on the ring-delivered column: one dictionary
      // binary search + a SIMD integer scan over the codes when encoded,
      // a full heap scan when not.
      auto r = Select(dict_bat, Value::MakeStr(dict_needle));
      RepResult rep;
      rep.items = static_cast<double>(rows);
      rep.metrics["selected"] = r.ok() ? static_cast<double>((*r)->size()) : -1.0;
      return rep;
    });

    harness.Run("for_unpack" + suffix, params, [&] {
      // Decode of a sorted int64 fragment: FOR unpack (SIMD gather +
      // shift) when encoded, a plain memcpy when not.
      auto restored = Deserialize(sorted_frame);
      RepResult rep;
      rep.items = static_cast<double>(rows);
      rep.metrics["rows"] =
          restored.ok() ? static_cast<double>((*restored)->size()) : -1.0;
      return rep;
    });

    harness.Run("encoded_roundtrip" + suffix, params, [&] {
      // Full encode + decode of the low-cardinality string fragment (the
      // string-heavy counterpart of serialize_roundtrip below).
      std::string frame;
      SerializeInto(*dict_bat, &frame);
      auto restored = Deserialize(frame);
      RepResult rep;
      rep.items = static_cast<double>(rows);
      rep.metrics["frame_bytes"] =
          restored.ok() ? static_cast<double>(frame.size()) : -1.0;
      return rep;
    });
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
  // bench_table4_tpch. No ring hops here, so bytes/hop is bytes/frame, and
  // each fragment is encoded once, so frames == loads == fragments.
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
                  rep.metrics["loads"] = static_cast<double>(frags.size());
                  rep.metrics["fragments"] = static_cast<double>(frags.size());
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

  // The frame checksum every hop verifies: bat::Crc32 on its dispatched
  // kernel, and the twin on the same buffer with the scalar paths forced
  // (slicing-by-8) inside its own repeats. clmul reports which kernel the
  // row ran. validate_bench_json.py gates their ratio, also on one-repeat
  // smoke runs, so each repeat hashes at least 64 MiB and the twins
  // alternate over at least kTwinRounds rounds: a lone stall must not
  // decide it.
  for (size_t n : {size_t{64} << 10, size_t{4} << 20}) {
    const int crc_iters = std::max(iters, static_cast<int>((size_t{64} << 20) / n));
    Rng rng(10);
    std::string buf(n, '\0');
    for (auto& c : buf) c = static_cast<char>(rng.Next());
    const auto twin = [&](bool scalar) {
      return Harness::TwinCase{
          (scalar ? "crc32_scalar/" : "crc32/") + std::to_string(n), Params(n, crc_iters),
          [&, scalar] {
            enc::ScopedForceScalar force(scalar);
            for (int i = 0; i < crc_iters; ++i) Crc32(buf.data(), n);
            RepResult rep;
            rep.items = static_cast<double>(n) * crc_iters;
            rep.metrics["clmul"] = enc::ClmulEnabled() ? 1.0 : 0.0;
            return rep;
          }};
    };
    harness.RunAlternating(twin(false), twin(true), kTwinRounds);
  }

  // Encode + decode round trip of a column fragment into one reused frame
  // buffer.
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
