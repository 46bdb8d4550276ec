// Reproduces the workload of paper Table 4 (§5.4) as a *live* suite: TPC-H
// microdata is generated at --scale, loaded into a real ring as BAT
// fragments, and Q1/Q3/Q5/Q6/Q10 run end to end from SQL text — lexer,
// parser, analyzer and MAL plan builder, then the DcOptimizer's
// request/pin/unpin rewrite and the ring protocol — with every result
// checked against an independently computed answer (plain C++ loops over
// the generated tuples, no engine code).
//
// Reported per query: wall time, compute vs ring split (exec_seconds vs
// pin_blocked_seconds), result rows, and validation status. The process
// exits non-zero on any result mismatch, so CI smoke runs double as a
// correctness gate for the SQL front end.
//
// Chaos smoke: --drop/--delay_prob/--delay_ms/--dup/--corrupt attach a
// seeded FaultInjector to every hop, so the same validated answers must
// survive a lossy fabric via the hop-level retransmission layer. The
// resilience counters land in the dcy-bench-v1 JSON as a `resilience` row.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bat/encoding.h"
#include "bench/harness.h"
#include "common/flags.h"
#include "rdma/fault.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "workload/tpch_data.h"

using namespace dcy;  // NOLINT

namespace {

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

bool ValuesMatch(const bat::Value& got, const bat::Value& want) {
  if (want.type == bat::ValType::kStr) {
    return got.type == bat::ValType::kStr && got.s == want.s;
  }
  if (want.type == bat::ValType::kDbl) {
    const double g = got.AsDouble(), w = want.AsDouble();
    // Sums of ~1e5 cent-quantized terms: tolerate reassociation error.
    return std::fabs(g - w) <= 1e-6 * std::max(1.0, std::max(std::fabs(g), std::fabs(w)));
  }
  return got.AsInt64() == want.AsInt64();
}

/// Compares a live result against the reference; prints the first
/// divergence (or a row-count mismatch) on failure.
bool Validate(int q, const runtime::ResultSet& got, const workload::TpchAnswer& want) {
  if (got.num_columns() != want.names.size()) {
    std::fprintf(stderr, "Q%d: got %zu columns, want %zu\n", q, got.num_columns(),
                 want.names.size());
    return false;
  }
  if (got.num_rows() != want.rows.size()) {
    std::fprintf(stderr, "Q%d: got %zu rows, want %zu\n", q, got.num_rows(),
                 want.rows.size());
    return false;
  }
  for (size_t r = 0; r < want.rows.size(); ++r) {
    for (size_t c = 0; c < want.names.size(); ++c) {
      const bat::Value g = got.ValueAt(r, c);
      if (!ValuesMatch(g, want.rows[r][c])) {
        std::fprintf(stderr, "Q%d: row %zu column %zu (%s): got %s, want %s\n", q, r, c,
                     want.names[c].c_str(), g.ToString().c_str(),
                     want.rows[r][c].ToString().c_str());
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::Harness harness("table4_tpch", argc, argv, /*default_repeats=*/1,
                         /*default_warmup=*/0);
  const double scale = flags.GetDouble("scale", 0.1);
  const uint32_t nodes = static_cast<uint32_t>(flags.GetInt("nodes", 3));
  const uint32_t iters = static_cast<uint32_t>(flags.GetInt("iters", 2));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 4));
  const double drop = flags.GetDouble("drop", 0.0);
  const double delay_prob = flags.GetDouble("delay_prob", 0.0);
  const double delay_ms = flags.GetDouble("delay_ms", 1.0);
  const double dup = flags.GetDouble("dup", 0.0);
  const double corrupt = flags.GetDouble("corrupt", 0.0);
  const uint64_t fault_seed = static_cast<uint64_t>(flags.GetInt("fault_seed", 71));
  const uint32_t retries = static_cast<uint32_t>(flags.GetInt("retries", 3));
  // Memory-pressure smoke: a per-node budget (0 = unlimited) below the
  // working set forces the two-tier store to spill; answers must stay
  // bit-identical. --spill_dir overrides the private temp dir.
  const uint64_t budget_mb = static_cast<uint64_t>(flags.GetInt("budget_mb", 0));
  const std::string spill_dir = flags.GetString("spill_dir", "");
  // Read/write smoke: --writes=N appends N marker rows to lineitem from
  // concurrent writer threads (deleting every third one) while Q6 re-runs at
  // a snapshot pinned before the first write. The final state is validated
  // against a plain-C++ tracked expectation and the write/compaction
  // counters land in an `updates` bench row.
  const uint32_t writes = static_cast<uint32_t>(flags.GetInt("writes", 0));
  const uint32_t write_threads =
      static_cast<uint32_t>(flags.GetInt("write_threads", 2));
  // --compression=0 ships every column pass-through (no codec analysis, the
  // uncompressed baseline); answers must stay bit-identical either way. The
  // `bandwidth` row records what the codecs bought.
  const bool compression = flags.GetBool("compression", true);
  bat::enc::SetWireCompression(compression);

  std::printf("# Table 4 -- live TPC-H at scale %.3f: SQL -> MAL -> %u-node ring\n",
              scale, nodes);
  const workload::TpchData data = workload::GenerateTpchData(scale);
  std::printf("generated %zu lineitem / %zu orders / %zu customer rows\n",
              data.lineitem.rows(), data.orders.rows(), data.customer.rows());

  // The injector must outlive the ring; wildcard links cover every hop.
  rdma::FaultInjector fault(fault_seed);
  const bool lossy = drop > 0 || delay_prob > 0 || dup > 0 || corrupt > 0;
  if (lossy) {
    const rdma::FaultLink all;  // any src, any dst, any channel
    if (drop > 0) fault.AddRule(rdma::FaultInjector::Drop(all, drop));
    if (delay_prob > 0) {
      fault.AddRule(rdma::FaultInjector::Delay(all, delay_prob, FromMillis(delay_ms)));
    }
    if (dup > 0) fault.AddRule(rdma::FaultInjector::Duplicate(all, dup));
    if (corrupt > 0) fault.AddRule(rdma::FaultInjector::Corrupt(all, corrupt));
    std::printf(
        "# fault schedule: seed=%llu drop=%.3f delay=%.3f@%gms dup=%.3f corrupt=%.3f\n",
        static_cast<unsigned long long>(fault_seed), drop, delay_prob, delay_ms, dup,
        corrupt);
  }

  runtime::RingCluster::Options opts;
  opts.num_nodes = nodes;
  opts.plan_workers = workers;
  opts.node.load_all_period = FromMillis(2);
  opts.node.maintenance_period = FromMillis(10);
  opts.node.adapt_period = FromMillis(10);
  opts.node.initial_rotation_estimate = FromMillis(5);
  if (lossy) opts.fault = &fault;
  if (writes > 0) {
    // Fold aggressively so a short bench run still exercises compaction.
    opts.compaction.max_delta_count = 8;
    opts.compaction.interval = FromMillis(5);
  }
  if (budget_mb > 0) {
    opts.memory.budget_bytes = budget_mb * 1024 * 1024;
    opts.spill_dir = spill_dir;  // empty -> private temp dir per run
    std::printf("# memory: per-node budget %llu MiB, two-tier spill enabled\n",
                static_cast<unsigned long long>(budget_mb));
  }
  runtime::RingCluster ring(opts);
  {
    core::NodeId owner = 0;
    for (auto& [name, b] : workload::TpchBats(data)) {
      DCY_CHECK_OK(ring.LoadBat(owner, name, std::move(b)));
      owner = (owner + 1) % nodes;
    }
  }
  ring.Start();
  auto session_or = ring.OpenSession(0);
  DCY_CHECK_OK(session_or.status());
  runtime::Session session = *session_or;

  int failures = 0;
  for (int q : workload::TpchSqlQueries()) {
    const std::string sql = workload::TpchQuerySql(q);
    const workload::TpchAnswer want = workload::TpchReferenceAnswer(data, q);

    // Language auto-detection routes the text through the SQL compiler; the
    // second Prepare of the same text must be a shared-plan-cache hit.
    const auto before = ring.plan_cache_stats();
    auto prepared = session.Prepare(sql);
    DCY_CHECK_OK(prepared.status());
    auto again = session.Prepare(sql);
    DCY_CHECK_OK(again.status());
    const auto after = ring.plan_cache_stats();
    if (again.value() != prepared.value() || after.hits <= before.hits) {
      std::fprintf(stderr, "Q%d: second Prepare missed the plan cache\n", q);
      ++failures;
    }

    double exec_sec = 0, pin_sec = 0;
    size_t rows = 0;
    bool ok = true;
    harness.Run("q" + std::to_string(q),
                {{"scale", Fmt("%.3f", scale)},
                 {"nodes", std::to_string(nodes)},
                 {"iters", std::to_string(iters)}},
                [&] {
                  bench::RepResult rep;
                  exec_sec = pin_sec = 0;
                  runtime::SubmitOptions sopts;
                  // Lossy fabrics and memory pressure both surface as typed
                  // retryable refusals; the client rides them out.
                  if (lossy || budget_mb > 0) sopts.retry.max_attempts = retries;
                  for (uint32_t i = 0; i < iters; ++i) {
                    auto result = session.Execute(*prepared, sopts);
                    DCY_CHECK_OK(result.status());
                    ok = ok && Validate(q, result->result, want);
                    exec_sec += result->timing.exec_seconds;
                    pin_sec += result->timing.pin_blocked_seconds;
                    rows = result->result.num_rows();
                  }
                  rep.items = iters;
                  rep.metrics["rows"] = static_cast<double>(rows);
                  rep.metrics["exec_sec"] = exec_sec / iters;
                  rep.metrics["pin_blocked_sec"] = pin_sec / iters;
                  rep.metrics["validated"] = ok ? 1.0 : 0.0;
                  return rep;
                });
    if (!ok) ++failures;
    std::printf("Q%-2d %6zu rows  %8.2f ms compute  %8.2f ms ring-blocked  %s\n", q,
                rows, 1e3 * exec_sec / iters, 1e3 * pin_sec / iters,
                ok ? "validated" : "MISMATCH");
  }

  const auto cache = ring.plan_cache_stats();
  std::printf("plan cache: %llu compilations, %llu hits\n",
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.hits));

  // Resilience counters as their own bench row, so lossy CI smoke runs leave
  // an auditable record (retransmits > 0 proves the schedule actually bit).
  const runtime::RingCluster::ResilienceMetrics res = ring.Resilience();
  harness.Run("resilience",
              {{"scale", Fmt("%.3f", scale)}, {"nodes", std::to_string(nodes)}},
              [&] {
                bench::RepResult rep;
                rep.items = 1;
                rep.metrics["retransmits"] = static_cast<double>(res.retransmits);
                rep.metrics["frames_abandoned"] =
                    static_cast<double>(res.frames_abandoned);
                rep.metrics["link_resets"] = static_cast<double>(res.link_resets);
                rep.metrics["frames_corrupted"] =
                    static_cast<double>(res.frames_corrupted);
                rep.metrics["frames_duplicate"] =
                    static_cast<double>(res.frames_duplicate);
                rep.metrics["frames_gap"] = static_cast<double>(res.frames_gap);
                rep.metrics["nacks_sent"] = static_cast<double>(res.nacks_sent);
                rep.metrics["acks_sent"] = static_cast<double>(res.acks_sent);
                rep.metrics["heartbeats_sent"] =
                    static_cast<double>(res.heartbeats_sent);
                rep.metrics["heartbeats_missed"] =
                    static_cast<double>(res.heartbeats_missed);
                rep.metrics["ring_resplices"] = static_cast<double>(res.ring_resplices);
                rep.metrics["injected_dropped"] =
                    static_cast<double>(fault.counters().dropped.load());
                rep.metrics["injected_delayed"] =
                    static_cast<double>(fault.counters().delayed.load());
                rep.metrics["injected_duplicated"] =
                    static_cast<double>(fault.counters().duplicated.load());
                rep.metrics["injected_corrupted"] =
                    static_cast<double>(fault.counters().corrupted.load());
                return rep;
              });
  // Memory counters as their own bench row: a budgeted CI smoke run must
  // show the spill path actually engaged (spills > 0) while every query
  // above still validated.
  const storage::MemoryMetrics mem = ring.Memory();
  harness.Run("memory",
              {{"scale", Fmt("%.3f", scale)},
               {"nodes", std::to_string(nodes)},
               {"budget_mb", std::to_string(budget_mb)}},
              [&] {
                bench::RepResult rep;
                rep.items = 1;
                rep.metrics["budget_bytes"] = static_cast<double>(mem.budget_bytes);
                rep.metrics["resident_bytes"] = static_cast<double>(mem.resident_bytes);
                rep.metrics["spilled_bytes"] = static_cast<double>(mem.spilled_bytes);
                rep.metrics["spills"] = static_cast<double>(mem.spills);
                rep.metrics["spill_bytes"] = static_cast<double>(mem.spill_bytes);
                rep.metrics["evictions"] = static_cast<double>(mem.evictions);
                rep.metrics["promotions"] = static_cast<double>(mem.promotions);
                rep.metrics["promotion_bytes"] =
                    static_cast<double>(mem.promotion_bytes);
                rep.metrics["admission_rejections"] =
                    static_cast<double>(mem.admission_rejections);
                rep.metrics["pressure_waits"] =
                    static_cast<double>(mem.pressure_waits);
                rep.metrics["pressure_sheds"] =
                    static_cast<double>(mem.pressure_sheds);
                rep.metrics["spill_failures"] =
                    static_cast<double>(mem.spill_failures);
                rep.metrics["corrupt_spill_files"] =
                    static_cast<double>(mem.corrupt_spill_files);
                rep.metrics["recovered_from_disk"] =
                    static_cast<double>(mem.recovered_from_disk);
                rep.metrics["refetched_from_ring"] =
                    static_cast<double>(mem.refetched_from_ring);
                return rep;
              });
  // Wire-compression counters as their own bench row: bytes/hop and the
  // encoded/raw ratio are the headline numbers of the codec layer.
  const runtime::RingCluster::BandwidthMetrics bw = ring.Bandwidth();
  harness.Run("bandwidth",
              {{"scale", Fmt("%.3f", scale)},
               {"nodes", std::to_string(nodes)},
               {"compression", compression ? "1" : "0"}},
              [&] {
                bench::RepResult rep;
                rep.items = 1;
                rep.metrics["frames"] = static_cast<double>(bw.frames_encoded);
                rep.metrics["raw_bytes"] = static_cast<double>(bw.raw_bytes);
                rep.metrics["wire_bytes"] = static_cast<double>(bw.wire_bytes);
                rep.metrics["bytes_per_hop"] =
                    bw.hops ? static_cast<double>(bw.hop_bytes) /
                                  static_cast<double>(bw.hops)
                            : 0.0;
                rep.metrics["encoded_vs_raw_bytes"] =
                    bw.raw_bytes ? static_cast<double>(bw.wire_bytes) /
                                       static_cast<double>(bw.raw_bytes)
                                 : 1.0;
                rep.metrics["dict_columns"] = static_cast<double>(bw.dict_columns);
                rep.metrics["for_columns"] = static_cast<double>(bw.for_columns);
                rep.metrics["plain_columns"] = static_cast<double>(bw.plain_columns);
                rep.metrics["compression"] = compression ? 1.0 : 0.0;
                return rep;
              });
  std::printf(
      "bandwidth: %llu frames encoded, %llu -> %llu bytes (ratio %.3f), "
      "%.0f bytes/hop over %llu hops (%llu dict / %llu for / %llu plain columns)\n",
      static_cast<unsigned long long>(bw.frames_encoded),
      static_cast<unsigned long long>(bw.raw_bytes),
      static_cast<unsigned long long>(bw.wire_bytes),
      bw.raw_bytes ? static_cast<double>(bw.wire_bytes) / static_cast<double>(bw.raw_bytes)
                   : 1.0,
      bw.hops ? static_cast<double>(bw.hop_bytes) / static_cast<double>(bw.hops) : 0.0,
      static_cast<unsigned long long>(bw.hops),
      static_cast<unsigned long long>(bw.dict_columns),
      static_cast<unsigned long long>(bw.for_columns),
      static_cast<unsigned long long>(bw.plain_columns));
  if (budget_mb > 0) {
    std::printf(
        "memory: %llu spills (%llu bytes), %llu evictions, %llu promotions, "
        "%llu rejections, %llu resident / %llu spilled bytes at exit\n",
        static_cast<unsigned long long>(mem.spills),
        static_cast<unsigned long long>(mem.spill_bytes),
        static_cast<unsigned long long>(mem.evictions),
        static_cast<unsigned long long>(mem.promotions),
        static_cast<unsigned long long>(mem.admission_rejections),
        static_cast<unsigned long long>(mem.resident_bytes),
        static_cast<unsigned long long>(mem.spilled_bytes));
  }
  if (lossy) {
    std::printf(
        "resilience: %llu retransmits, %llu nacks, %llu corrupted, %llu dup, "
        "%llu gap (injected: %llu dropped / %llu delayed / %llu dup / %llu corrupt)\n",
        static_cast<unsigned long long>(res.retransmits),
        static_cast<unsigned long long>(res.nacks_sent),
        static_cast<unsigned long long>(res.frames_corrupted),
        static_cast<unsigned long long>(res.frames_duplicate),
        static_cast<unsigned long long>(res.frames_gap),
        static_cast<unsigned long long>(fault.counters().dropped.load()),
        static_cast<unsigned long long>(fault.counters().delayed.load()),
        static_cast<unsigned long long>(fault.counters().duplicated.load()),
        static_cast<unsigned long long>(fault.counters().corrupted.load()));
  }
  if (writes > 0) {
    // Pin the pre-write version: a reader at this snapshot must keep seeing
    // the untouched Q6 answer no matter what the writers commit.
    const uint64_t pinned = ring.PinWriteSnapshot();
    const workload::TpchAnswer q6_ref = workload::TpchReferenceAnswer(data, 6);
    const std::string q6_sql = workload::TpchQuerySql(6);
    std::atomic<bool> reader_ok{true};
    std::atomic<bool> stop_reader{false};
    std::atomic<uint64_t> snapshot_reads{0};
    std::thread reader([&] {
      auto rs = ring.OpenSession(1 % nodes);
      if (!rs.ok()) { reader_ok = false; return; }
      auto prep = rs->Prepare(q6_sql);
      if (!prep.ok()) { reader_ok = false; return; }
      while (!stop_reader.load()) {
        runtime::SubmitOptions so;
        so.snapshot_version = pinned;
        so.retry.max_attempts = retries > 0 ? retries : 3;
        auto r = rs->Execute(*prep, so);
        if (!r.ok() || !Validate(6, r->result, q6_ref)) { reader_ok = false; return; }
        ++snapshot_reads;
      }
    });

    // Marker rows: unique l_orderkey far above the generated key space, the
    // ship date outside every benchmark query's window, so the read-suite
    // answers above stay valid at any version.
    constexpr int64_t kMarkerBase = 900000000;
    std::atomic<uint32_t> next{0};
    std::atomic<bool> writers_ok{true};
    std::mutex track_mu;
    double tracked_qty = 0;     // sum(l_quantity) over surviving marker rows
    int64_t tracked_rows = 0;   // surviving marker rows
    uint64_t dels = 0;
    std::vector<std::thread> writer_pool;
    for (uint32_t w = 0; w < std::max(1u, write_threads); ++w) {
      writer_pool.emplace_back([&] {
        auto ws = ring.OpenSession(0);
        if (!ws.ok()) { writers_ok = false; return; }
        runtime::SubmitOptions so;
        so.retry.max_attempts = 10;
        for (uint32_t i = next.fetch_add(1); i < writes; i = next.fetch_add(1)) {
          const int64_t key = kMarkerBase + i;
          const int64_t qty = 1 + i % 5;
          char stmt[512];
          std::snprintf(stmt, sizeof(stmt),
                        "insert into lineitem (l_orderkey, l_suppkey, l_quantity, "
                        "l_extendedprice, l_discount, l_tax, l_returnflag, "
                        "l_linestatus, l_shipdate) values "
                        "(%lld, 1, %lld, %lld, 0.0, 0.0, 'Z', 'Z', 20990101);",
                        static_cast<long long>(key), static_cast<long long>(qty),
                        static_cast<long long>(qty * 1000));
          auto prep = ws->Prepare(stmt);
          if (!prep.ok()) { writers_ok = false; return; }
          auto r = ws->Execute(*prep, so);
          if (!r.ok() || std::get<int64_t>(r->result.scalar()) != 1) {
            writers_ok = false;
            return;
          }
          const bool doomed = i % 3 == 0;
          if (doomed) {
            std::snprintf(stmt, sizeof(stmt),
                          "delete from lineitem where l_orderkey = %lld;",
                          static_cast<long long>(key));
            auto dprep = ws->Prepare(stmt);
            if (!dprep.ok()) { writers_ok = false; return; }
            auto dr = ws->Execute(*dprep, so);
            if (!dr.ok() || std::get<int64_t>(dr->result.scalar()) != 1) {
              writers_ok = false;
              return;
            }
          }
          std::lock_guard<std::mutex> lock(track_mu);
          if (doomed) {
            ++dels;
          } else {
            tracked_qty += static_cast<double>(qty);
            ++tracked_rows;
          }
        }
      });
    }
    for (auto& t : writer_pool) t.join();
    stop_reader = true;
    reader.join();
    ring.UnpinWriteSnapshot(pinned);

    // With the pin released the compactor's idle drain folds the tail; wait
    // for the pending deltas to hit zero so the row below records a state
    // where folding demonstrably ran.
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (ring.Writes().pending_deltas != 0 &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // Final state, validated against plain-C++ bookkeeping at the latest
    // version (merged reads while pending, folded bases after the drain).
    bool w_ok = writers_ok.load() && reader_ok.load();
    auto check_scalar = [&](const std::string& sql, double want, const char* what) {
      runtime::SubmitOptions so;
      so.retry.max_attempts = 5;
      auto prep = session.Prepare(sql);
      DCY_CHECK_OK(prep.status());
      auto r = session.Execute(*prep, so);
      DCY_CHECK_OK(r.status());
      const bat::Value got = r->result.ValueAt(0, 0);
      if (std::fabs(got.AsDouble() - want) > 1e-6) {
        std::fprintf(stderr, "updates: %s: got %s, want %.1f\n", what,
                     got.ToString().c_str(), want);
        w_ok = false;
      }
    };
    check_scalar("select count(*) from lineitem;",
                 static_cast<double>(data.lineitem.rows()) + writes - dels,
                 "final row count");
    if (tracked_rows > 0) {
      check_scalar("select sum(l_quantity) from lineitem where l_orderkey >= " +
                       std::to_string(kMarkerBase) + ";",
                   tracked_qty, "marker quantity sum");
    }

    const write::WriteMetrics wm = ring.Writes();
    harness.Run("updates",
                {{"scale", Fmt("%.3f", scale)},
                 {"nodes", std::to_string(nodes)},
                 {"writes", std::to_string(writes)}},
                [&] {
                  bench::RepResult rep;
                  rep.items = writes;
                  rep.metrics["commits"] = static_cast<double>(wm.commits);
                  rep.metrics["rows_inserted"] = static_cast<double>(wm.rows_inserted);
                  rep.metrics["rows_deleted"] = static_cast<double>(wm.rows_deleted);
                  rep.metrics["deltas_published"] =
                      static_cast<double>(wm.deltas_published);
                  rep.metrics["deltas_merged"] = static_cast<double>(wm.deltas_merged);
                  rep.metrics["deltas_folded"] = static_cast<double>(wm.deltas_folded);
                  rep.metrics["merges"] = static_cast<double>(wm.merges);
                  rep.metrics["merge_cache_hits"] =
                      static_cast<double>(wm.merge_cache_hits);
                  rep.metrics["compactions"] = static_cast<double>(wm.compactions);
                  rep.metrics["compactions_abandoned"] =
                      static_cast<double>(wm.compactions_abandoned);
                  rep.metrics["snapshots_rejected"] =
                      static_cast<double>(wm.snapshots_rejected);
                  rep.metrics["delta_frames_forwarded"] =
                      static_cast<double>(wm.delta_frames_forwarded);
                  rep.metrics["delta_bytes_on_ring"] =
                      static_cast<double>(wm.delta_bytes_on_ring);
                  rep.metrics["current_version"] =
                      static_cast<double>(wm.current_version);
                  rep.metrics["pending_deltas"] =
                      static_cast<double>(wm.pending_deltas);
                  rep.metrics["snapshot_reads"] =
                      static_cast<double>(snapshot_reads.load());
                  rep.metrics["validated"] = w_ok ? 1.0 : 0.0;
                  return rep;
                });
    std::printf(
        "updates: %u inserts / %llu deletes across %u writer(s), %llu pinned-"
        "snapshot Q6 reads, %llu commits -> %llu deltas published / %llu merged "
        "/ %llu folded (%llu compactions), %s\n",
        writes, static_cast<unsigned long long>(dels), std::max(1u, write_threads),
        static_cast<unsigned long long>(snapshot_reads.load()),
        static_cast<unsigned long long>(wm.commits),
        static_cast<unsigned long long>(wm.deltas_published),
        static_cast<unsigned long long>(wm.deltas_merged),
        static_cast<unsigned long long>(wm.deltas_folded),
        static_cast<unsigned long long>(wm.compactions),
        w_ok ? "validated" : "MISMATCH");
    if (!w_ok) ++failures;
  }

  const int rc = harness.Finish();
  return failures > 0 ? 1 : rc;
}
