// ringbench: one repeatable end-to-end benchmark of the live Data Cyclotron
// ring. One process runs one workload on a fresh ring:
//
//   setup      TPC-H at scale 0.1 generated from --seed, loaded round-robin
//              over 3 nodes, reference answers computed, ring started;
//              repeated 7 times (the last ring is kept) and reported as
//              the median `setup_s`;
//   cold pass  Q1/Q3/Q5/Q6/Q10 once each, validated, untimed;
//   warm-up    2 s of the workload's load, untimed;
//   window     --seconds seconds of the same load, measured;
//   probe      traced runs then time 150 write statements on the quiet
//              ring, so the write layer reports statement latency;
//   check      `select count(*) from lineitem` against the writer's own
//              bookkeeping.
//
// Every read is validated against workload::TpchReferenceAnswer. The last
// line of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace=1 the per-layer ones
// (counter deltas over the window plus a local replay of each plan, codec
// timing and compile timing after the window). Human-readable lines go to
// stderr. The exit code is non-zero on any wrong answer.
//
// The ring is driven only through its public API: RingCluster, Session,
// sql::Compile, opt::DcOptimize, mal::Interpreter, bat::FrameEncoder /
// Deserialize and the metrics snapshots.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bat/serialize.h"
#include "bench/harness.h"
#include "common/flags.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "mal/interpreter.h"
#include "measure.h"
#include "opt/dc_optimizer.h"
#include "runtime/ring_cluster.h"
#include "runtime/session.h"
#include "sql/compiler.h"
#include "tpch_check.h"
#include "workload/tpch_data.h"

namespace ringbench {
namespace {

using dcy::runtime::RingCluster;

constexpr double kScale = 0.1;
constexpr uint32_t kNodes = 3;
constexpr size_t kPlanWorkers = 4;
constexpr uint32_t kReadAttempts = 3;
// The first setups of a process pay page faults on fresh memory; the median
// of seven lands on the steady ones.
constexpr int kSetupReps = 7;
constexpr double kWarmupSeconds = 2.0;
// Marker rows (the bench_table4_tpch --writes convention): keys far above
// the generated key space and a ship date outside every query's window, so
// each read answer stays valid at any version.
constexpr int64_t kMarkerBase = 900000000;
// Every 5th marker key is deleted again, so deletes are 1/6 of the
// statements: p50 lands among the inserts and p90 well inside the deletes.
// (At every 10th key, p90 would sit on the insert/delete boundary and jump
// between sub-millisecond inserts and tens-of-milliseconds deletes.)
constexpr uint32_t kDeleteEvery = 5;
constexpr uint32_t kProbeStatements = 150;  // write probe of traced runs
constexpr double kSampleEveryUs = 100e3;    // gauge sampling period in the window
constexpr int kReplayReps = 3;
constexpr int kCodecReps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

/// \brief One traffic mix. Readers run closed loops over the five queries on
/// nodes 0, 1, ... at staggered offsets, in lock-step rounds.
struct WorkloadSpec {
  const char* name;
  uint32_t readers;
  uint64_t budget_mib;  ///< per-node fragment budget; 0 = unlimited
};

// Why these two: see README.md. In short, one session under a 28 MiB
// budget is the latency path with the two-tier store faulting fragments in;
// two sessions without a budget share the rotation (the paper's premise)
// and leave the store idle. Each workload added shortens every run's
// window, and shorter windows were too noisy to gate a change.
constexpr WorkloadSpec kWorkloads[] = {
    {"tpch_budget", 1, 28},
    {"tpch_concurrent", 2, 0},
};

// The builtins with the most replay self time on TPC-H Q1/Q3/Q5/Q6/Q10
// (measured at scale 0.1); reported by fixed name so every run has them.
const char* const kTopBuiltins[] = {
    "algebra.leftjoin", "algebra.thetaselect", "algebra.join", "group.refine",
    "batcalc.mul",      "aggr.sumPerGroup",    "group.id",     "batcalc.sub",
};

struct Config {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string spill_dir;
};

/// One ring with its data and reference answers.
struct Rig {
  dcy::workload::TpchData data;
  std::map<int, dcy::workload::TpchAnswer> answers;
  std::unique_ptr<RingCluster> ring;
};

std::unique_ptr<Rig> BuildRig(const WorkloadSpec& spec, uint64_t seed,
                              const std::string& spill_dir) {
  auto rig = std::make_unique<Rig>();
  rig->data = dcy::workload::GenerateTpchData(kScale, seed);
  RingCluster::Options opts;
  opts.num_nodes = kNodes;
  opts.plan_workers = kPlanWorkers;
  // The timer settings of bench_table4_tpch and dcsql.
  opts.node.load_all_period = dcy::FromMillis(2);
  opts.node.maintenance_period = dcy::FromMillis(10);
  opts.node.adapt_period = dcy::FromMillis(10);
  opts.node.initial_rotation_estimate = dcy::FromMillis(5);
  if (spec.budget_mib > 0) {
    opts.memory.budget_bytes = spec.budget_mib * 1024 * 1024;
    opts.spill_dir = spill_dir;
  }
  rig->ring = std::make_unique<RingCluster>(opts);
  dcy::core::NodeId owner = 0;
  for (auto& [name, b] : dcy::workload::TpchBats(rig->data)) {
    DCY_CHECK_OK(rig->ring->LoadBat(owner, name, std::move(b)));
    owner = (owner + 1) % kNodes;
  }
  // The reference answers come before Start(), so that the ring's threads
  // do not compete with them for the cores.
  for (int q : dcy::workload::TpchSqlQueries()) {
    rig->answers[q] = dcy::workload::TpchReferenceAnswer(rig->data, q);
  }
  rig->ring->Start();
  return rig;
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

double Median(std::vector<double> v) { return dcy::bench::ExactPercentile(std::move(v), 50); }
double P90(std::vector<double> v) { return dcy::bench::ExactPercentile(std::move(v), 90); }
double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Counts failures across threads and prints the first few.
class Errors {
 public:
  void Note(const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_++ < 5) std::fprintf(stderr, "ringbench: %s\n", msg.c_str());
  }
  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
};

/// Holds the read sessions of a workload in step: each waits for the others
/// after every read, so every round submits one query per session at once.
/// A waiter gives up when `stop` is set, so no session waits on one that
/// has left.
class Rounds {
 public:
  explicit Rounds(uint32_t sessions) : sessions_(sessions) {}

  void Arrive(const std::atomic<bool>& stop) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t round = round_;
    if (++arrived_ == sessions_) {
      arrived_ = 0;
      ++round_;
      cv_.notify_all();
      return;
    }
    while (round_ == round && !stop.load()) cv_.wait_for(lock, std::chrono::milliseconds(5));
  }

 private:
  const uint32_t sessions_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t arrived_ = 0;
  uint64_t round_ = 0;
};

struct ReadOp {
  int q = 0;
  double start_us = 0, end_us = 0;
  bool ok = false;     ///< executed (possibly after retries)
  bool valid = false;  ///< and matched the reference answer
  dcy::runtime::QueryTiming timing;
};

struct WriteOp {
  double start_us = 0, end_us = 0;
  bool ok = false;
};

/// Closed loop of one read session: Q1->Q3->Q5->Q6->Q10 starting at
/// `offset`, each op submitted as SQL text (so it passes the shared plan
/// cache, as a SQL client's would) and timed from submit to validated
/// result.
void ReadLoop(Rig& rig, dcy::core::NodeId node, size_t offset, const std::atomic<bool>& stop,
              Rounds& rounds, SpanRecorder& rec, Errors& errors, std::vector<ReadOp>* ops) {
  auto session = rig.ring->OpenSession(node);
  DCY_CHECK_OK(session.status());
  const std::vector<int>& queries = dcy::workload::TpchSqlQueries();
  dcy::runtime::SubmitOptions sopts;
  sopts.retry.max_attempts = kReadAttempts;
  for (size_t i = offset; !stop.load(); ++i) {
    ReadOp op;
    op.q = queries[i % queries.size()];
    op.start_us = rec.NowUs();
    auto r = session->Execute(std::string(dcy::workload::TpchQuerySql(op.q)), sopts);
    op.ok = r.ok();
    std::string why;
    if (op.ok) {
      op.timing = r->timing;
      op.valid = ValidateTpch(op.q, r->result, rig.answers.at(op.q), &why);
      if (!op.valid) errors.Note(why);
    } else {
      errors.Note("Q" + std::to_string(op.q) + " failed: " + r.status().ToString());
    }
    op.end_us = rec.NowUs();
    ops->push_back(op);

    // One request span with its queued and exec parts placed from the
    // runtime's own QueryTiming.
    Span req;
    req.id = rec.NewId();
    req.name = "request.q" + std::to_string(op.q);
    req.cat = "request";
    req.tid = ThreadTag();
    req.start_us = op.start_us;
    req.end_us = op.end_us;
    req.args = {{"pin_blocked_ms", op.timing.pin_blocked_seconds * 1e3},
                {"attempts", op.ok ? static_cast<double>(r->attempts) : kReadAttempts}};
    const double queued_end = op.start_us + op.timing.queued_seconds * 1e6;
    rec.Add({0, req.id, "queued", "runtime", req.tid, op.start_us, queued_end, {}});
    rec.Add({0, req.id, "exec", "runtime", req.tid, queued_end,
             queued_end + op.timing.exec_seconds * 1e6, {}});
    rec.Add(std::move(req));
    rounds.Arrive(stop);
  }
}

/// Marker-row writer: inserts keys kMarkerBase, kMarkerBase+1, ... one row
/// per statement, and deletes every kDeleteEvery-th key right after its
/// insert. Tracks what committed so the final row count can be checked.
class Writer {
 public:
  explicit Writer(RingCluster* ring) : ring_(ring) {}

  /// Sends `count` statements to `node`, one after another.
  void Run(dcy::core::NodeId node, uint32_t count, SpanRecorder& rec, Errors& errors,
           std::vector<WriteOp>* ops) {
    auto session = ring_->OpenSession(node);
    DCY_CHECK_OK(session.status());
    dcy::runtime::SubmitOptions sopts;
    sopts.retry.max_attempts = kReadAttempts;
    for (uint32_t k = 0; k < count; ++k) {
      WriteOp op;
      const bool is_delete = pending_delete_;
      const std::string text = is_delete ? DeleteText(next_key_ - 1) : InsertText(next_key_);
      op.start_us = rec.NowUs();
      auto r = session->Execute(text, sopts);
      op.end_us = rec.NowUs();
      op.ok = r.ok() && RowsAffected(r->result) == 1;
      if (!op.ok) {
        errors.Note("write failed: " + text + " -> " +
                    (r.ok() ? std::string("wrong row count") : r.status().ToString()));
      }
      if (is_delete) {
        pending_delete_ = false;
        if (op.ok) ++deleted_;
      } else {
        if (op.ok) ++inserted_;
        pending_delete_ = op.ok && (next_key_ + 1) % kDeleteEvery == 0;
        ++next_key_;
      }
      ops->push_back(op);
      rec.Add({0, 0, is_delete ? "write.delete" : "write.insert", "request", ThreadTag(),
               op.start_us, op.end_us, {}});
    }
  }

  int64_t net_rows() const { return inserted_ - deleted_; }

 private:
  static std::string InsertText(int64_t i) {
    const int64_t key = kMarkerBase + i, qty = 1 + i % 5;
    char stmt[512];
    std::snprintf(stmt, sizeof(stmt),
                  "insert into lineitem (l_orderkey, l_suppkey, l_quantity, "
                  "l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, "
                  "l_shipdate) values (%lld, 1, %lld, %lld, 0.0, 0.0, 'Z', 'Z', 20990101);",
                  static_cast<long long>(key), static_cast<long long>(qty),
                  static_cast<long long>(qty * 1000));
    return stmt;
  }
  static std::string DeleteText(int64_t i) {
    return "delete from lineitem where l_orderkey = " + std::to_string(kMarkerBase + i) +
           ";";
  }
  static int64_t RowsAffected(const dcy::runtime::ResultSet& rs) {
    const auto* v = std::get_if<int64_t>(&rs.scalar());
    return v != nullptr ? *v : -1;
  }

  RingCluster* ring_;
  int64_t next_key_ = 0;
  bool pending_delete_ = false;
  int64_t inserted_ = 0;
  int64_t deleted_ = 0;
};

/// Cumulative ring counters; the window's numbers are differences of two.
struct Counters {
  dcy::core::DcNodeMetrics dc;  ///< summed over nodes (the fields used below)
  RingCluster::ResilienceMetrics res;
  RingCluster::BandwidthMetrics bw;
  dcy::storage::MemoryMetrics mem;
  dcy::exec::ExecutorMetrics ex;
  uint64_t ring_bytes = 0;
};

Counters Snapshot(const RingCluster& ring) {
  Counters c;
  for (uint32_t n = 0; n < ring.num_nodes(); ++n) {
    const dcy::core::DcNodeMetrics m = ring.NodeMetrics(n);
    c.dc.pins_total += m.pins_total;
    c.dc.pins_local_hit += m.pins_local_hit;
    c.dc.pins_blocked += m.pins_blocked;
    c.dc.resends += m.resends;
    c.dc.requests_absorbed += m.requests_absorbed;
    c.dc.bats_loaded += m.bats_loaded;
  }
  c.res = ring.Resilience();
  c.bw = ring.Bandwidth();
  c.mem = ring.Memory();
  c.ex = dcy::exec::Executor::Default().metrics();
  c.ring_bytes = ring.TotalDataBytesMoved();
  return c;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// A FragmentSource over plain in-memory BATs, for the local replay.
class InMemorySource : public dcy::bat::FragmentSource {
 public:
  explicit InMemorySource(const std::vector<std::pair<std::string, dcy::bat::BatPtr>>& bats)
      : bats_(bats.begin(), bats.end()) {}
  dcy::Result<dcy::bat::BatPtr> GetByName(const std::string& name) override {
    auto it = bats_.find(name);
    if (it == bats_.end()) return dcy::Status::NotFound(name);
    return it->second;
  }
  dcy::Result<dcy::bat::BatPtr> GetById(dcy::core::BatId) override {
    return dcy::Status::NotFound("the replay source is addressed by name");
  }

 private:
  std::unordered_map<std::string, dcy::bat::BatPtr> bats_;
};

/// The global builtins, each wrapped to record one span per call as a
/// child of the span id in `parent`.
dcy::mal::Registry TimedRegistry(SpanRecorder* rec, const std::atomic<uint64_t>* parent) {
  dcy::mal::Registry timed;
  const dcy::mal::Registry& global = dcy::mal::Registry::Global();
  for (const std::string& name : global.Names()) {
    dcy::mal::BuiltinFn fn = *global.Find(name);
    timed.Register(name, [fn, name, rec, parent](dcy::mal::Context& ctx,
                                                 std::vector<dcy::mal::Datum>& args) {
      Span s{0, parent->load(), name, "mal", ThreadTag(), rec->NowUs(), 0, {}};
      auto result = fn(ctx, args);
      s.end_us = rec->NowUs();
      rec->Add(std::move(s));
      return result;
    });
  }
  return timed;
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

/// Everything measured in one run.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
};

void PrintResult(const RunResult& r, bool trace) {
  const Metrics& metrics = trace ? r.per_layer : r.end_to_end;
  for (const auto& [name, value, unit] : metrics) {
    std::fprintf(stderr, "  %-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value, unit] : metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(value) ? value : 0.0);
    json += (first ? "" : ", ") + dcy::bench::JsonQuote(name) + ": {\"value\": " + num +
            ", \"unit\": " + dcy::bench::JsonQuote(unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Per-layer metrics from the ring's own cumulative counters: differences
/// over the window, per validated read where the name says per_query.
Metrics CounterMetrics(const Counters& c0, const Counters& c1, double reads) {
  const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  const double hops = d(c0.bw.hops, c1.bw.hops);
  const double retransmits = d(c0.res.retransmits, c1.res.retransmits);
  const double pins = d(c0.dc.pins_total, c1.dc.pins_total);
  const double tasks = d(c0.ex.tasks_executed, c1.ex.tasks_executed);
  return {
      {"core.resends_per_query", Ratio(d(c0.dc.resends, c1.dc.resends), reads), "count"},
      {"core.pins_per_query", Ratio(pins, reads), "count"},
      {"core.pin_local_hit_ratio", Ratio(d(c0.dc.pins_local_hit, c1.dc.pins_local_hit), pins),
       "ratio"},
      {"core.pins_blocked_per_query", Ratio(d(c0.dc.pins_blocked, c1.dc.pins_blocked), reads),
       "count"},
      {"core.requests_absorbed_per_query",
       Ratio(d(c0.dc.requests_absorbed, c1.dc.requests_absorbed), reads), "count"},
      {"core.bats_loaded_per_query", Ratio(d(c0.dc.bats_loaded, c1.dc.bats_loaded), reads),
       "count"},
      {"net.retransmits_per_hop", Ratio(retransmits, hops), "count"},
      {"net.duplicates_per_hop",
       Ratio(d(c0.res.frames_duplicate, c1.res.frames_duplicate), hops), "count"},
      {"net.useful_frame_frac", Ratio(hops, hops + retransmits), "ratio"},
      {"rdma.ring_mb_per_query", Ratio(d(c0.ring_bytes, c1.ring_bytes) / kMiB, reads), "MiB"},
      {"rdma.hops_per_query", Ratio(hops, reads), "count"},
      {"rdma.bytes_per_hop", Ratio(d(c0.bw.hop_bytes, c1.bw.hop_bytes), hops), "B"},
      {"exec.tasks_per_query", Ratio(tasks, reads), "count"},
      {"exec.steal_frac", Ratio(d(c0.ex.tasks_stolen, c1.ex.tasks_stolen), tasks), "ratio"},
      {"exec.threads_created", d(c0.ex.threads_created, c1.ex.threads_created), "count"},
      {"storage.promotions_per_query", Ratio(d(c0.mem.promotions, c1.mem.promotions), reads),
       "count"},
      {"storage.promotion_mb_per_query",
       Ratio(d(c0.mem.promotion_bytes, c1.mem.promotion_bytes) / kMiB, reads), "MiB"},
      {"storage.evictions_per_query", Ratio(d(c0.mem.evictions, c1.mem.evictions), reads),
       "count"},
      {"storage.pressure_waits", d(c0.mem.pressure_waits, c1.mem.pressure_waits), "count"},
      {"storage.admission_rejections",
       d(c0.mem.admission_rejections, c1.mem.admission_rejections), "count"},
      {"bat.wire_ratio",
       Ratio(static_cast<double>(c1.bw.wire_bytes), static_cast<double>(c1.bw.raw_bytes)),
       "ratio"},
  };
}

/// The per-layer measurements made after the window, outside the ring:
/// sql/opt compile and optimize the workload's statement texts; mal/bat
/// replay each plan, compiled without DcOptimize, over the same BATs held in
/// memory (every builtin call a span); the bat codec encodes and decodes the
/// workload's fragments.
void MeasureLocally(const Rig& rig, const dcy::sql::Schema& schema,
                    const std::vector<std::string>& texts, double read_p50, SpanRecorder& rec,
                    Errors& errors, RunResult* out) {
  Metrics& m = out->per_layer;
  std::vector<double> compile_ms, optimize_ms;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    for (const std::string& text : texts) {
      const double t0 = rec.NowUs();
      auto program = dcy::sql::Compile(text, schema);
      const double t1 = rec.NowUs();
      DCY_CHECK_OK(program.status());
      DCY_CHECK_OK(dcy::opt::DcOptimize(*program).status());
      const double t2 = rec.NowUs();
      rec.Add({0, 0, "compile", "sql", ThreadTag(), t0, t1, {}});
      rec.Add({0, 0, "optimize", "opt", ThreadTag(), t1, t2, {}});
      compile_ms.push_back((t1 - t0) / 1e3);
      optimize_ms.push_back((t2 - t1) / 1e3);
    }
  }
  m.emplace_back("sql.compile_ms", Median(compile_ms), "ms");
  m.emplace_back("opt.optimize_ms", Median(optimize_ms), "ms");

  const auto bats = dcy::workload::TpchBats(rig.data);
  InMemorySource source(bats);
  std::atomic<uint64_t> replay_parent{0};
  const dcy::mal::Registry timed = TimedRegistry(&rec, &replay_parent);
  std::map<int, std::vector<double>> replay_ms;
  std::vector<double> all_replay_ms;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    for (int q : dcy::workload::TpchSqlQueries()) {
      auto program = dcy::sql::Compile(dcy::workload::TpchQuerySql(q), schema);
      DCY_CHECK_OK(program.status());
      dcy::mal::ExportSink sink;
      dcy::mal::Context ctx;
      ctx.catalog = &source;
      ctx.exported = &sink;
      dcy::mal::Interpreter interp(&timed, ctx);
      dcy::mal::ExecOptions eopts;
      eopts.workers = kPlanWorkers;
      const uint64_t id = rec.NewId();
      replay_parent = id;
      const double t0 = rec.NowUs();
      auto result = interp.Execute(*program, eopts);
      const double t1 = rec.NowUs();
      rec.Add({id, 0, "replay.q" + std::to_string(q), "replay", ThreadTag(), t0, t1, {}});
      std::string why;
      if (!result.ok()) {
        errors.Note("replay Q" + std::to_string(q) + ": " + result.status().ToString());
        out->correct = false;
      } else if (!ValidateTpch(q, dcy::runtime::ResultSet::Build(sink.result, *result),
                               rig.answers.at(q), &why)) {
        errors.Note("replay " + why);
        out->correct = false;
      }
      replay_ms[q].push_back((t1 - t0) / 1e3);
      all_replay_ms.push_back((t1 - t0) / 1e3);
    }
  }
  for (const auto& [q, ms] : replay_ms) {
    m.emplace_back("mal.compute_ms.q" + std::to_string(q), Median(ms), "ms");
  }
  m.emplace_back("mal.ring_overhead_ratio", Ratio(read_p50, Median(all_replay_ms)), "ratio");

  std::vector<double> encode_ms_per_mib, decode_ms_per_mib;
  for (int rep = 0; rep < kCodecReps; ++rep) {
    double encode_us = 0, decode_us = 0, raw_bytes = 0;
    for (const auto& [name, b] : bats) {
      std::string frame;
      const double t0 = rec.NowUs();
      dcy::bat::FrameEncoder encoder(*b);
      encoder.SerializeInto(&frame);
      const double t1 = rec.NowUs();
      DCY_CHECK_OK(dcy::bat::Deserialize(frame).status());
      const double t2 = rec.NowUs();
      rec.Add({0, 0, "encode", "bat", ThreadTag(), t0, t1, {}});
      rec.Add({0, 0, "decode", "bat", ThreadTag(), t1, t2, {}});
      encode_us += t1 - t0;
      decode_us += t2 - t1;
      raw_bytes += static_cast<double>(encoder.stats().raw_bytes);
    }
    encode_ms_per_mib.push_back(encode_us / 1e3 / (raw_bytes / kMiB));
    decode_ms_per_mib.push_back(decode_us / 1e3 / (raw_bytes / kMiB));
  }
  m.emplace_back("bat.encode_ms_per_mb", Median(encode_ms_per_mib), "ms/MiB");
  m.emplace_back("bat.decode_ms_per_mb", Median(decode_ms_per_mib), "ms/MiB");

  // Self time per builtin, averaged over the replays of the five plans.
  const std::vector<Span> spans = rec.Spans();
  const std::vector<double> self_us = SelfTimesUs(spans);
  std::map<std::string, double> op_self_ms;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].cat == "mal") op_self_ms[spans[i].name] += self_us[i] / 1e3 / kReplayReps;
  }
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, ms] : op_self_ms) ranked.emplace_back(ms, name);
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < std::min<size_t>(ranked.size(), 12); ++i) {
    std::fprintf(stderr, "  diag self %-24s %10.2f ms\n", ranked[i].second.c_str(),
                 ranked[i].first);
  }
  for (const char* name : kTopBuiltins) {
    m.emplace_back(std::string("bat.op_self_ms.") + name, op_self_ms[name], "ms");
  }
}

int RunWorkload(const Config& cfg) {
  const WorkloadSpec& spec = *cfg.spec;
  SpanRecorder rec(cfg.trace);
  Errors errors;
  RunResult out;
  std::fprintf(stderr, "# ringbench %s seed=%llu window=%.0fs trace=%d\n", spec.name,
               static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);

  // ---- setup, timed kSetupReps times; the last ring is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < kSetupReps; ++r) {
    rig.reset();
    std::error_code ec;
    std::filesystem::remove_all(cfg.spill_dir, ec);
    const double t0 = rec.NowUs();
    rig = BuildRig(spec, cfg.seed, cfg.spill_dir);
    const double t1 = rec.NowUs();
    setup_s.push_back((t1 - t0) / 1e6);
    rec.Add({0, 0, "setup", "setup", ThreadTag(), t0, t1, {}});
  }
  RingCluster& ring = *rig->ring;
  const size_t base_rows = rig->data.lineitem.rows();

  // ---- cold pass: every query once, validated, untimed.
  {
    auto session = ring.OpenSession(0);
    DCY_CHECK_OK(session.status());
    dcy::runtime::SubmitOptions sopts;
    sopts.retry.max_attempts = kReadAttempts;
    for (int q : dcy::workload::TpchSqlQueries()) {
      auto r = session->Execute(dcy::workload::TpchQuerySql(q), sopts);
      std::string why;
      if (!r.ok()) {
        errors.Note("cold Q" + std::to_string(q) + ": " + r.status().ToString());
        out.correct = false;
      } else if (!ValidateTpch(q, r->result, rig->answers.at(q), &why)) {
        errors.Note("cold " + why);
        out.correct = false;
      }
    }
  }

  // ---- warm-up + window: client threads run across both; only ops that
  // complete inside [w0, w1] are measured.
  std::atomic<bool> stop{false};
  std::vector<std::vector<ReadOp>> read_ops(spec.readers);
  const std::vector<int>& queries = dcy::workload::TpchSqlQueries();
  Rounds rounds(spec.readers);
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < spec.readers; ++c) {
    clients.emplace_back([&, c] {
      ReadLoop(*rig, c % kNodes, c * queries.size() / spec.readers, stop, rounds, rec, errors,
               &read_ops[c]);
    });
  }
  const double w0 = rec.NowUs() + kWarmupSeconds * 1e6;
  const double w1 = w0 + cfg.seconds * 1e6;
  auto sleep_until = [&](double t_us) {
    const double wait = t_us - rec.NowUs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(int64_t(wait)));
  };
  sleep_until(w0);
  const Counters c0 = Snapshot(ring);
  std::vector<double> resident_mib;
  for (double t = w0; t < w1; t += kSampleEveryUs) {
    sleep_until(std::min(t + kSampleEveryUs, w1));
    resident_mib.push_back(static_cast<double>(ring.Memory().resident_bytes) / kMiB);
  }
  const Counters c1 = Snapshot(ring);
  // Read at the window's end: what runs after it (the write probe, the local
  // replay) allocates memory the workload itself did not.
  const double peak_rss = PeakRssMiB();
  stop = true;
  for (std::thread& t : clients) t.join();

  // ---- what the window measured.
  auto in_window = [&](double end_us) { return end_us > w0 && end_us <= w1; };
  std::vector<double> read_ms, exec_ms, queued_ms, pin_ms, covered_ms;
  std::map<int, std::vector<double>> per_query_ms;
  for (const auto& ops : read_ops) {
    for (const ReadOp& op : ops) {
      if (!op.valid && op.ok) out.correct = false;
      if (!in_window(op.end_us)) continue;
      ++out.attempted;
      if (!op.valid) {
        ++out.failed;
        continue;
      }
      const double ms = (op.end_us - op.start_us) / 1e3;
      read_ms.push_back(ms);
      per_query_ms[op.q].push_back(ms);
      exec_ms.push_back(op.timing.exec_seconds * 1e3);
      queued_ms.push_back(op.timing.queued_seconds * 1e3);
      pin_ms.push_back(op.timing.pin_blocked_seconds * 1e3);
      covered_ms.push_back((op.timing.queued_seconds + op.timing.exec_seconds) * 1e3);
    }
  }
  const double reads = static_cast<double>(read_ms.size());

  // ---- traced runs time write statements on the quiet ring, so the write
  // layer has numbers too.
  Writer writer(&ring);
  std::vector<double> write_ms;
  if (cfg.trace) {
    std::vector<WriteOp> probe;
    writer.Run(1, kProbeStatements, rec, errors, &probe);
    for (const WriteOp& op : probe) {
      ++out.attempted;
      if (!op.ok) ++out.failed;
      write_ms.push_back((op.end_us - op.start_us) / 1e3);
    }
  }

  // ---- final row count against the writer's bookkeeping.
  {
    auto session = ring.OpenSession(0);
    DCY_CHECK_OK(session.status());
    dcy::runtime::SubmitOptions sopts;
    sopts.retry.max_attempts = kReadAttempts;
    auto r = session->Execute(std::string("select count(*) from lineitem;"), sopts);
    const int64_t want = static_cast<int64_t>(base_rows) + writer.net_rows();
    const int64_t got = !r.ok() ? -1
                        : r->result.has_table()
                            ? r->result.ValueAt(0, 0).AsInt64()
                            : std::get<int64_t>(r->result.scalar());
    if (got != want) {
      errors.Note("final count(*) = " + std::to_string(got) + ", want " +
                  std::to_string(want));
      out.correct = false;
    }
  }

  // ---- diagnostics (stderr only).
  const Percentile supported = SupportedPercentile(read_ms);
  std::fprintf(stderr, "  reads=%zu (supported %s) writes=%zu errors=%llu\n", read_ms.size(),
               supported.label.c_str(), write_ms.size(),
               static_cast<unsigned long long>(errors.count()));
  if (read_ms.size() < 100) {
    std::fprintf(stderr, "  warning: fewer than 100 reads; p90 has under 10 samples beyond it\n");
  }
  for (const auto& [q, v] : per_query_ms) {
    std::fprintf(stderr, "  diag Q%-2d n=%-4zu p50=%8.2f ms\n", q, v.size(), Median(v));
  }
  if (!write_ms.empty()) {
    std::fprintf(stderr, "  diag write p50=%.3f ms p90=%.3f ms\n", Median(write_ms),
                 P90(write_ms));
  }

  if (read_ms.empty()) {
    errors.Note("no read completed in the window");
    out.correct = false;
  }
  const double read_p50 = Median(read_ms);
  out.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"qps", reads / cfg.seconds, "1/s"},
      {"read_p50_ms", read_p50, "ms"},
      {"read_p90_ms", P90(read_ms), "ms"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };

  if (cfg.trace) {
    Metrics& m = out.per_layer;
    m = {
        {"runtime.exec_ms_p50", Median(exec_ms), "ms"},
        {"runtime.queued_ms_p50", Median(queued_ms), "ms"},
        {"core.pin_blocked_ms_p50", Median(pin_ms), "ms"},
        {"core.pin_blocked_ms_p90", P90(pin_ms), "ms"},
        {"storage.resident_mb_p90", P90(resident_mib), "MiB"},
        {"write.statement_ms_p50", Median(write_ms), "ms"},
        {"write.statement_ms_p90", P90(write_ms), "ms"},
        {"client.samples", reads, "count"},
        {"client.span_coverage", Ratio(Median(covered_ms), read_p50), "ratio"},
    };
    const Metrics counters = CounterMetrics(c0, c1, reads);
    m.insert(m.end(), counters.begin(), counters.end());

    std::vector<std::string> texts;
    for (int q : queries) texts.push_back(dcy::workload::TpchQuerySql(q));
    // The local measurements run on the stopped ring's data, on an otherwise
    // idle machine.
    const dcy::sql::Schema schema = ring.SqlSchema();
    ring.Stop();
    MeasureLocally(*rig, schema, texts, read_p50, rec, errors, &out);
    if (!cfg.trace_out.empty() && !rec.WriteChromeTrace(cfg.trace_out)) {
      errors.Note("cannot write " + cfg.trace_out);
    }
  }

  rig.reset();
  std::error_code ec;
  std::filesystem::remove_all(cfg.spill_dir, ec);
  PrintResult(out, cfg.trace);
  return out.correct ? 0 : 1;
}

/// Checks the percentile rule and the self-time computation on synthetic
/// inputs.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  auto ramp = [](size_t n) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted input
    return v;
  };
  const std::pair<size_t, const char*> levels[] = {
      {5, "p50"}, {19, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"},
      {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}};
  for (const auto& [n, label] : levels) {
    const Percentile p = SupportedPercentile(ramp(n));
    expect(p.label == label && p.n == n,
           "n=" + std::to_string(n) + " gave " + p.label + ", want " + label);
  }
  expect(std::fabs(SupportedPercentile(ramp(100)).value - 90.1) < 1e-9, "p90 of 1..100");
  expect(SupportedPercentile(ramp(5)).value == 3.0, "median of 1..5");

  // Parent [0,100] with overlapping children [10,30] and [20,50], and one
  // child [90,120] running past the parent's end: the union inside the
  // parent is [10,50] + [90,100] = 50, so the parent's self time is 50.
  // The grandchild [25,35] is covered by its own parent only.
  const std::vector<Span> spans = {
      {1, 0, "parent", "t", 1, 0, 100, {}},    {2, 1, "a", "t", 1, 10, 30, {}},
      {3, 1, "b", "t", 1, 20, 50, {}},         {4, 1, "c", "t", 1, 90, 120, {}},
      {5, 3, "grandchild", "t", 1, 25, 35, {}}, {6, 0, "lone", "t", 1, 5, 6, {}}};
  const std::vector<double> self = SelfTimesUs(spans);
  const double want[] = {50, 20, 20, 30, 10, 1};
  for (size_t i = 0; i < spans.size(); ++i) {
    expect(std::fabs(self[i] - want[i]) < 1e-9,
           "self time of " + spans[i].name + " = " + std::to_string(self[i]));
  }
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ringbench

int main(int argc, char** argv) {
  using namespace ringbench;  // NOLINT
  dcy::Flags flags(argc, argv);
  if (flags.Has("selftest")) return SelfTest();
  if (flags.Has("about")) {
    std::printf("{\"compiler\": %s}\n", dcy::bench::JsonQuote(__VERSION__).c_str());
    return 0;
  }
  Config cfg;
  const std::string name = flags.GetString("workload", "");
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) cfg.spec = &spec;
  }
  if (cfg.spec == nullptr) {
    std::fprintf(stderr, "usage: ringbench --workload=NAME --seed=N --seconds=S --trace=0|1\n"
                         "       [--spill_dir=DIR] [--trace_out=FILE] | --selftest | --about\n"
                         "workloads:");
    for (const WorkloadSpec& spec : kWorkloads) std::fprintf(stderr, " %s", spec.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  cfg.seconds = flags.GetDouble("seconds", 10.0);
  cfg.trace = flags.GetInt("trace", 0) != 0;
  cfg.trace_out = flags.GetString("trace_out", "");
  cfg.spill_dir = flags.GetString("spill_dir", ".bench_build/spill");
  if (cfg.seconds <= 0) {
    std::fprintf(stderr, "ringbench: --seconds must be > 0\n");
    return 2;
  }
  return RunWorkload(cfg);
}
