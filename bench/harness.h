// Shared benchmark harness for the bench_* figure-reproduction binaries.
//
// Every bench registers named cases; the harness runs each case with a
// warmup/repeat loop, times repetitions on std::chrono::steady_clock,
// aggregates percentiles (p50/p95 over repetition wall times), prints a
// human-readable summary table, and — with --json [path] — emits all cases
// in the stable BENCH_*.json schema the perf-trajectory tooling diffs
// run-over-run:
//
//   {
//     "benchmark": "fig6_loit",
//     "schema": "dcy-bench-v1",
//     "repeats": 3, "warmup": 1,
//     "cases": [
//       {"name": "...", "params": {"loit": "0.5"}, "repeats": 3,
//        "p50_ns": 1.2e9, "p95_ns": 1.3e9, "mean_ns": ..., "min_ns": ...,
//        "max_ns": ..., "throughput": 830.5, "metrics": {"finished": 996}}
//     ]
//   }
//
// Harness flags (accepted as --key=value or --key value):
//   --repeat=N   measured repetitions per case (bench picks the default)
//   --warmup=N   untimed warmup repetitions per case
//   --json[=P]   write the JSON report to P (default BENCH_<name>.json)
//   --quiet      suppress the per-case summary table
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dcy::bench {

/// \brief What one measured repetition reports back to the harness.
struct RepResult {
  /// Work items completed this repetition (queries, messages, tuples...);
  /// drives the aggregate throughput (items / wall-second).
  double items = 0.0;
  /// Bench-specific counters, averaged over repetitions into the case
  /// metrics (deterministic sims report the same value each rep).
  std::map<std::string, double> metrics;
};

/// \brief Aggregated result of one case after all repetitions.
struct CaseResult {
  std::string name;
  std::map<std::string, std::string> params;
  int warmup = 0;
  int repeats = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double mean_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
  double total_items = 0.0;
  /// items per wall-second across all measured repetitions.
  double throughput = 0.0;
  std::map<std::string, double> metrics;
};

/// \brief Exact percentile (linear interpolation between order statistics)
/// over a small sample, p in [0,100]. Complements Histogram::Percentile in
/// common/stats.h, which is bucketed and meant for thousands of samples.
double ExactPercentile(std::vector<double> samples, double p);

class Harness {
 public:
  /// `name` keys the JSON report (and the BENCH_<name>.json default path).
  /// Reads --repeat/--warmup/--json/--quiet from argv; other flags are left
  /// for the bench's own dcy::Flags to interpret.
  Harness(std::string name, int argc, char** argv, int default_repeats = 3,
          int default_warmup = 1);

  int repeats() const { return repeats_; }
  int warmup() const { return warmup_; }
  bool quiet() const { return quiet_; }
  const std::string& json_path() const { return json_path_; }

  /// Runs fn `warmup()` untimed + `repeats()` timed times and records the
  /// aggregate. Returns a copy of the recorded case (the stored ones live in
  /// results()).
  CaseResult Run(const std::string& case_name,
                 const std::map<std::string, std::string>& params,
                 const std::function<RepResult()>& fn);

  /// One of two twin cases that RunAlternating runs together.
  struct TwinCase {
    std::string name;
    std::map<std::string, std::string> params;
    std::function<RepResult()> fn;
  };

  /// Runs twin cases whose ratio a gate reads, one repetition of each per
  /// round: `warmup()` untimed rounds, then max(repeats(), min_rounds) timed
  /// ones. The case that goes first swaps every round, so a slow spell of
  /// the host lands on both twins rather than on one. Records `a`, then `b`.
  std::pair<CaseResult, CaseResult> RunAlternating(const TwinCase& a, const TwinCase& b,
                                                   int min_rounds);

  const std::vector<CaseResult>& results() const { return cases_; }

  /// Writes the JSON report if --json was given. Returns the process exit
  /// code: 0 on success, 1 when the report could not be written.
  int Finish();

  /// Renders the report document for `cases` (see the schema above).
  static std::string ToJson(const std::string& bench_name, int repeats, int warmup,
                            const std::vector<CaseResult>& cases);

 private:
  std::string name_;
  std::string json_path_;  // empty = no JSON output
  int repeats_;
  int warmup_;
  bool quiet_ = false;
  bool header_printed_ = false;
  std::vector<CaseResult> cases_;

  /// Aggregates the timed repetitions `rep_ns` into `cr`, prints its summary
  /// row and stores it.
  CaseResult Record(CaseResult cr, const std::vector<double>& rep_ns);
};

// ---------------------------------------------------------------------------
// Minimal JSON value + parser, enough to round-trip the report schema in
// tests and to diff BENCH_*.json files run-over-run. Not a general parser:
// no \uXXXX escapes, numbers via strtod.

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  double number() const { return number_; }
  bool boolean() const { return bool_; }
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  /// Object member lookup; returns a null value for misses / non-objects.
  const JsonValue& operator[](const std::string& key) const;

  /// Parses one JSON document; returns a null value on malformed input and
  /// sets *ok (when provided) accordingly.
  static JsonValue Parse(const std::string& text, bool* ok = nullptr);

  static JsonValue MakeNull() { return JsonValue(); }

 private:
  friend class JsonParser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Escapes a string for embedding in a JSON document (adds the quotes).
std::string JsonQuote(const std::string& s);

/// Parses a report produced by Harness::ToJson back into CaseResults;
/// returns false on schema mismatch.
bool CasesFromJson(const JsonValue& doc, std::vector<CaseResult>* out);

}  // namespace dcy::bench
