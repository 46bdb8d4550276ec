// Tests for the shared bench harness: percentile math, warmup/repeat
// accounting, metric averaging, and the BENCH_*.json schema round-trip.
#include "bench/harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace dcy::bench {
namespace {

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(ExactPercentileTest, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(ExactPercentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(ExactPercentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(ExactPercentile({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(ExactPercentile({7.0}, 100.0), 7.0);
}

TEST(ExactPercentileTest, InterpolatesBetweenOrderStatistics) {
  // Sorted: 10 20 30 40 50. rank(p50) = 2 -> 30; rank(p95) = 3.8 -> 48.
  const std::vector<double> s = {50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(ExactPercentile(s, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(ExactPercentile(s, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(ExactPercentile(s, 95.0), 48.0);
  EXPECT_DOUBLE_EQ(ExactPercentile(s, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(ExactPercentile(s, 25.0), 20.0);
}

TEST(ExactPercentileTest, ClampsOutOfRangeP) {
  const std::vector<double> s = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(ExactPercentile(s, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(ExactPercentile(s, 250.0), 3.0);
}

TEST(HarnessTest, WarmupAndRepeatAccounting) {
  std::vector<std::string> args = {"prog", "--repeat=4", "--warmup=2", "--quiet"};
  auto argv = Argv(args);
  Harness h("unit", static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(h.repeats(), 4);
  EXPECT_EQ(h.warmup(), 2);

  int calls = 0;
  const CaseResult& r = h.Run("case_a", {{"k", "v"}}, [&] {
    ++calls;
    RepResult rep;
    rep.items = 10.0;
    rep.metrics["finished"] = calls;  // varies per call: checks mean over measured reps
    return rep;
  });
  // 2 warmup (untimed, unrecorded) + 4 measured calls.
  EXPECT_EQ(calls, 6);
  EXPECT_EQ(r.repeats, 4);
  EXPECT_EQ(r.warmup, 2);
  EXPECT_DOUBLE_EQ(r.total_items, 40.0);
  // Metrics average over the measured reps only: calls 3,4,5,6 -> mean 4.5.
  EXPECT_DOUBLE_EQ(r.metrics.at("finished"), 4.5);
  EXPECT_GT(r.p50_ns, 0.0);
  EXPECT_LE(r.min_ns, r.p50_ns);
  EXPECT_LE(r.p50_ns, r.p95_ns);
  EXPECT_LE(r.p95_ns, r.max_ns);
  EXPECT_GT(r.throughput, 0.0);
}

TEST(HarnessTest, TwinCasesAlternateWhichGoesFirst) {
  std::vector<std::string> args = {"prog", "--repeat", "1", "--warmup=1", "--quiet"};
  auto argv = Argv(args);
  Harness h("unit", static_cast<int>(argv.size()), argv.data());

  std::string order;
  const auto twin = [&](char tag) {
    Harness::TwinCase c;
    c.name = std::string(1, tag);
    c.fn = [&order, tag] {
      order += tag;
      RepResult rep;
      rep.items = 1.0;
      rep.metrics["tag"] = tag;
      return rep;
    };
    return c;
  };
  const auto [a, b] = h.RunAlternating(twin('a'), twin('b'), 5);
  // One warmup round, then five timed rounds (min_rounds beats --repeat 1),
  // and the case that goes first swaps every round.
  EXPECT_EQ(order, "abbaabbaabba");
  for (const CaseResult* r : {&a, &b}) {
    EXPECT_EQ(r->repeats, 5);
    EXPECT_EQ(r->warmup, 1);
    EXPECT_DOUBLE_EQ(r->total_items, 5.0);
    EXPECT_LE(r->min_ns, r->p50_ns);
    EXPECT_LE(r->p50_ns, r->max_ns);
  }
  EXPECT_DOUBLE_EQ(a.metrics.at("tag"), 'a');
  EXPECT_DOUBLE_EQ(b.metrics.at("tag"), 'b');
  ASSERT_EQ(h.results().size(), 2u);
  EXPECT_EQ(h.results()[0].name, "a");
  EXPECT_EQ(h.results()[1].name, "b");
}

TEST(HarnessTest, DefaultsAndSpaceSeparatedFlagForms) {
  std::vector<std::string> args = {"prog", "--repeat", "7", "--json", "out.json"};
  auto argv = Argv(args);
  Harness h("unit", static_cast<int>(argv.size()), argv.data(), 3, 1);
  EXPECT_EQ(h.repeats(), 7);
  EXPECT_EQ(h.warmup(), 1);
  EXPECT_EQ(h.json_path(), "out.json");

  std::vector<std::string> bare = {"prog", "--json"};
  auto bargv = Argv(bare);
  Harness hb("fig6_loit", static_cast<int>(bargv.size()), bargv.data());
  EXPECT_EQ(hb.json_path(), "BENCH_fig6_loit.json");

  std::vector<std::string> none = {"prog"};
  auto nargv = Argv(none);
  Harness hn("unit", static_cast<int>(nargv.size()), nargv.data(), 5, 2);
  EXPECT_EQ(hn.repeats(), 5);
  EXPECT_EQ(hn.warmup(), 2);
  EXPECT_TRUE(hn.json_path().empty());
}

TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonQuote("a\fb"), "\"a\\u000cb\"");
}

TEST(JsonTest, ControlCharactersRoundTrip) {
  // The emitter writes \u00XX for control chars; the parser must read them
  // back (plus general \uXXXX as UTF-8).
  bool ok = false;
  JsonValue v = JsonValue::Parse(JsonQuote("a\fb\x01"), &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v.str(), "a\fb\x01");
  v = JsonValue::Parse("\"\\u0041\\u00e9\\u20ac\"", &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v.str(), "A\xc3\xa9\xe2\x82\xac");  // A, é, €
  JsonValue::Parse("\"\\u12g4\"", &ok);
  EXPECT_FALSE(ok);
  JsonValue::Parse("\"\\u12\"", &ok);
  EXPECT_FALSE(ok);
}

TEST(JsonTest, ParsesScalarsObjectsArrays) {
  bool ok = false;
  JsonValue v = JsonValue::Parse(
      R"({"s": "x\ty", "n": -2.5e3, "b": true, "z": null, "a": [1, 2, 3], "o": {"k": 1}})",
      &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v["s"].str(), "x\ty");
  EXPECT_DOUBLE_EQ(v["n"].number(), -2500.0);
  EXPECT_TRUE(v["b"].boolean());
  EXPECT_TRUE(v["z"].is_null());
  ASSERT_EQ(v["a"].array().size(), 3u);
  EXPECT_DOUBLE_EQ(v["a"].array()[1].number(), 2.0);
  EXPECT_DOUBLE_EQ(v["o"]["k"].number(), 1.0);
  EXPECT_TRUE(v["missing"].is_null());
}

TEST(JsonTest, RejectsMalformedInput) {
  for (auto bad : {"{", "[1,]", "{\"a\" 1}", "tru", "{\"a\": 1} trailing", "\"open"}) {
    bool ok = true;
    JsonValue v = JsonValue::Parse(bad, &ok);
    EXPECT_FALSE(ok) << bad;
    EXPECT_TRUE(v.is_null()) << bad;
  }
}

TEST(JsonTest, SchemaRoundTrip) {
  CaseResult a;
  a.name = "loit_0.5";
  a.params = {{"loit", "0.5"}, {"scale", "0.20"}};
  a.warmup = 1;
  a.repeats = 3;
  a.p50_ns = 1.25e9;
  a.p95_ns = 1.5e9;
  a.mean_ns = 1.3e9;
  a.min_ns = 1.2e9;
  a.max_ns = 1.6e9;
  a.total_items = 2988.0;
  a.throughput = 830.25;
  a.metrics = {{"finished", 996.0}, {"loads", 12345.0}};
  CaseResult b;
  b.name = "empty \"quoted\"";
  b.repeats = 1;

  const std::string doc = Harness::ToJson("fig6_loit", 3, 1, {a, b});
  bool ok = false;
  JsonValue parsed = JsonValue::Parse(doc, &ok);
  ASSERT_TRUE(ok) << doc;
  EXPECT_EQ(parsed["benchmark"].str(), "fig6_loit");
  EXPECT_EQ(parsed["schema"].str(), "dcy-bench-v1");
  EXPECT_DOUBLE_EQ(parsed["repeats"].number(), 3.0);

  std::vector<CaseResult> cases;
  ASSERT_TRUE(CasesFromJson(parsed, &cases));
  ASSERT_EQ(cases.size(), 2u);
  EXPECT_EQ(cases[0].name, a.name);
  EXPECT_EQ(cases[0].params, a.params);
  EXPECT_EQ(cases[0].repeats, a.repeats);
  EXPECT_EQ(cases[0].warmup, a.warmup);
  EXPECT_DOUBLE_EQ(cases[0].p50_ns, a.p50_ns);
  EXPECT_DOUBLE_EQ(cases[0].p95_ns, a.p95_ns);
  EXPECT_DOUBLE_EQ(cases[0].mean_ns, a.mean_ns);
  EXPECT_DOUBLE_EQ(cases[0].min_ns, a.min_ns);
  EXPECT_DOUBLE_EQ(cases[0].max_ns, a.max_ns);
  EXPECT_DOUBLE_EQ(cases[0].total_items, a.total_items);
  EXPECT_DOUBLE_EQ(cases[0].throughput, a.throughput);
  EXPECT_EQ(cases[0].metrics, a.metrics);
  EXPECT_EQ(cases[1].name, b.name);
  EXPECT_TRUE(cases[1].params.empty());
  EXPECT_TRUE(cases[1].metrics.empty());
}

TEST(JsonTest, CasesFromJsonRejectsWrongSchema) {
  bool ok = false;
  std::vector<CaseResult> cases;
  JsonValue wrong = JsonValue::Parse(R"({"schema": "other", "cases": []})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_FALSE(CasesFromJson(wrong, &cases));
  JsonValue missing = JsonValue::Parse(
      R"({"schema": "dcy-bench-v1", "cases": [{"name": "x"}]})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_FALSE(CasesFromJson(missing, &cases));
}

}  // namespace
}  // namespace dcy::bench
