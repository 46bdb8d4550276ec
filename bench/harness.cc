#include "bench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/stats.h"

namespace dcy::bench {

namespace {

double NowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

/// Formats a duration in ns with an adaptive unit so micro and simulation
/// benches both read naturally in the summary table.
std::string FormatNs(double ns) {
  char buf[64];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
  }
  return buf;
}

std::string FormatNumber(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

CaseResult NewCase(const std::string& name,
                   const std::map<std::string, std::string>& params, int warmup,
                   int repeats) {
  CaseResult cr;
  cr.name = name;
  cr.params = params;
  cr.warmup = warmup;
  cr.repeats = repeats;
  return cr;
}

/// Times one repetition of `fn`: its wall time goes to `rep_ns`, its items
/// and metrics are summed into `cr`.
void TimeRep(const std::function<RepResult()>& fn, CaseResult* cr,
             std::vector<double>* rep_ns) {
  const double t0 = NowNs();
  RepResult rep = fn();
  rep_ns->push_back(NowNs() - t0);
  cr->total_items += rep.items;
  for (const auto& [k, v] : rep.metrics) cr->metrics[k] += v;
}

}  // namespace

double ExactPercentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  p = std::min(100.0, std::max(0.0, p));
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Harness::Harness(std::string name, int argc, char** argv, int default_repeats,
                 int default_warmup)
    : name_(std::move(name)), repeats_(default_repeats), warmup_(default_warmup) {
  // Accept both --key=value and --key value for the harness's own flags so
  // the CI smoke invocation (`--repeat 1 --json`) works verbatim; other
  // flags stay untouched for the bench's dcy::Flags.
  auto value_of = [&](int i, const char* key, std::string* out) {
    const std::string arg = argv[i];
    const std::string prefix = std::string("--") + key;
    if (arg.rfind(prefix + "=", 0) == 0) {
      *out = arg.substr(prefix.size() + 1);
      return true;
    }
    if (arg == prefix) {
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        *out = argv[i + 1];
      } else {
        out->clear();
      }
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (value_of(i, "repeat", &v) || value_of(i, "repeats", &v)) {
      if (!v.empty())
        repeats_ = std::max(1, static_cast<int>(std::strtol(v.c_str(), nullptr, 10)));
    } else if (value_of(i, "warmup", &v)) {
      if (!v.empty())
        warmup_ = std::max(0, static_cast<int>(std::strtol(v.c_str(), nullptr, 10)));
    } else if (value_of(i, "json", &v)) {
      json_path_ = v.empty() ? "BENCH_" + name_ + ".json" : v;
    } else if (std::string(argv[i]) == "--quiet") {
      quiet_ = true;
    }
  }
}

CaseResult Harness::Run(const std::string& case_name,
                        const std::map<std::string, std::string>& params,
                        const std::function<RepResult()>& fn) {
  for (int i = 0; i < warmup_; ++i) fn();
  CaseResult cr = NewCase(case_name, params, warmup_, repeats_);
  std::vector<double> rep_ns;
  for (int i = 0; i < repeats_; ++i) TimeRep(fn, &cr, &rep_ns);
  return Record(std::move(cr), rep_ns);
}

std::pair<CaseResult, CaseResult> Harness::RunAlternating(const TwinCase& a,
                                                          const TwinCase& b,
                                                          int min_rounds) {
  const int rounds = std::max(repeats_, min_rounds);
  CaseResult ra = NewCase(a.name, a.params, warmup_, rounds);
  CaseResult rb = NewCase(b.name, b.params, warmup_, rounds);
  std::vector<double> a_ns;
  std::vector<double> b_ns;
  for (int i = 0; i < warmup_ + rounds; ++i) {
    for (const bool run_a : {i % 2 == 0, i % 2 != 0}) {
      const TwinCase& twin = run_a ? a : b;
      if (i < warmup_) {
        twin.fn();
      } else {
        TimeRep(twin.fn, run_a ? &ra : &rb, run_a ? &a_ns : &b_ns);
      }
    }
  }
  return {Record(std::move(ra), a_ns), Record(std::move(rb), b_ns)};
}

CaseResult Harness::Record(CaseResult cr, const std::vector<double>& rep_ns) {
  RunningStat time_stat;
  for (const double ns : rep_ns) time_stat.Add(ns);
  for (auto& [k, v] : cr.metrics) v /= static_cast<double>(cr.repeats);
  cr.p50_ns = ExactPercentile(rep_ns, 50.0);
  cr.p95_ns = ExactPercentile(rep_ns, 95.0);
  cr.mean_ns = time_stat.mean();
  cr.min_ns = time_stat.min();
  cr.max_ns = time_stat.max();
  const double total_ns = time_stat.sum();
  cr.throughput = total_ns > 0 ? cr.total_items / (total_ns / 1e9) : 0.0;

  if (!quiet_) {
    if (!header_printed_) {
      std::fprintf(stderr, "## %-38s %5s %12s %12s %14s\n", ("bench " + name_).c_str(),
                   "reps", "p50", "p95", "items/s");
      header_printed_ = true;
    }
    std::fprintf(stderr, "## %-38s %5d %12s %12s %14.1f\n", cr.name.c_str(), cr.repeats,
                 FormatNs(cr.p50_ns).c_str(), FormatNs(cr.p95_ns).c_str(), cr.throughput);
  }

  cases_.push_back(cr);
  return cr;
}

int Harness::Finish() {
  if (json_path_.empty()) return 0;
  std::ofstream out(json_path_);
  if (!out) {
    std::fprintf(stderr, "bench %s: cannot open %s for writing\n", name_.c_str(),
                 json_path_.c_str());
    return 1;
  }
  out << ToJson(name_, repeats_, warmup_, cases_);
  out.close();
  if (!out) {
    std::fprintf(stderr, "bench %s: failed writing %s\n", name_.c_str(),
                 json_path_.c_str());
    return 1;
  }
  if (!quiet_)
    std::fprintf(stderr, "## wrote %s (%zu cases)\n", json_path_.c_str(), cases_.size());
  return 0;
}

std::string Harness::ToJson(const std::string& bench_name, int repeats, int warmup,
                            const std::vector<CaseResult>& cases) {
  std::string j = "{\n";
  j += "  \"benchmark\": " + JsonQuote(bench_name) + ",\n";
  j += "  \"schema\": \"dcy-bench-v1\",\n";
  j += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  j += "  \"warmup\": " + std::to_string(warmup) + ",\n";
  j += "  \"cases\": [";
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    {\"name\": " + JsonQuote(c.name) + ", \"params\": {";
    bool first = true;
    for (const auto& [k, v] : c.params) {
      if (!first) j += ", ";
      first = false;
      j += JsonQuote(k) + ": " + JsonQuote(v);
    }
    j += "}, \"repeats\": " + std::to_string(c.repeats);
    j += ", \"warmup\": " + std::to_string(c.warmup);
    j += ", \"p50_ns\": " + FormatNumber(c.p50_ns);
    j += ", \"p95_ns\": " + FormatNumber(c.p95_ns);
    j += ", \"mean_ns\": " + FormatNumber(c.mean_ns);
    j += ", \"min_ns\": " + FormatNumber(c.min_ns);
    j += ", \"max_ns\": " + FormatNumber(c.max_ns);
    j += ", \"total_items\": " + FormatNumber(c.total_items);
    j += ", \"throughput\": " + FormatNumber(c.throughput);
    j += ", \"metrics\": {";
    first = true;
    for (const auto& [k, v] : c.metrics) {
      if (!first) j += ", ";
      first = false;
      j += JsonQuote(k) + ": " + FormatNumber(v);
    }
    j += "}}";
  }
  j += cases.empty() ? "]\n" : "\n  ]\n";
  j += "}\n";
  return j;
}

// ---------------------------------------------------------------------------
// JSON

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue Parse(bool* ok) {
    JsonValue v = ParseValue();
    SkipWs();
    const bool good = !failed_ && pos_ == s_.size();
    if (ok != nullptr) *ok = good;
    return good ? v : JsonValue::MakeNull();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) return Fail();
    const char c = s_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      JsonValue v;
      v.type_ = JsonValue::Type::kBool;
      v.bool_ = true;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      JsonValue v;
      v.type_ = JsonValue::Type::kBool;
      return v;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue::MakeNull();
    }
    return ParseNumber();
  }

  JsonValue ParseObject() {
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return v;
    while (!failed_) {
      SkipWs();
      JsonValue key = ParseString();
      if (failed_ || !Consume(':')) return Fail();
      v.object_[key.string_] = ParseValue();
      if (Consume('}')) return v;
      if (!Consume(',')) return Fail();
    }
    return Fail();
  }

  JsonValue ParseArray() {
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    ++pos_;  // '['
    if (Consume(']')) return v;
    while (!failed_) {
      v.array_.push_back(ParseValue());
      if (Consume(']')) return v;
      if (!Consume(',')) return Fail();
    }
    return Fail();
  }

  JsonValue ParseString() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail();
    ++pos_;
    JsonValue v;
    v.type_ = JsonValue::Type::kString;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': {  // JsonQuote emits \u00XX for control chars
            if (pos_ + 4 > s_.size()) return Fail();
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail();
            }
            if (code < 0x80) {
              c = static_cast<char>(code);
            } else if (code < 0x800) {  // 2-byte UTF-8
              v.string_ += static_cast<char>(0xC0 | (code >> 6));
              c = static_cast<char>(0x80 | (code & 0x3F));
            } else {  // 3-byte UTF-8 (no surrogate-pair support)
              v.string_ += static_cast<char>(0xE0 | (code >> 12));
              v.string_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              c = static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return Fail();
        }
      }
      v.string_ += c;
    }
    if (pos_ >= s_.size()) return Fail();
    ++pos_;  // closing quote
    return v;
  }

  JsonValue ParseNumber() {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start) return Fail();
    pos_ += static_cast<size_t>(end - start);
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = d;
    return v;
  }

  JsonValue Fail() {
    failed_ = true;
    return JsonValue::MakeNull();
  }

  const std::string& s_;
  size_t pos_ = 0;
  bool failed_ = false;
};

const JsonValue& JsonValue::operator[](const std::string& key) const {
  static const JsonValue kNull;
  if (type_ != Type::kObject) return kNull;
  auto it = object_.find(key);
  return it == object_.end() ? kNull : it->second;
}

JsonValue JsonValue::Parse(const std::string& text, bool* ok) {
  return JsonParser(text).Parse(ok);
}

bool CasesFromJson(const JsonValue& doc, std::vector<CaseResult>* out) {
  out->clear();
  if (doc.type() != JsonValue::Type::kObject ||
      doc["schema"].type() != JsonValue::Type::kString ||
      doc["schema"].str() != "dcy-bench-v1" ||
      doc["cases"].type() != JsonValue::Type::kArray) {
    return false;
  }
  for (const JsonValue& jc : doc["cases"].array()) {
    if (jc.type() != JsonValue::Type::kObject ||
        jc["name"].type() != JsonValue::Type::kString ||
        jc["p50_ns"].type() != JsonValue::Type::kNumber ||
        jc["p95_ns"].type() != JsonValue::Type::kNumber ||
        jc["throughput"].type() != JsonValue::Type::kNumber) {
      return false;
    }
    CaseResult c;
    c.name = jc["name"].str();
    c.repeats = static_cast<int>(jc["repeats"].number());
    c.warmup = static_cast<int>(jc["warmup"].number());
    c.p50_ns = jc["p50_ns"].number();
    c.p95_ns = jc["p95_ns"].number();
    c.mean_ns = jc["mean_ns"].number();
    c.min_ns = jc["min_ns"].number();
    c.max_ns = jc["max_ns"].number();
    c.total_items = jc["total_items"].number();
    c.throughput = jc["throughput"].number();
    for (const auto& [k, v] : jc["params"].object()) c.params[k] = v.str();
    for (const auto& [k, v] : jc["metrics"].object()) c.metrics[k] = v.number();
    out->push_back(std::move(c));
  }
  return true;
}

}  // namespace dcy::bench
