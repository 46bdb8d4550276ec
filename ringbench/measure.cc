#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "bench/harness.h"

namespace ringbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

Percentile SupportedPercentile(const std::vector<double>& samples) {
  struct Level {
    const char* label;
    double p;
  };
  static constexpr Level kLevels[] = {{"p99.9", 99.9}, {"p99", 99.0}, {"p90", 90.0}};
  const double n = static_cast<double>(samples.size());
  for (const Level& level : kLevels) {
    // A small epsilon keeps n = 100 at p90 (exactly ten beyond) supported
    // despite 1 - 0.9 not being exact in binary.
    if (n * (1.0 - level.p / 100.0) + 1e-9 >= 10.0) {
      return {level.label, dcy::bench::ExactPercentile(samples, level.p), samples.size()};
    }
  }
  return {"p50", dcy::bench::ExactPercentile(samples, 50.0), samples.size()};
}

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), epoch_ns_(SteadyNs()) {}

double SpanRecorder::NowUs() const { return static_cast<double>(SteadyNs() - epoch_ns_) / 1e3; }

uint64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = next_id_++;
  const uint64_t id = span.id;
  if (enabled_) spans_.push_back(std::move(span));
  return id;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : Spans()) {
    out << (first ? "\n" : ",\n") << "{\"name\":" << dcy::bench::JsonQuote(s.name)
        << ",\"cat\":" << dcy::bench::JsonQuote(s.cat) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << Num(s.start_us) << ",\"dur\":" << Num(s.dur_us())
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
    for (const auto& [key, value] : s.args) {
      out << "," << dcy::bench::JsonQuote(key) << ":" << Num(value);
    }
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cursor = s.start_us;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_us);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = s.dur_us() - covered;
  }
  return self;
}

}  // namespace ringbench
