// Measurement helpers of ringbench: the supported-percentile rule, and an
// in-memory span recorder whose spans are written as Chrome trace-event
// JSON when the run ends (load the file in chrome://tracing or Perfetto).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ringbench {

/// \brief One percentile of a sample, labelled ("p90") with the sample size.
struct Percentile {
  std::string label;
  double value = 0.0;
  size_t n = 0;
};

/// The highest of p50/p90/p99/p99.9 that has at least ten samples beyond it
/// (n * (1 - p) >= 10), computed with bench::ExactPercentile. Samples too
/// few for any of them still get their median, labelled p50.
Percentile SupportedPercentile(const std::vector<double>& samples);

/// \brief A closed interval of one layer's work. Times are microseconds
/// since the recorder's epoch; `parent` is 0 for a root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string cat;
  uint32_t tid = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  std::vector<std::pair<std::string, double>> args;

  double dur_us() const { return end_us - start_us; }
};

/// \brief Thread-safe span store. A disabled recorder hands out ids and
/// clock readings but keeps nothing, so call sites need no branches.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  /// Microseconds since construction (steady_clock).
  double NowUs() const;
  uint64_t NewId();
  /// Stores `span`, assigning a fresh id when it has none; returns the id.
  uint64_t Add(Span span);
  std::vector<Span> Spans() const;

  /// Writes every span as a complete ("ph":"X") trace event.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  const int64_t epoch_ns_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Self time of each span (same order as `spans`): its duration minus the
/// part of its interval that the union of its direct children covers.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

}  // namespace ringbench
