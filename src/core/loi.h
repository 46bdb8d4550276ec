// Level-of-interest arithmetic (paper Eq. 1 / Fig. 5) and the LOIT_n
// threshold policies: a static threshold for the §5.1 sweep and the
// buffer-load-adaptive policy of §5.2 (levels 0.1/0.6/1.1 with 80 %/40 %
// hysteresis).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace dcy::core {

/// \brief New level of interest computed by the owner once per completed
/// cycle (paper Fig. 5 line 04 / Eq. 1):
///
///   CAVG    = copies / hops
///   newLOI  = LOI / cycles + CAVG
///
/// `cycles` must already include the cycle being closed (>= 1). When a BAT
/// completed a cycle without travelling (hops == 0 cannot happen on a ring
/// of >= 2 nodes, but guard anyway) CAVG is 0.
double ComputeNewLoi(double loi, uint32_t copies, uint32_t hops, uint32_t cycles);

/// \brief Interface for the per-node minimum level of interest LOIT_n.
///
/// "Each node has its own LOIT_n and its value is derived from the local
/// BAT queue load" (§4.4).
class LoitPolicy {
 public:
  virtual ~LoitPolicy() = default;

  /// Current threshold: BATs whose new LOI falls below it are unloaded.
  virtual double threshold() const = 0;

  /// Feeds the current local BAT-queue load fraction (0..1); adaptive
  /// policies move their level, static policies ignore it.
  virtual void Update(double queue_load_fraction) = 0;
};

/// \brief Fixed LOIT_n, as swept in §5.1 (0.1 … 1.1).
class StaticLoit final : public LoitPolicy {
 public:
  explicit StaticLoit(double threshold) : threshold_(threshold) {}
  double threshold() const override { return threshold_; }
  void Update(double) override {}

 private:
  double threshold_;
};

/// \brief The §5.2 adaptive policy: a ladder of levels; one step up when the
/// local BAT queue exceeds the high watermark, one step down when it falls
/// below the low watermark.
class AdaptiveLoit final : public LoitPolicy {
 public:
  struct Options {
    std::vector<double> levels = {0.1, 0.6, 1.1};  // paper §5.2
    double high_watermark = 0.8;                   // "above 80% of capacity"
    double low_watermark = 0.4;                    // "below the 40%"
    size_t initial_level = 0;
  };

  explicit AdaptiveLoit(Options options);

  double threshold() const override { return options_.levels[level_]; }
  void Update(double queue_load_fraction) override;

  size_t level_index() const { return level_; }
  /// Number of level changes so far (ablation metric).
  uint64_t transitions() const { return transitions_; }

 private:
  Options options_;
  size_t level_;
  uint64_t transitions_ = 0;
};

}  // namespace dcy::core
