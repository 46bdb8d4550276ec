#include "core/loi.h"

#include <utility>

#include "common/logging.h"

namespace dcy::core {

double ComputeNewLoi(double loi, uint32_t copies, uint32_t hops, uint32_t cycles) {
  DCY_DCHECK(cycles >= 1);
  const double cavg = hops == 0 ? 0.0 : static_cast<double>(copies) / static_cast<double>(hops);
  // Algebraically identical to Fig. 5 line 04:
  //   (loi + (copies/hops) * cycles) / cycles == loi/cycles + cavg
  return loi / static_cast<double>(cycles) + cavg;
}

AdaptiveLoit::AdaptiveLoit(Options options) : options_(std::move(options)) {
  DCY_CHECK(!options_.levels.empty());
  DCY_CHECK(options_.low_watermark < options_.high_watermark);
  level_ = options_.initial_level < options_.levels.size() ? options_.initial_level : 0;
}

void AdaptiveLoit::Update(double queue_load_fraction) {
  if (queue_load_fraction > options_.high_watermark) {
    if (level_ + 1 < options_.levels.size()) {
      ++level_;
      ++transitions_;
    }
  } else if (queue_load_fraction < options_.low_watermark) {
    if (level_ > 0) {
      --level_;
      ++transitions_;
    }
  }
}

}  // namespace dcy::core
