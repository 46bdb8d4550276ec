// Read-side interface over a set of named fragments: the MAL interpreter's
// sql.bind fetches payloads through it. Only local plan executions use it
// (tests and replays pass an in-memory source); a plan on the live ring is
// DC-optimized, so it has no sql.bind left and reads every fragment through
// a pin instead.
#pragma once

#include <string>

#include "bat/bat.h"
#include "common/status.h"
#include "core/types.h"

namespace dcy::bat {

class FragmentSource {
 public:
  virtual ~FragmentSource() = default;

  /// Fetches by qualified name; NotFound if absent. Fragments are immutable
  /// and shared, so the returned pointer stays valid.
  virtual Result<BatPtr> GetByName(const std::string& name) = 0;
  /// Fetches by ring fragment id.
  virtual Result<BatPtr> GetById(core::BatId id) = 0;
};

}  // namespace dcy::bat
