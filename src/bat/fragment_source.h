// Read-side interface over one node's persistent fragments. The MAL
// interpreter's sql.bind fetches payloads through it without knowing which
// tier (RAM, disk) currently holds them: storage::FragmentStore implements it
// with a budgeted two-tier store behind, and local plan executions (tests,
// replays) pass any in-memory source.
#pragma once

#include <string>

#include "bat/bat.h"
#include "common/status.h"
#include "core/types.h"

namespace dcy::bat {

class FragmentSource {
 public:
  virtual ~FragmentSource() = default;

  /// Fetches by qualified name; NotFound if absent. May fault a spilled
  /// fragment back in; the returned pointer stays valid regardless of later
  /// evictions (fragments are immutable and shared).
  virtual Result<BatPtr> GetByName(const std::string& name) = 0;
  /// Fetches by ring fragment id.
  virtual Result<BatPtr> GetById(core::BatId id) = 0;
};

}  // namespace dcy::bat
