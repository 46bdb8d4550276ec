// Validation of live TPC-H answers against workload::TpchReferenceAnswer
// (plain C++ loops over the generated tuples, no engine code).
#pragma once

#include <string>

#include "bat/column.h"
#include "runtime/session.h"
#include "workload/tpch_data.h"

namespace ringbench {

/// Strings and integers compare exactly; doubles within a relative 1e-6,
/// because sums of ~1e5 cent-quantized terms reassociate across morsels.
bool ValuesMatch(const dcy::bat::Value& got, const dcy::bat::Value& want);

/// True when `got` has the reference's shape and values, row for row.
/// Otherwise `why` (when non-null) receives the first divergence.
bool ValidateTpch(int q, const dcy::runtime::ResultSet& got,
                  const dcy::workload::TpchAnswer& want, std::string* why);

}  // namespace ringbench
