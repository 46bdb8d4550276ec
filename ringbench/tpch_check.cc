#include "tpch_check.h"

#include <algorithm>
#include <cmath>

namespace ringbench {

bool ValuesMatch(const dcy::bat::Value& got, const dcy::bat::Value& want) {
  using dcy::bat::ValType;
  if (want.type == ValType::kStr) return got.type == ValType::kStr && got.s == want.s;
  if (want.type == ValType::kDbl) {
    const double g = got.AsDouble(), w = want.AsDouble();
    return std::fabs(g - w) <= 1e-6 * std::max(1.0, std::max(std::fabs(g), std::fabs(w)));
  }
  return got.AsInt64() == want.AsInt64();
}

bool ValidateTpch(int q, const dcy::runtime::ResultSet& got,
                  const dcy::workload::TpchAnswer& want, std::string* why) {
  auto fail = [&](std::string msg) {
    if (why != nullptr) *why = "Q" + std::to_string(q) + ": " + std::move(msg);
    return false;
  };
  if (got.num_columns() != want.names.size()) {
    return fail("got " + std::to_string(got.num_columns()) + " columns, want " +
                std::to_string(want.names.size()));
  }
  if (got.num_rows() != want.rows.size()) {
    return fail("got " + std::to_string(got.num_rows()) + " rows, want " +
                std::to_string(want.rows.size()));
  }
  for (size_t r = 0; r < want.rows.size(); ++r) {
    for (size_t c = 0; c < want.names.size(); ++c) {
      const dcy::bat::Value g = got.ValueAt(r, c);
      if (!ValuesMatch(g, want.rows[r][c])) {
        return fail("row " + std::to_string(r) + " column " + want.names[c] + ": got " +
                    g.ToString() + ", want " + want.rows[r][c].ToString());
      }
    }
  }
  return true;
}

}  // namespace ringbench
