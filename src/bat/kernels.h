// Vectorized kernels for the BAT algebra hot path: selection vectors, raw
// gather loops, int64 key extraction, and a flat open-addressing hash table
// (MonetDB hash-heap style). Operators in bat/operators.cc compose these
// instead of walking rows through virtual GetValue/AppendValue boxing; the
// retained row-at-a-time implementations in bat/scalar_reference.h are the
// differential-test oracle. Every kernel is one sequential loop on the
// calling thread: a plan's instructions run side by side as dataflow tasks
// on the shared exec::Executor task pool, not split across helper threads.
#pragma once

#include <cstdint>
#include <vector>

#include "bat/column.h"

namespace dcy::bat {

/// Row-position selection vector produced by the filter kernels. uint32
/// positions keep it cache-resident; BAT fragments are far below 4G rows.
using SelVec = std::vector<uint32_t>;

namespace kernels {

// ---- gather -----------------------------------------------------------------

/// out[i] = c[idx[i]] via type-specialized tight loops. A dense oid source
/// gathered with a contiguous index run collapses back to a dense column
/// (slices stay materialization-free). Strings take a presized build: sum
/// the lengths, size the heap once, then one memcpy per string.
ColumnPtr Gather(const Column& c, const uint32_t* idx, size_t n);

/// True if idx is a contiguous ascending run (idx[i] == idx[0] + i).
bool IsContiguous(const uint32_t* idx, size_t n);

// ---- selection --------------------------------------------------------------

/// Appends to *sel the positions with lo <= c[i] <= hi, reproducing the
/// scalar ValueLE semantics exactly (string bounds compare lexicographically;
/// a double column or double bound compares in the double domain; integer
/// families compare as int64). Returns the number of positions appended.
size_t SelectRange(const Column& c, const Value& lo, const Value& hi, SelVec* sel);

/// Appends to *sel the positions with c[i] == v (scalar ValueEQ semantics).
size_t SelectEq(const Column& c, const Value& v, SelVec* sel);

// ---- join keys --------------------------------------------------------------

/// Materializes the canonical int64 hash/equality key of every row: integer
/// families widen, doubles bit-cast (equality-by-bit-pattern, matching the
/// scalar hash join), dense ranges iota. Strings are not representable here;
/// callers dispatch them to the string paths.
void ExtractInt64Keys(const Column& c, std::vector<int64_t>* keys);

/// Materializes doubles (order-preserving, for merge join on dbl columns).
void ExtractDoubleKeys(const Column& c, std::vector<double>* keys);

/// Borrowed int64 key view of `c` for hash builds and probes: 8-byte
/// integer columns (lng, oid) alias their payload directly — no key vector
/// materialization — and everything else extracts into *scratch with
/// ExtractInt64Keys semantics (widening, dbl bit-cast, dense iota). The
/// view is valid while both `c` and *scratch are alive.
Span<int64_t> Int64KeySpan(const Column& c, std::vector<int64_t>* scratch);

// ---- flat hash table --------------------------------------------------------

/// \brief Flat multimap from int64 key to the rows holding it, with two
/// layouts picked at build time:
///  - direct addressing when the key range is small relative to the row
///    count (the common FK-join shape): one array load per probe;
///  - open addressing (linear probe, power-of-two capacity, <= 50% load)
///    with keys stored inline in the bucket array, so a probe touches one
///    cache line instead of chasing into the key column.
/// Buckets store the first row of a key; duplicates chain through next_ in
/// ascending row order, so probing emits matches in the same order as the
/// scalar reference join.
class FlatTable {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// Builds over keys[0, n) (borrowed for the build only).
  FlatTable(const int64_t* keys, size_t n);
  explicit FlatTable(const std::vector<int64_t>& keys)
      : FlatTable(keys.data(), keys.size()) {}
  explicit FlatTable(Span<int64_t> keys) : FlatTable(keys.data, keys.size) {}

  /// First row whose key equals `key`, or kNone.
  uint32_t Find(int64_t key) const {
    if (direct_) {
      // Unsigned wrap maps key < min to a huge offset: one bounds check.
      const uint64_t off = static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
      return off < bucket_rows_.size() ? bucket_rows_[off] : kNone;
    }
    uint64_t slot = Hash(key) & mask_;
    while (true) {
      const uint32_t row = bucket_rows_[slot];
      if (row == kNone) return kNone;
      if (bucket_keys_[slot] == key) return row;
      slot = (slot + 1) & mask_;
    }
  }

  /// Next row with the same key after `row`, or kNone.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  bool Contains(int64_t key) const { return Find(key) != kNone; }

  bool is_direct() const { return direct_; }

 private:
  static uint64_t Hash(int64_t key) {
    const uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 32);
  }

  bool direct_ = false;
  int64_t min_ = 0;
  uint64_t mask_ = 0;
  std::vector<uint32_t> bucket_rows_;
  std::vector<int64_t> bucket_keys_;  // open addressing only
  std::vector<uint32_t> next_;
};

}  // namespace kernels
}  // namespace dcy::bat
