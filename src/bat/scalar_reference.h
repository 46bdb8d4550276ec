// Row-at-a-time reference implementations of the hot BAT operators, retained
// verbatim from the pre-vectorization engine. They are the oracle for the
// randomized differential tests in tests/bat_kernels_test.cc: the vectorized
// operators in bat/operators.cc must produce bit-identical BATs (same rows,
// same order). Not used on any production path.
#pragma once

#include "bat/bat.h"
#include "common/status.h"

namespace dcy::bat::scalar {

/// select(b, v): rows with tail == v (boxed Value comparisons).
Result<BatPtr> Select(const BatPtr& b, const Value& v);

/// select(b, lo, hi): rows with lo <= tail <= hi, inclusive.
Result<BatPtr> SelectRange(const BatPtr& b, const Value& lo, const Value& hi);

/// join(l, r): merge join when both join columns are sorted, hash join
/// otherwise. There is no positional path for a dense r head: the oracle
/// checks the engine's fetch join against merge and hash.
Result<BatPtr> Join(const BatPtr& l, const BatPtr& r);

/// semijoin / kdiff / kunion on head membership.
Result<BatPtr> SemiJoin(const BatPtr& l, const BatPtr& r);
Result<BatPtr> KDiff(const BatPtr& l, const BatPtr& r);
Result<BatPtr> KUnion(const BatPtr& l, const BatPtr& r);

/// sort(b): stable ascending sort on the tail.
Result<BatPtr> Sort(const BatPtr& b);

/// topn(b, n): the first n rows of the stable sort on the tail (descending
/// reverses the key order but still breaks ties by ascending input
/// position). The oracle for the engine's sequential and parallel TopN;
/// the default matches bat::TopN (largest first).
Result<BatPtr> TopN(const BatPtr& b, size_t n, bool descending = true);

}  // namespace dcy::bat::scalar
