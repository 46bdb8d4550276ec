// The binary relational algebra over BATs used by the paper's MAL plans
// (§3.2, Tables 1-2): reverse / mark / join / select / semijoin / kdiff /
// kunion / group / aggregates / sort / slice, plus aligned batcalc
// arithmetic. All fallible operators return Result<BatPtr>.
#pragma once

#include "bat/bat.h"
#include "common/status.h"

namespace dcy::bat {

// ---- shape operators --------------------------------------------------------

/// reverse(b): BAT[tail, head] — O(1), shares columns.
BatPtr Reverse(const BatPtr& b);

/// markT(b, base): BAT[b.head, dense oids from base] — renumbers the tail.
/// (Paper Table 1: `algebra.markT(X10, 0@0)`.)
BatPtr MarkT(const BatPtr& b, Oid base);

/// markH(b, base): BAT[dense oids from base, b.tail].
BatPtr MarkH(const BatPtr& b, Oid base);

/// mirror(b): BAT[b.head, b.head].
BatPtr Mirror(const BatPtr& b);

/// slice(b, lo, hi): rows [lo, hi) by position.
Result<BatPtr> Slice(const BatPtr& b, size_t lo, size_t hi);

// ---- joins -----------------------------------------------------------------

/// join(l, r): { [l.head, r.tail] : l.tail == r.head } — the classic BAT
/// equi-join, on one of three paths (paper §3.1). A dense r head is fetched
/// by position: row i of l meets row l.tail[i] - seqbase of r, one gather in
/// O(|l|). Otherwise merge join when both join columns are sorted, hash join
/// when not. Types of l.tail and r.head must match.
Result<BatPtr> Join(const BatPtr& l, const BatPtr& r);

/// leftjoin(l, r): like join but guarantees l's row order in the output
/// (every path walks l in order, so this is join with order asserted).
Result<BatPtr> LeftJoin(const BatPtr& l, const BatPtr& r);

/// semijoin(l, r): rows of l whose head appears in r's head.
Result<BatPtr> SemiJoin(const BatPtr& l, const BatPtr& r);

/// kdiff(l, r): rows of l whose head does NOT appear in r's head.
Result<BatPtr> KDiff(const BatPtr& l, const BatPtr& r);

/// kunion(l, r): l plus the rows of r whose head is not in l's head.
Result<BatPtr> KUnion(const BatPtr& l, const BatPtr& r);

// ---- selections --------------------------------------------------------------

/// select(b, v): rows with tail == v.
Result<BatPtr> Select(const BatPtr& b, const Value& v);

/// select(b, lo, hi): rows with lo <= tail <= hi (inclusive range, as the
/// MAL algebra.select).
Result<BatPtr> SelectRange(const BatPtr& b, const Value& lo, const Value& hi);

/// uselect(b, v): like select but the tail is dropped (head-only result
/// with a void/dense tail), MonetDB-style.
Result<BatPtr> USelect(const BatPtr& b, const Value& v);

/// Comparison predicates for ThetaSelect.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// thetaselect(b, v, op): rows whose tail satisfies `tail op v`. Strings
/// compare lexicographically against string values only; numeric tails
/// compare as int64 when both sides are integral, as double otherwise.
/// kEq delegates to the adaptive Select kernel.
Result<BatPtr> ThetaSelect(const BatPtr& b, const Value& v, CmpOp op);

// ---- grouping & aggregation ---------------------------------------------------

/// group(b): BAT[b.head, group-id] assigning a dense group id (0-based, in
/// order of first appearance) to each distinct tail value.
Result<BatPtr> GroupId(const BatPtr& b);

/// groupValues(b): BAT[dense gid, representative tail value per group].
Result<BatPtr> GroupValues(const BatPtr& b);

/// refine(col, gids): MonetDB's group.subgroup — regroups over the pairs
/// (gids[i], col[i]), assigning dense new group ids (0-based, first
/// appearance order). `col` and `gids` must be positionally aligned; the
/// SQL front end chains this to group by several columns.
Result<BatPtr> GroupRefine(const BatPtr& col, const BatPtr& gids);

/// extents(gids): BAT[dense gid, head oid of the group's first row]. `gids`
/// must carry dense group ids (every id in [0, max] present), as GroupId
/// and GroupRefine produce. Joining the result against an aligned column
/// projects that column's per-group representative value.
Result<BatPtr> GroupExtents(const BatPtr& gids);

/// count(b): number of rows.
uint64_t Count(const BatPtr& b);

/// sum/min/max/avg over the tail (numeric tails only).
Result<Value> Sum(const BatPtr& b);
Result<Value> Min(const BatPtr& b);
Result<Value> Max(const BatPtr& b);
Result<Value> Avg(const BatPtr& b);

/// Grouped aggregates: `values` is BAT[x, v], `gids` is BAT[x, gid] aligned
/// by position; result is BAT[dense gid, aggregate].
Result<BatPtr> SumPerGroup(const BatPtr& values, const BatPtr& gids, size_t num_groups);
Result<BatPtr> CountPerGroup(const BatPtr& gids, size_t num_groups);

/// Per-group extremes (numeric tails). Integer-family values aggregate and
/// return as lng, doubles as dbl. Every group in [0, num_groups) must have
/// at least one row (an empty group has no extreme).
Result<BatPtr> MinPerGroup(const BatPtr& values, const BatPtr& gids, size_t num_groups);
Result<BatPtr> MaxPerGroup(const BatPtr& values, const BatPtr& gids, size_t num_groups);

// ---- ordering -----------------------------------------------------------------

/// sort(b): rows reordered by ascending tail.
Result<BatPtr> Sort(const BatPtr& b);

/// topn(b, n, descending): the n rows with the largest (or smallest) tails.
Result<BatPtr> TopN(const BatPtr& b, size_t n, bool descending = true);

// ---- aligned arithmetic (batcalc) ----------------------------------------------

enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Element-wise arithmetic on positionally aligned BATs: [h, a] op [h, b]
/// -> [h, a op b] as dbl.
Result<BatPtr> Arith(const BatPtr& a, const BatPtr& b, ArithOp op);

/// Element-wise arithmetic with a scalar: [h, a] op v.
Result<BatPtr> ArithConst(const BatPtr& a, const Value& v, ArithOp op);

/// project(b, v): BAT[b.head, constant v].
BatPtr ProjectConst(const BatPtr& b, const Value& v);

}  // namespace dcy::bat
