#include "bat/operators.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "bat/kernels.h"
#include "common/logging.h"

// The operators compose the vectorized kernels in bat/kernels.h: filters
// produce selection vectors over raw arrays, and outputs are built by bulk
// gather/append — no per-row Value boxing anywhere on the hot path. Joins
// take one of three paths: a positional fetch when the right head is dense
// (the re-alignment leftjoin every SQL plan runs per column), a merge when
// both join columns are sorted, and otherwise a probe of a flat
// open-addressing table on int64 keys. The pre-vectorization row-at-a-time
// implementations live on as the differential-test oracle in
// bat/scalar_reference.h; it has no fetch path, so the oracle checks the
// fetch join against an independent algorithm.
//
// Large inputs run morsel-parallel on the shared exec::Executor (see the
// MorselPlan machinery in bat/kernels.h): hash-join probes and membership
// filters emit per-morsel match vectors stitched in morsel order (output
// bit-identical to the sequential pass), hash builds radix-partition into
// per-partition FlatTables (kernels::PartitionedTable), Sort/TopN run
// per-morsel sorts/bounded heaps merged under a stable total order, and
// aggregates accumulate thread-local partials merged at the end (integer
// aggregates exact; floating-point sums associate per-morsel,
// deterministically for a fixed policy). Inputs below
// ExecPolicy::min_parallel_rows take the sequential loops unchanged.

namespace dcy::bat {

namespace {

using kernels::FlatTable;
using kernels::MorselPlan;
using kernels::PartitionedTable;

/// Integer family (oid/int/lng/date) members are join-compatible.
bool IsIntegerFamily(ValType t) {
  return t == ValType::kOid || t == ValType::kInt || t == ValType::kLng ||
         t == ValType::kDate;
}

Status CheckJoinable(ValType a, ValType b) {
  if (IsIntegerFamily(a) && IsIntegerFamily(b)) return Status::OK();
  if (a == b) return Status::OK();
  return Status::InvalidArgument(std::string("join type mismatch: ") + ValTypeName(a) +
                                 " vs " + ValTypeName(b));
}

Bat::Properties HeadOrderedProps(const Bat& l) {
  Bat::Properties p;
  p.hsorted = l.props().hsorted;
  return p;
}

/// Gathers the rows in `sel` out of both columns (order-preserving filter).
BatPtr FilterBySel(const Bat& b, const SelVec& sel) {
  Bat::Properties p;
  p.hsorted = b.props().hsorted;  // positional filters keep order
  p.tsorted = b.props().tsorted;
  p.hkey = b.props().hkey;
  p.tkey = b.props().tkey;
  return BatPtr(std::make_shared<Bat>(kernels::Gather(*b.head(), sel.data(), sel.size()),
                                      kernels::Gather(*b.tail(), sel.data(), sel.size()),
                                      p));
}

/// Like Int64KeySpan but doubles convert by value truncation (the GetInt64
/// semantics HeadSet membership and grouped aggregates use), not by bit
/// pattern. Valid while `c` and *scratch are alive.
Span<int64_t> CastInt64KeySpan(const Column& c, std::vector<int64_t>* scratch) {
  if (c.kind() == ColumnKind::kFixed && c.type() == ValType::kDbl) {
    const size_t n = c.size();
    scratch->resize(n);
    const auto* d = static_cast<const double*>(c.RawData());
    for (size_t i = 0; i < n; ++i) (*scratch)[i] = static_cast<int64_t>(d[i]);
    return {scratch->data(), n};
  }
  return kernels::Int64KeySpan(c, scratch);
}

/// Three-way compare that treats NaN pairs as equal, exactly like
/// CompareRows; keeps the vectorized merge loop in lockstep with the scalar
/// reference (and guarantees forward progress on NaN runs).
template <typename K>
int Cmp3(K a, K b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Sorted-input merge emitting (l-row, r-row) match pairs; identical
/// emission order to the scalar MergeJoinImpl.
template <typename K>
void MergeLoop(const K* lk, size_t ln, const K* rk, size_t rn, SelVec* li, SelVec* ri) {
  size_t i = 0, j = 0;
  while (i < ln && j < rn) {
    const int cmp = Cmp3(lk[i], rk[j]);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      size_t j_end = j;
      while (j_end < rn && Cmp3(lk[i], rk[j_end]) == 0) ++j_end;
      size_t i_end = i;
      while (i_end < ln && Cmp3(lk[i_end], rk[j]) == 0) ++i_end;
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          li->push_back(static_cast<uint32_t>(a));
          ri->push_back(static_cast<uint32_t>(b));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
}

BatPtr EmitJoin(const Bat& l, const Bat& r, const SelVec& li, const SelVec& ri) {
  return BatPtr(std::make_shared<Bat>(kernels::Gather(*l.head(), li.data(), li.size()),
                                      kernels::Gather(*r.tail(), ri.data(), ri.size()),
                                      HeadOrderedProps(l)));
}

BatPtr MergeJoinImpl(const Bat& l, const Bat& r) {
  SelVec li, ri;
  if (l.tail_type() == ValType::kStr) {
    // String merge: compare string views directly (no per-row boxing); the
    // virtual GetString serves plain heaps and dictionary columns alike.
    const Column& lt = *l.tail();
    const Column& rh = *r.head();
    size_t i = 0, j = 0;
    while (i < l.size() && j < r.size()) {
      const int cmp = lt.GetString(i).compare(rh.GetString(j));
      if (cmp < 0) {
        ++i;
      } else if (cmp > 0) {
        ++j;
      } else {
        size_t j_end = j;
        while (j_end < r.size() && lt.GetString(i) == rh.GetString(j_end)) ++j_end;
        size_t i_end = i;
        while (i_end < l.size() && lt.GetString(i_end) == rh.GetString(j)) ++i_end;
        for (size_t a = i; a < i_end; ++a) {
          for (size_t b = j; b < j_end; ++b) {
            li.push_back(static_cast<uint32_t>(a));
            ri.push_back(static_cast<uint32_t>(b));
          }
        }
        i = i_end;
        j = j_end;
      }
    }
  } else if (l.tail_type() == ValType::kDbl || r.head_type() == ValType::kDbl) {
    // Order-preserving double keys (CompareRows compares mixed dbl pairs in
    // the double domain).
    std::vector<double> lk, rk;
    kernels::ExtractDoubleKeys(*l.tail(), &lk);
    kernels::ExtractDoubleKeys(*r.head(), &rk);
    MergeLoop(lk.data(), lk.size(), rk.data(), rk.size(), &li, &ri);
  } else {
    std::vector<int64_t> lk, rk;
    kernels::ExtractInt64Keys(*l.tail(), &lk);
    kernels::ExtractInt64Keys(*r.head(), &rk);
    MergeLoop(lk.data(), lk.size(), rk.data(), rk.size(), &li, &ri);
  }
  return EmitJoin(l, r, li, ri);
}

BatPtr HashJoinImpl(const Bat& l, const Bat& r) {
  SelVec li, ri;
  if (l.tail_type() == ValType::kStr) {
    const size_t rn = r.size();
    if (r.head()->kind() == ColumnKind::kDict) {
      // Dictionary build side: the dict is the hash table. Chain duplicate
      // codes through next[] (reverse insertion keeps chains ascending);
      // probes resolve to a code either for free (shared dict) or with one
      // binary search, never hashing a string.
      const auto& bd = static_cast<const DictStrColumn&>(*r.head());
      const uint32_t* bc = bd.codes().data();
      std::vector<uint32_t> head(bd.dict_size(), FlatTable::kNone);
      std::vector<uint32_t> next(rn, FlatTable::kNone);
      for (size_t j = rn; j-- > 0;) {
        next[j] = head[bc[j]];
        head[bc[j]] = static_cast<uint32_t>(j);
      }
      const auto* pd = l.tail()->kind() == ColumnKind::kDict
                           ? static_cast<const DictStrColumn*>(l.tail().get())
                           : nullptr;
      const bool same_dict = pd != nullptr && pd->dict() == bd.dict();
      for (size_t i = 0; i < l.size(); ++i) {
        const uint32_t code = same_dict ? pd->codes()[i]
                                        : bd.FindCode(l.tail()->GetString(i));
        if (code == DictStrColumn::kNoCode) continue;
        for (uint32_t j = head[code]; j != FlatTable::kNone; j = next[j]) {
          li.push_back(static_cast<uint32_t>(i));
          ri.push_back(j);
        }
      }
      return EmitJoin(l, r, li, ri);
    }
    // String build side: chain duplicate keys through next[] so probes emit
    // ascending build rows; string_view keys borrow the heap (no per-row
    // std::string allocation).
    std::unordered_map<std::string_view, uint32_t> first;
    first.reserve(rn);
    std::vector<uint32_t> next(rn, FlatTable::kNone);
    for (size_t j = rn; j-- > 0;) {
      auto [it, inserted] =
          first.try_emplace(r.head()->GetString(j), static_cast<uint32_t>(j));
      if (!inserted) {
        next[j] = it->second;
        it->second = static_cast<uint32_t>(j);
      }
    }
    for (size_t i = 0; i < l.size(); ++i) {
      auto it = first.find(l.tail()->GetString(i));
      if (it == first.end()) continue;
      for (uint32_t j = it->second; j != FlatTable::kNone; j = next[j]) {
        li.push_back(static_cast<uint32_t>(i));
        ri.push_back(j);
      }
    }
    return EmitJoin(l, r, li, ri);
  }
  // Int64 keys: integer families widen, doubles bit-cast (same equality the
  // scalar reference hash join uses). 8-byte key columns alias their payload
  // (no key materialization); the build radix-partitions across the executor
  // at or above min_parallel_rows.
  std::vector<int64_t> rk_scratch;
  const PartitionedTable table(kernels::Int64KeySpan(*r.head(), &rk_scratch));
  std::vector<int64_t> lk_scratch;
  const Span<int64_t> lk = kernels::Int64KeySpan(*l.tail(), &lk_scratch);
  const MorselPlan plan = kernels::PlanMorsels(lk.size);
  if (!plan.parallel) {
    li.reserve(lk.size);  // FK-join guess: ~one match per probe row
    ri.reserve(lk.size);
    for (size_t i = 0; i < lk.size; ++i) {
      for (uint32_t j = table.Find(lk[i]); j != PartitionedTable::kNone;
           j = table.Next(j)) {
        li.push_back(static_cast<uint32_t>(i));
        ri.push_back(j);
      }
    }
    return EmitJoin(l, r, li, ri);
  }
  // Parallel probe: the table is immutable now, so morsels of probe rows
  // scan it concurrently; stitching the per-morsel match vectors in morsel
  // order reproduces the sequential probe order exactly.
  std::vector<SelVec> lparts(plan.morsels), rparts(plan.morsels);
  kernels::ForEachMorsel(plan, lk.size, [&](size_t m, size_t b, size_t e) {
    SelVec& lp = lparts[m];
    SelVec& rp = rparts[m];
    lp.reserve(e - b);
    rp.reserve(e - b);
    for (size_t i = b; i < e; ++i) {
      for (uint32_t j = table.Find(lk[i]); j != PartitionedTable::kNone;
           j = table.Next(j)) {
        lp.push_back(static_cast<uint32_t>(i));
        rp.push_back(j);
      }
    }
  });
  kernels::StitchSelVecs(lparts, &li);
  kernels::StitchSelVecs(rparts, &ri);
  return EmitJoin(l, r, li, ri);
}

/// Positional (fetch) join on a dense right head, MonetDB's void-head join:
/// row i of l matches row l.tail[i] - seqbase of r when that lies in
/// [0, |r|). A dense head is sorted and key-unique, so this emits exactly the
/// pairs, in exactly the order, of the merge and hash paths, in one O(|l|)
/// pass plus one gather.
BatPtr FetchJoinImpl(const Bat& l, const Bat& r) {
  std::vector<int64_t> scratch;
  const Span<int64_t> keys = kernels::Int64KeySpan(*l.tail(), &scratch);
  const size_t n = keys.size;
  const uint64_t seq = r.HeadSeqbase();
  const uint64_t rn = r.size();
  DCY_DCHECK(rn < FlatTable::kNone);
  // idx[i] = key - seq, or kNone when out of range. The unsigned wrap maps
  // keys below seq past rn, so one compare checks both ends.
  SelVec idx(n);
  uint32_t* out = idx.data();
  size_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t off = static_cast<uint64_t>(keys[i]) - seq;
    const bool in = off < rn;
    out[i] = in ? static_cast<uint32_t>(off) : FlatTable::kNone;
    hits += in ? 1 : 0;
  }
  if (hits == n) {
    return BatPtr(std::make_shared<Bat>(
        l.head(), kernels::Gather(*r.tail(), idx.data(), n), HeadOrderedProps(l)));
  }
  // Some keys miss r: keep only the matching rows of both sides.
  SelVec li;
  li.reserve(hits);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (idx[i] == FlatTable::kNone) continue;
    idx[k++] = idx[i];
    li.push_back(static_cast<uint32_t>(i));
  }
  idx.resize(k);
  return EmitJoin(l, r, li, idx);
}

Status CheckNumeric(const Bat& b, const char* op) {
  if (b.tail_type() == ValType::kStr) {
    return Status::InvalidArgument(std::string(op) + " on string tail");
  }
  return Status::OK();
}

/// Membership filter for semijoin/kdiff: sel <- positions of l.head whose
/// membership in r's head set equals `want`.
Result<SelVec> HeadMembershipSel(const Bat& l, const Bat& r, bool want) {
  SelVec sel;
  if (l.head_type() == ValType::kStr) {
    std::unordered_set<std::string_view> set;
    set.reserve(r.size());
    for (size_t j = 0; j < r.size(); ++j) set.insert(r.head()->GetString(j));
    for (size_t i = 0; i < l.size(); ++i) {
      if ((set.count(l.head()->GetString(i)) > 0) == want) {
        sel.push_back(static_cast<uint32_t>(i));
      }
    }
    return sel;
  }
  std::vector<int64_t> rk_scratch;
  const PartitionedTable table(CastInt64KeySpan(*r.head(), &rk_scratch));
  std::vector<int64_t> lk_scratch;
  const Span<int64_t> lk = CastInt64KeySpan(*l.head(), &lk_scratch);
  const MorselPlan plan = kernels::PlanMorsels(lk.size);
  if (!plan.parallel) {
    for (size_t i = 0; i < lk.size; ++i) {
      if (table.Contains(lk[i]) == want) sel.push_back(static_cast<uint32_t>(i));
    }
    return sel;
  }
  std::vector<SelVec> parts(plan.morsels);
  kernels::ForEachMorsel(plan, lk.size, [&](size_t m, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      if (table.Contains(lk[i]) == want) parts[m].push_back(static_cast<uint32_t>(i));
    }
  });
  kernels::StitchSelVecs(parts, &sel);
  return sel;
}

}  // namespace

BatPtr Reverse(const BatPtr& b) {
  Bat::Properties p;
  p.hsorted = b->props().tsorted;
  p.hkey = b->props().tkey;
  p.tsorted = b->props().hsorted;
  p.tkey = b->props().hkey;
  return BatPtr(std::make_shared<Bat>(b->tail(), b->head(), p));
}

BatPtr MarkT(const BatPtr& b, Oid base) {
  Bat::Properties p;
  p.hsorted = b->props().hsorted;
  p.hkey = b->props().hkey;
  p.tsorted = true;
  p.tkey = true;
  return BatPtr(std::make_shared<Bat>(b->head(), MakeDenseOid(base, b->size()), p));
}

BatPtr MarkH(const BatPtr& b, Oid base) {
  Bat::Properties p;
  p.hsorted = true;
  p.hkey = true;
  p.tsorted = b->props().tsorted;
  p.tkey = b->props().tkey;
  return BatPtr(std::make_shared<Bat>(MakeDenseOid(base, b->size()), b->tail(), p));
}

BatPtr Mirror(const BatPtr& b) {
  Bat::Properties p;
  p.hsorted = p.tsorted = b->props().hsorted;
  p.hkey = p.tkey = b->props().hkey;
  return BatPtr(std::make_shared<Bat>(b->head(), b->head(), p));
}

Result<BatPtr> Slice(const BatPtr& b, size_t lo, size_t hi) {
  if (lo > hi || hi > b->size()) {
    return Status::OutOfRange("slice [" + std::to_string(lo) + "," + std::to_string(hi) +
                              ") of " + std::to_string(b->size()));
  }
  SelVec keep(hi - lo);
  std::iota(keep.begin(), keep.end(), static_cast<uint32_t>(lo));
  return FilterBySel(*b, keep);
}

Result<BatPtr> Join(const BatPtr& l, const BatPtr& r) {
  DCY_RETURN_NOT_OK(CheckJoinable(l->tail_type(), r->head_type()));
  // A dense head is an oid, so CheckJoinable has put l's tail in the
  // integer family.
  if (r->HasDenseHead()) return FetchJoinImpl(*l, *r);
  if (l->props().tsorted && r->props().hsorted) {
    return MergeJoinImpl(*l, *r);
  }
  return HashJoinImpl(*l, *r);
}

Result<BatPtr> LeftJoin(const BatPtr& l, const BatPtr& r) {
  // Every path emits matches in l's row order: fetch and hash walk l, and
  // merge does too for a key-unique r.
  return Join(l, r);
}

Result<BatPtr> SemiJoin(const BatPtr& l, const BatPtr& r) {
  DCY_RETURN_NOT_OK(CheckJoinable(l->head_type(), r->head_type()));
  DCY_ASSIGN_OR_RETURN(SelVec keep, HeadMembershipSel(*l, *r, /*want=*/true));
  return FilterBySel(*l, keep);
}

Result<BatPtr> KDiff(const BatPtr& l, const BatPtr& r) {
  DCY_RETURN_NOT_OK(CheckJoinable(l->head_type(), r->head_type()));
  DCY_ASSIGN_OR_RETURN(SelVec keep, HeadMembershipSel(*l, *r, /*want=*/false));
  return FilterBySel(*l, keep);
}

Result<BatPtr> KUnion(const BatPtr& l, const BatPtr& r) {
  DCY_RETURN_NOT_OK(CheckJoinable(l->head_type(), r->head_type()));
  if (l->tail_type() != r->tail_type()) {
    return Status::InvalidArgument("kunion tail type mismatch");
  }
  DCY_ASSIGN_OR_RETURN(SelVec fresh, HeadMembershipSel(*r, *l, /*want=*/false));

  ColumnBuilder head_out(l->head_type());
  ColumnBuilder tail_out(l->tail_type());
  head_out.Reserve(l->size() + fresh.size());
  tail_out.Reserve(l->size() + fresh.size());
  head_out.AppendColumnRange(*l->head(), 0, l->size());
  tail_out.AppendColumnRange(*l->tail(), 0, l->size());
  if (r->head_type() == l->head_type()) {
    head_out.AppendGather(*r->head(), fresh.data(), fresh.size());
  } else {
    // Mixed integer-family heads (e.g. int vs lng): widen row-wise.
    for (uint32_t j : fresh) head_out.AppendInt64(r->head()->GetInt64(j));
  }
  tail_out.AppendGather(*r->tail(), fresh.data(), fresh.size());
  return BatPtr(std::make_shared<Bat>(head_out.Finish(), tail_out.Finish(), Bat::Properties{}));
}

Result<BatPtr> Select(const BatPtr& b, const Value& v) {
  SelVec keep;
  kernels::SelectEq(*b->tail(), v, &keep);
  return FilterBySel(*b, keep);
}

Result<BatPtr> SelectRange(const BatPtr& b, const Value& lo, const Value& hi) {
  SelVec keep;
  kernels::SelectRange(*b->tail(), lo, hi, &keep);
  return FilterBySel(*b, keep);
}

Result<BatPtr> USelect(const BatPtr& b, const Value& v) {
  DCY_ASSIGN_OR_RETURN(BatPtr selected, Select(b, v));
  // Head-only result: the tail carries no information (void/dense 0).
  Bat::Properties p;
  p.hsorted = selected->props().hsorted;
  p.hkey = selected->props().hkey;
  p.tsorted = true;
  return BatPtr(std::make_shared<Bat>(selected->head(), MakeDenseOid(0, selected->size()), p));
}

namespace {

template <typename Get, typename Pred>
void ThetaLoop(size_t n, const Get& get, const Pred& pred, SelVec* sel) {
  for (size_t i = 0; i < n; ++i) {
    if (pred(get(i))) sel->push_back(static_cast<uint32_t>(i));
  }
}

/// One pass per predicate shape, branch hoisted out of the loop.
template <typename T, typename Get>
void ThetaDispatch(size_t n, CmpOp op, const T& pivot, const Get& get, SelVec* sel) {
  switch (op) {
    case CmpOp::kEq:
      ThetaLoop(n, get, [&](const auto& x) { return x == pivot; }, sel);
      break;
    case CmpOp::kNe:
      ThetaLoop(n, get, [&](const auto& x) { return x != pivot; }, sel);
      break;
    case CmpOp::kLt:
      ThetaLoop(n, get, [&](const auto& x) { return x < pivot; }, sel);
      break;
    case CmpOp::kLe:
      ThetaLoop(n, get, [&](const auto& x) { return x <= pivot; }, sel);
      break;
    case CmpOp::kGt:
      ThetaLoop(n, get, [&](const auto& x) { return x > pivot; }, sel);
      break;
    case CmpOp::kGe:
      ThetaLoop(n, get, [&](const auto& x) { return x >= pivot; }, sel);
      break;
  }
}

}  // namespace

Result<BatPtr> ThetaSelect(const BatPtr& b, const Value& v, CmpOp op) {
  if (op == CmpOp::kEq) return Select(b, v);  // adaptive equality kernel
  const size_t n = b->size();
  const Column& t = *b->tail();
  SelVec keep;
  if (t.type() == ValType::kStr) {
    if (v.type != ValType::kStr) {
      return Status::InvalidArgument("thetaselect: string column vs non-string value");
    }
    const std::string_view pivot = v.s;
    ThetaDispatch(n, op, pivot, [&](size_t i) { return t.GetString(i); }, &keep);
  } else if (v.type == ValType::kStr) {
    return Status::InvalidArgument("thetaselect: numeric column vs string value");
  } else if (t.type() != ValType::kDbl && v.type != ValType::kDbl) {
    const int64_t pivot = v.AsInt64();
    ThetaDispatch(n, op, pivot, [&](size_t i) { return t.GetInt64(i); }, &keep);
  } else {
    const double pivot = v.AsDouble();
    ThetaDispatch(n, op, pivot, [&](size_t i) { return t.GetDouble(i); }, &keep);
  }
  return FilterBySel(*b, keep);
}

Result<BatPtr> GroupId(const BatPtr& b) {
  const size_t n = b->size();
  std::vector<Oid> gids(n);
  if (b->tail_type() == ValType::kStr) {
    if (b->tail()->kind() == ColumnKind::kDict) {
      // Equal strings share a code (the dict is unique), so grouping is a
      // flat code -> gid table; gids still issue in first-appearance order.
      const auto& dc = static_cast<const DictStrColumn&>(*b->tail());
      const uint32_t* codes = dc.codes().data();
      constexpr Oid kUnseen = ~Oid{0};
      std::vector<Oid> code_gid(dc.dict_size(), kUnseen);
      Oid issued = 0;
      for (size_t i = 0; i < n; ++i) {
        Oid& g = code_gid[codes[i]];
        if (g == kUnseen) g = issued++;
        gids[i] = g;
      }
    } else {
      std::unordered_map<std::string_view, Oid> groups;
      groups.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        auto [it, _] =
            groups.try_emplace(b->tail()->GetString(i), static_cast<Oid>(groups.size()));
        gids[i] = it->second;
      }
    }
  } else {
    // Bit-cast keys (doubles by pattern), one flat array pass; 8-byte key
    // columns alias their payload.
    std::vector<int64_t> scratch;
    const Span<int64_t> keys = kernels::Int64KeySpan(*b->tail(), &scratch);
    std::unordered_map<int64_t, Oid> groups;
    groups.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto [it, _] = groups.try_emplace(keys[i], static_cast<Oid>(groups.size()));
      gids[i] = it->second;
    }
  }
  Bat::Properties p;
  p.hsorted = b->props().hsorted;
  p.hkey = b->props().hkey;
  return BatPtr(std::make_shared<Bat>(
      b->head(), std::make_shared<OidColumn>(ValType::kOid, std::move(gids)), p));
}

Result<BatPtr> GroupValues(const BatPtr& b) {
  DCY_ASSIGN_OR_RETURN(BatPtr gids, GroupId(b));
  // First row of each group provides the representative value.
  const auto gid_span = gids->tail()->FixedData<Oid>();
  size_t num_groups = 0;
  for (size_t i = 0; i < gid_span.size; ++i) {
    num_groups = std::max<size_t>(num_groups, static_cast<size_t>(gid_span[i]) + 1);
  }
  std::vector<uint32_t> first(num_groups, 0);
  std::vector<bool> seen(num_groups, false);
  for (size_t i = 0; i < gid_span.size; ++i) {
    const size_t g = static_cast<size_t>(gid_span[i]);
    if (!seen[g]) {
      seen[g] = true;
      first[g] = static_cast<uint32_t>(i);
    }
  }
  // Representative-value materialization through the adaptive gather: large
  // string group domains take the two-pass parallel heap build.
  ColumnPtr values = kernels::Gather(*b->tail(), first.data(), first.size());
  Bat::Properties p;
  p.hsorted = p.hkey = true;
  return BatPtr(std::make_shared<Bat>(MakeDenseOid(0, num_groups), std::move(values), p));
}

Result<BatPtr> GroupRefine(const BatPtr& col, const BatPtr& gids) {
  const size_t n = col->size();
  if (gids->size() != n) {
    return Status::InvalidArgument("refine: col/gids not aligned");
  }
  std::vector<int64_t> g_scratch;
  // GetInt64 semantics: dbl gids truncate.
  const Span<int64_t> g = CastInt64KeySpan(*gids->tail(), &g_scratch);
  std::vector<Oid> out(n);
  if (col->tail_type() == ValType::kStr) {
    struct Hash {
      size_t operator()(const std::pair<int64_t, std::string_view>& p) const {
        uint64_t h = static_cast<uint64_t>(p.first) * 0x9e3779b97f4a7c15ULL;
        h ^= std::hash<std::string_view>{}(p.second) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
        return static_cast<size_t>(h);
      }
    };
    std::unordered_map<std::pair<int64_t, std::string_view>, Oid, Hash> groups;
    groups.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto [it, _] = groups.try_emplace({g[i], col->tail()->GetString(i)},
                                        static_cast<Oid>(groups.size()));
      out[i] = it->second;
    }
  } else {
    struct Hash {
      size_t operator()(const std::pair<int64_t, int64_t>& p) const {
        uint64_t h = static_cast<uint64_t>(p.first) * 0x9e3779b97f4a7c15ULL;
        h ^= static_cast<uint64_t>(p.second) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        return static_cast<size_t>(h);
      }
    };
    // Bit-cast keys (doubles by pattern), as GroupId.
    std::vector<int64_t> scratch;
    const Span<int64_t> keys = kernels::Int64KeySpan(*col->tail(), &scratch);
    std::unordered_map<std::pair<int64_t, int64_t>, Oid, Hash> groups;
    groups.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto [it, _] = groups.try_emplace({g[i], keys[i]}, static_cast<Oid>(groups.size()));
      out[i] = it->second;
    }
  }
  Bat::Properties p;
  p.hsorted = col->props().hsorted;
  p.hkey = col->props().hkey;
  return BatPtr(std::make_shared<Bat>(
      col->head(), std::make_shared<OidColumn>(ValType::kOid, std::move(out)), p));
}

Result<BatPtr> GroupExtents(const BatPtr& gids) {
  const size_t n = gids->size();
  std::vector<int64_t> g_scratch;
  const Span<int64_t> g = CastInt64KeySpan(*gids->tail(), &g_scratch);
  size_t num_groups = 0;
  for (size_t i = 0; i < n; ++i) {
    if (g[i] < 0) return Status::InvalidArgument("extents: negative group id");
    num_groups = std::max(num_groups, static_cast<size_t>(g[i]) + 1);
  }
  std::vector<Oid> first(num_groups, 0);
  std::vector<bool> seen(num_groups, false);
  for (size_t i = 0; i < n; ++i) {
    const auto gi = static_cast<size_t>(g[i]);
    if (!seen[gi]) {
      seen[gi] = true;
      first[gi] = static_cast<Oid>(gids->head()->GetInt64(i));
    }
  }
  for (size_t gi = 0; gi < num_groups; ++gi) {
    if (!seen[gi]) return Status::InvalidArgument("extents: group ids not dense");
  }
  Bat::Properties p;
  p.hsorted = p.hkey = true;
  return BatPtr(std::make_shared<Bat>(
      MakeDenseOid(0, num_groups),
      std::make_shared<OidColumn>(ValType::kOid, std::move(first)), p));
}

uint64_t Count(const BatPtr& b) { return b->size(); }

namespace {

/// Fused sum of rows [begin, end) in the accumulator type Acc, without
/// materializing a key vector.
template <typename Acc>
Acc FusedSumSpan(const Column& t, size_t begin, size_t end) {
  Acc s = 0;
  switch (t.type()) {
    case ValType::kOid: {
      const auto* d = static_cast<const Oid*>(t.RawData());
      for (size_t i = begin; i < end; ++i) {
        s += static_cast<Acc>(static_cast<int64_t>(d[i]));
      }
      break;
    }
    case ValType::kInt:
    case ValType::kDate: {
      const auto* d = static_cast<const int32_t*>(t.RawData());
      for (size_t i = begin; i < end; ++i) s += static_cast<Acc>(d[i]);
      break;
    }
    case ValType::kLng: {
      const auto* d = static_cast<const int64_t*>(t.RawData());
      for (size_t i = begin; i < end; ++i) s += static_cast<Acc>(d[i]);
      break;
    }
    case ValType::kDbl: {
      const auto* d = static_cast<const double*>(t.RawData());
      for (size_t i = begin; i < end; ++i) s += static_cast<Acc>(d[i]);
      break;
    }
    case ValType::kStr: DCY_FATAL() << "sum on string column";
  }
  return s;
}

/// Single fused pass over the whole column (dense ranges in closed form).
/// Large materialized columns sum thread-local morsel partials merged in
/// morsel order: exact for integer accumulators, deterministic per-policy
/// association for doubles.
template <typename Acc>
Acc FusedSum(const Column& t) {
  const size_t n = t.size();
  if (t.kind() == ColumnKind::kDense) {
    const auto seq =
        static_cast<int64_t>(static_cast<const DenseOidColumn&>(t).seqbase());
    // n*seq + 0+1+...+(n-1)
    return static_cast<Acc>(seq) * static_cast<Acc>(n) +
           static_cast<Acc>(n) * static_cast<Acc>(n - (n > 0 ? 1 : 0)) / 2;
  }
  const MorselPlan plan = kernels::PlanMorsels(n);
  if (!plan.parallel) return FusedSumSpan<Acc>(t, 0, n);
  return exec::PartitionedReduce<Acc>(
      plan.morsels, Acc{0},
      [&](size_t m) {
        const size_t b = m * plan.grain;
        return FusedSumSpan<Acc>(t, b, std::min(n, b + plan.grain));
      },
      [](Acc& acc, Acc& partial) { acc += partial; }, plan.workers);
}

/// Grouped aggregates materialize one partial array per morsel; cap the
/// fan-out so wide group domains cannot blow up memory (beyond the cap the
/// sequential loop wins anyway — the merge would dominate).
MorselPlan GroupedAggPlan(size_t rows, size_t num_groups) {
  MorselPlan plan = kernels::PlanMorsels(rows);
  if (plan.parallel && plan.morsels * num_groups > (size_t{1} << 22)) {
    return MorselPlan{};
  }
  return plan;
}

}  // namespace

Result<Value> Sum(const BatPtr& b) {
  DCY_RETURN_NOT_OK(CheckNumeric(*b, "sum"));
  const Column& t = *b->tail();
  if (t.type() == ValType::kDbl) return Value::MakeDbl(FusedSum<double>(t));
  return Value::MakeLng(FusedSum<int64_t>(t));
}

namespace {

template <typename T>
size_t ArgExtreme(const T* d, size_t n, bool max) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (max ? d[i] > d[best] : d[i] < d[best]) best = i;
  }
  return best;
}

Result<Value> Extreme(const BatPtr& b, bool max, const char* op) {
  DCY_RETURN_NOT_OK(CheckNumeric(*b, op));
  if (b->size() == 0) return Status::InvalidArgument(std::string(op) + " of empty BAT");
  const Column& t = *b->tail();
  size_t best = 0;
  switch (t.kind()) {
    case ColumnKind::kDense:
      best = max ? t.size() - 1 : 0;
      break;
    case ColumnKind::kFixed:
      switch (t.type()) {
        case ValType::kOid:
          best = ArgExtreme(static_cast<const Oid*>(t.RawData()), t.size(), max);
          break;
        case ValType::kInt:
        case ValType::kDate:
          best = ArgExtreme(static_cast<const int32_t*>(t.RawData()), t.size(), max);
          break;
        case ValType::kLng:
          best = ArgExtreme(static_cast<const int64_t*>(t.RawData()), t.size(), max);
          break;
        case ValType::kDbl:
          best = ArgExtreme(static_cast<const double*>(t.RawData()), t.size(), max);
          break;
        default: break;
      }
      break;
    case ColumnKind::kStr:
    case ColumnKind::kDict: break;  // excluded by CheckNumeric
  }
  return t.GetValue(best);
}

}  // namespace

Result<Value> Min(const BatPtr& b) { return Extreme(b, /*max=*/false, "min"); }

Result<Value> Max(const BatPtr& b) { return Extreme(b, /*max=*/true, "max"); }

Result<Value> Avg(const BatPtr& b) {
  DCY_RETURN_NOT_OK(CheckNumeric(*b, "avg"));
  if (b->size() == 0) return Status::InvalidArgument("avg of empty BAT");
  return Value::MakeDbl(FusedSum<double>(*b->tail()) / static_cast<double>(b->size()));
}

Result<BatPtr> SumPerGroup(const BatPtr& values, const BatPtr& gids, size_t num_groups) {
  DCY_RETURN_NOT_OK(CheckNumeric(*values, "sumPerGroup"));
  if (values->size() != gids->size()) {
    return Status::InvalidArgument("sumPerGroup: values/gids not aligned");
  }
  std::vector<int64_t> g_scratch;
  // GetInt64 semantics: dbl gids truncate.
  const Span<int64_t> g = CastInt64KeySpan(*gids->tail(), &g_scratch);
  std::vector<double> v;
  kernels::ExtractDoubleKeys(*values->tail(), &v);
  std::vector<double> sums(num_groups, 0.0);
  const MorselPlan plan = GroupedAggPlan(v.size(), num_groups);
  if (!plan.parallel) {
    for (size_t i = 0; i < v.size(); ++i) {
      const auto gi = static_cast<uint64_t>(g[i]);
      if (gi >= num_groups) return Status::OutOfRange("group id out of range");
      sums[gi] += v[i];
    }
  } else {
    // Thread-local partial sums per morsel, merged in morsel order
    // (deterministic association for a fixed policy).
    std::atomic<bool> out_of_range{false};
    sums = exec::PartitionedReduce<std::vector<double>>(
        plan.morsels, std::move(sums),
        [&](size_t m) {
          const size_t b = m * plan.grain, e = std::min(v.size(), b + plan.grain);
          std::vector<double> part(num_groups, 0.0);
          for (size_t i = b; i < e; ++i) {
            const auto gi = static_cast<uint64_t>(g[i]);
            if (gi >= num_groups) {
              out_of_range.store(true, std::memory_order_relaxed);
              break;
            }
            part[gi] += v[i];
          }
          return part;
        },
        [&](std::vector<double>& acc, std::vector<double>& part) {
          for (size_t gi = 0; gi < num_groups; ++gi) acc[gi] += part[gi];
        },
        plan.workers);
    if (out_of_range.load()) return Status::OutOfRange("group id out of range");
  }
  Bat::Properties p;
  p.hsorted = p.hkey = true;
  return BatPtr(std::make_shared<Bat>(
      MakeDenseOid(0, num_groups),
      std::make_shared<DblColumn>(ValType::kDbl, std::move(sums)), p));
}

Result<BatPtr> CountPerGroup(const BatPtr& gids, size_t num_groups) {
  std::vector<int64_t> g_scratch;
  // GetInt64 semantics: dbl gids truncate.
  const Span<int64_t> g = CastInt64KeySpan(*gids->tail(), &g_scratch);
  std::vector<int64_t> counts(num_groups, 0);
  const MorselPlan plan = GroupedAggPlan(g.size, num_groups);
  if (!plan.parallel) {
    for (size_t i = 0; i < g.size; ++i) {
      const auto gi = static_cast<uint64_t>(g[i]);
      if (gi >= num_groups) return Status::OutOfRange("group id out of range");
      ++counts[gi];
    }
  } else {
    std::atomic<bool> out_of_range{false};
    counts = exec::PartitionedReduce<std::vector<int64_t>>(
        plan.morsels, std::move(counts),
        [&](size_t m) {
          const size_t b = m * plan.grain, e = std::min(g.size, b + plan.grain);
          std::vector<int64_t> part(num_groups, 0);
          for (size_t i = b; i < e; ++i) {
            const auto gi = static_cast<uint64_t>(g[i]);
            if (gi >= num_groups) {
              out_of_range.store(true, std::memory_order_relaxed);
              break;
            }
            ++part[gi];
          }
          return part;
        },
        [&](std::vector<int64_t>& acc, std::vector<int64_t>& part) {
          for (size_t gi = 0; gi < num_groups; ++gi) acc[gi] += part[gi];
        },
        plan.workers);
    if (out_of_range.load()) return Status::OutOfRange("group id out of range");
  }
  Bat::Properties p;
  p.hsorted = p.hkey = true;
  return BatPtr(std::make_shared<Bat>(
      MakeDenseOid(0, num_groups),
      std::make_shared<LngColumn>(ValType::kLng, std::move(counts)), p));
}

namespace {

/// Shared Min/MaxPerGroup body. One sequential pass: per-group extremes are
/// cheap next to the rest of a grouped plan, and the extreme of extremes
/// merge would not pay for the per-morsel partial arrays.
template <typename T, typename Out, typename Get>
Result<BatPtr> ExtremePerGroupTyped(const Span<int64_t>& g, size_t num_groups, bool max,
                                    const char* op, ValType out_type, const Get& get) {
  std::vector<T> best(num_groups, T{});
  std::vector<bool> seen(num_groups, false);
  for (size_t i = 0; i < g.size; ++i) {
    const auto gi = static_cast<uint64_t>(g[i]);
    if (gi >= num_groups) return Status::OutOfRange("group id out of range");
    const T x = get(i);
    if (!seen[gi]) {
      seen[gi] = true;
      best[gi] = x;
    } else if (max ? x > best[gi] : x < best[gi]) {
      best[gi] = x;
    }
  }
  for (size_t gi = 0; gi < num_groups; ++gi) {
    if (!seen[gi]) return Status::InvalidArgument(std::string(op) + " of empty group");
  }
  Bat::Properties p;
  p.hsorted = p.hkey = true;
  return BatPtr(std::make_shared<Bat>(MakeDenseOid(0, num_groups),
                                      std::make_shared<Out>(out_type, std::move(best)), p));
}

Result<BatPtr> ExtremePerGroup(const BatPtr& values, const BatPtr& gids, size_t num_groups,
                               bool max, const char* op) {
  DCY_RETURN_NOT_OK(CheckNumeric(*values, op));
  if (values->size() != gids->size()) {
    return Status::InvalidArgument(std::string(op) + ": values/gids not aligned");
  }
  std::vector<int64_t> g_scratch;
  // GetInt64 semantics: dbl gids truncate.
  const Span<int64_t> g = CastInt64KeySpan(*gids->tail(), &g_scratch);
  const Column& t = *values->tail();
  if (t.type() == ValType::kDbl) {
    return ExtremePerGroupTyped<double, DblColumn>(
        g, num_groups, max, op, ValType::kDbl, [&](size_t i) { return t.GetDouble(i); });
  }
  return ExtremePerGroupTyped<int64_t, LngColumn>(
      g, num_groups, max, op, ValType::kLng, [&](size_t i) { return t.GetInt64(i); });
}

}  // namespace

Result<BatPtr> MinPerGroup(const BatPtr& values, const BatPtr& gids, size_t num_groups) {
  return ExtremePerGroup(values, gids, num_groups, /*max=*/false, "minPerGroup");
}

Result<BatPtr> MaxPerGroup(const BatPtr& values, const BatPtr& gids, size_t num_groups) {
  return ExtremePerGroup(values, gids, num_groups, /*max=*/true, "maxPerGroup");
}

namespace {

// ---- parallel stable sort ----------------------------------------------------
//
// Sort and TopN run on the executor like the other kernels: per-morsel
// sorts (or bounded heaps) under a *total* order — the key order with ties
// broken by ascending position, which is exactly the stable sort order —
// merged back deterministically. Total ordering is what makes the parallel
// output bit-identical to std::stable_sort and to the scalar reference.

/// Key order `less` extended with the ascending-position tie-break.
template <typename Less>
auto WithPositionTieBreak(const Less& less) {
  return [less](uint32_t a, uint32_t b) {
    if (less(a, b)) return true;
    if (less(b, a)) return false;
    return a < b;
  };
}

/// K-way merge of the per-morsel sorted runs of `idx` (run m spans
/// [m*grain, min(n, (m+1)*grain))) with a loser tree: one comparison per
/// tree level per emitted position. `total` must be a total order, so the
/// merge has a unique result — the globally stable order.
template <typename TotalLess>
SelVec MergeSortedRuns(const SelVec& idx, size_t grain, const TotalLess& total) {
  const size_t n = idx.size();
  const size_t runs = (n + grain - 1) / grain;
  size_t cap = 1;
  while (cap < runs) cap <<= 1;
  const size_t ghost = cap;  // shared "exhausted" leaf padding [runs, cap)
  std::vector<size_t> cur(cap + 1, 0), end(cap + 1, 0);
  for (size_t m = 0; m < runs; ++m) {
    cur[m] = m * grain;
    end[m] = std::min(n, cur[m] + grain);
  }
  // Does run a's head precede run b's? Exhausted runs lose to everything.
  auto run_wins = [&](size_t a, size_t b) {
    if (cur[a] == end[a]) return false;
    if (cur[b] == end[b]) return true;
    return total(idx[cur[a]], idx[cur[b]]);
  };
  // Build the bracket bottom-up: internal node t keeps the loser of its
  // subtrees, the winner moves up; loser[0] holds the champion.
  std::vector<size_t> loser(cap, ghost);
  {
    std::vector<size_t> winner(2 * cap, ghost);
    for (size_t m = 0; m < runs; ++m) winner[cap + m] = m;
    for (size_t t = cap - 1; t >= 1; --t) {
      const size_t a = winner[2 * t], b = winner[2 * t + 1];
      const bool b_wins = run_wins(b, a);
      winner[t] = b_wins ? b : a;
      loser[t] = b_wins ? a : b;
    }
    loser[0] = winner[1];
  }
  SelVec out(n);
  for (size_t o = 0; o < n; ++o) {
    const size_t w = loser[0];
    out[o] = idx[cur[w]++];
    // Replay w's path: the climber meets exactly the opponents it has to.
    size_t s = w;
    for (size_t t = (w + cap) >> 1; t >= 1; t >>= 1) {
      if (run_wins(loser[t], s)) std::swap(s, loser[t]);
    }
    loser[0] = s;
  }
  return out;
}

/// Stable argsort of positions [0, n) under the key order `less`: morsel
/// sorts on the executor + loser-tree merge at or above the policy
/// threshold, std::stable_sort below. The position tie-break makes the
/// per-morsel sort order the stable order, so both paths are bit-identical.
template <typename Less>
SelVec ArgSortStable(size_t n, const Less& less) {
  SelVec idx(n);
  std::iota(idx.begin(), idx.end(), uint32_t{0});
  const MorselPlan plan = kernels::PlanMorsels(n);
  if (!plan.parallel) {
    std::stable_sort(idx.begin(), idx.end(), less);
    return idx;
  }
  const auto total = WithPositionTieBreak(less);
  kernels::ForEachMorsel(plan, n, [&](size_t, size_t b, size_t e) {
    std::sort(idx.begin() + static_cast<ptrdiff_t>(b),
              idx.begin() + static_cast<ptrdiff_t>(e), total);
  });
  if (plan.morsels <= 1) return idx;
  return MergeSortedRuns(idx, plan.grain, total);
}

/// First k positions of the stable argsort under `less` (the TopN
/// contract): a sequential partial_sort below the threshold, per-morsel
/// bounded heaps merged with one final partial_sort above it — identical
/// output either way, because both orders are the same total order.
template <typename Less>
SelVec TopKPositions(size_t n, size_t k, const Less& less) {
  const auto total = WithPositionTieBreak(less);
  const MorselPlan plan = kernels::PlanMorsels(n);
  // k == 0 must take this branch too: the heap path below peeks at
  // heap.front() once k candidates are held, which never happens at k = 0.
  if (!plan.parallel || plan.morsels <= 1 || k == 0 || k >= n) {
    SelVec idx(n);
    std::iota(idx.begin(), idx.end(), uint32_t{0});
    const size_t take = std::min(k, n);
    std::partial_sort(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(take),
                      idx.end(), total);
    idx.resize(take);
    return idx;
  }
  // Each morsel keeps its k best in a max-heap (worst at the front); the
  // union of per-morsel winners is a superset of the global top k.
  SelVec cands = exec::PartitionedReduce<SelVec>(
      plan.morsels, SelVec{},
      [&](size_t m) {
        const size_t b = m * plan.grain, e = std::min(n, b + plan.grain);
        SelVec heap;
        heap.reserve(std::min(k, e - b));
        for (size_t i = b; i < e; ++i) {
          const auto pos = static_cast<uint32_t>(i);
          if (heap.size() < k) {
            heap.push_back(pos);
            std::push_heap(heap.begin(), heap.end(), total);
          } else if (total(pos, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), total);
            heap.back() = pos;
            std::push_heap(heap.begin(), heap.end(), total);
          }
        }
        return heap;
      },
      [](SelVec& acc, SelVec& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      },
      plan.workers);
  const size_t take = std::min(k, cands.size());
  std::partial_sort(cands.begin(), cands.begin() + static_cast<ptrdiff_t>(take),
                    cands.end(), total);
  cands.resize(take);
  return cands;
}

/// Stable argsort of the tail on raw keys; ascending CompareRows order.
SelVec SortedPositions(const Column& tail) {
  const size_t n = tail.size();
  if (tail.kind() == ColumnKind::kDense) {
    // Already ascending.
    SelVec idx(n);
    std::iota(idx.begin(), idx.end(), uint32_t{0});
    return idx;
  }
  if (tail.type() == ValType::kStr) {
    if (tail.kind() == ColumnKind::kDict) {
      // Sorted dictionary: code order is string order, so the sort never
      // touches the heap.
      const uint32_t* kd =
          static_cast<const DictStrColumn&>(tail).codes().data();
      return ArgSortStable(n, [kd](uint32_t a, uint32_t c) { return kd[a] < kd[c]; });
    }
    const auto& sc = static_cast<const StrColumn&>(tail);
    return ArgSortStable(
        n, [&sc](uint32_t a, uint32_t c) { return sc.GetString(a) < sc.GetString(c); });
  }
  if (tail.type() == ValType::kDbl) {
    std::vector<double> keys;
    kernels::ExtractDoubleKeys(tail, &keys);
    const double* kd = keys.data();
    return ArgSortStable(n, [kd](uint32_t a, uint32_t c) { return kd[a] < kd[c]; });
  }
  std::vector<int64_t> scratch;
  const Span<int64_t> keys = kernels::Int64KeySpan(tail, &scratch);
  const int64_t* kd = keys.data;
  return ArgSortStable(n, [kd](uint32_t a, uint32_t c) { return kd[a] < kd[c]; });
}

}  // namespace

Result<BatPtr> Sort(const BatPtr& b) {
  SelVec idx = SortedPositions(*b->tail());
  BatPtr out = FilterBySel(*b, idx);
  Bat::Properties p = out->props();
  p.tsorted = true;
  p.hsorted = false;
  return BatPtr(std::make_shared<Bat>(out->head(), out->tail(), p));
}

Result<BatPtr> TopN(const BatPtr& b, size_t n, bool descending) {
  const size_t k = std::min(n, b->size());
  const Column& tail = *b->tail();
  SelVec idx;
  // The key order per type; ties always break by ascending position (the
  // stable order), so sequential, parallel, and scalar-reference TopN agree
  // on duplicate keys.
  if (tail.type() == ValType::kStr) {
    if (tail.kind() == ColumnKind::kDict) {
      // Sorted dictionary: compare codes instead of heap strings.
      const uint32_t* kd =
          static_cast<const DictStrColumn&>(tail).codes().data();
      idx = TopKPositions(b->size(), k, [kd, descending](uint32_t a, uint32_t c) {
        return descending ? kd[c] < kd[a] : kd[a] < kd[c];
      });
    } else {
      const auto& sc = static_cast<const StrColumn&>(tail);
      idx = TopKPositions(b->size(), k, [&sc, descending](uint32_t a, uint32_t c) {
        const int cmp = sc.GetString(a).compare(sc.GetString(c));
        return descending ? cmp > 0 : cmp < 0;
      });
    }
  } else if (tail.type() == ValType::kDbl) {
    std::vector<double> keys;
    kernels::ExtractDoubleKeys(tail, &keys);
    const double* kd = keys.data();
    idx = TopKPositions(b->size(), k, [kd, descending](uint32_t a, uint32_t c) {
      return descending ? kd[c] < kd[a] : kd[a] < kd[c];
    });
  } else {
    std::vector<int64_t> scratch;
    const Span<int64_t> keys = kernels::Int64KeySpan(tail, &scratch);
    const int64_t* kd = keys.data;
    idx = TopKPositions(b->size(), k, [kd, descending](uint32_t a, uint32_t c) {
      return descending ? kd[c] < kd[a] : kd[a] < kd[c];
    });
  }
  BatPtr out = FilterBySel(*b, idx);
  // Top-n permutes rows: the inherited order flags no longer hold.
  // Ascending top-n is genuinely tail-sorted; descending is not.
  Bat::Properties p = out->props();
  p.hsorted = false;
  p.tsorted = !descending;
  return BatPtr(std::make_shared<Bat>(out->head(), out->tail(), p));
}

namespace {

Result<ColumnPtr> ArithKernel(const std::vector<double>& x, const std::vector<double>& y,
                              ArithOp op) {
  std::vector<double> out(x.size());
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y[i];
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] - y[i];
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] * y[i];
      break;
    case ArithOp::kDiv:
      for (size_t i = 0; i < x.size(); ++i) {
        if (y[i] == 0) return Status::InvalidArgument("division by zero");
        out[i] = x[i] / y[i];
      }
      break;
  }
  return ColumnPtr(std::make_shared<DblColumn>(ValType::kDbl, std::move(out)));
}

}  // namespace

Result<BatPtr> Arith(const BatPtr& a, const BatPtr& b, ArithOp op) {
  DCY_RETURN_NOT_OK(CheckNumeric(*a, "arith"));
  DCY_RETURN_NOT_OK(CheckNumeric(*b, "arith"));
  if (a->size() != b->size()) return Status::InvalidArgument("arith: size mismatch");
  std::vector<double> x, y;
  kernels::ExtractDoubleKeys(*a->tail(), &x);
  kernels::ExtractDoubleKeys(*b->tail(), &y);
  DCY_ASSIGN_OR_RETURN(ColumnPtr out, ArithKernel(x, y, op));
  Bat::Properties p;
  p.hsorted = a->props().hsorted;
  p.hkey = a->props().hkey;
  return BatPtr(std::make_shared<Bat>(a->head(), std::move(out), p));
}

Result<BatPtr> ArithConst(const BatPtr& a, const Value& v, ArithOp op) {
  DCY_RETURN_NOT_OK(CheckNumeric(*a, "arithConst"));
  const double y = v.AsDouble();
  if (op == ArithOp::kDiv && y == 0) return Status::InvalidArgument("division by zero");
  std::vector<double> x;
  kernels::ExtractDoubleKeys(*a->tail(), &x);
  std::vector<double> out(x.size());
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y;
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] - y;
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] * y;
      break;
    case ArithOp::kDiv:
      for (size_t i = 0; i < x.size(); ++i) out[i] = x[i] / y;
      break;
  }
  Bat::Properties p;
  p.hsorted = a->props().hsorted;
  p.hkey = a->props().hkey;
  return BatPtr(std::make_shared<Bat>(
      a->head(), std::make_shared<DblColumn>(ValType::kDbl, std::move(out)), p));
}

BatPtr ProjectConst(const BatPtr& b, const Value& v) {
  const size_t n = b->size();
  ColumnPtr tail;
  switch (v.type) {
    case ValType::kOid:
      tail = std::make_shared<OidColumn>(
          ValType::kOid, std::vector<Oid>(n, static_cast<Oid>(v.i)));
      break;
    case ValType::kInt:
    case ValType::kDate:
      tail = std::make_shared<IntColumn>(
          v.type, std::vector<int32_t>(n, static_cast<int32_t>(v.i)));
      break;
    case ValType::kLng:
      tail = std::make_shared<LngColumn>(ValType::kLng, std::vector<int64_t>(n, v.i));
      break;
    case ValType::kDbl:
      tail = std::make_shared<DblColumn>(ValType::kDbl, std::vector<double>(n, v.d));
      break;
    case ValType::kStr: {
      std::vector<uint32_t> offsets(n + 1);
      std::string heap;
      heap.reserve(n * v.s.size());
      for (size_t i = 0; i < n; ++i) {
        heap.append(v.s);
        offsets[i + 1] = static_cast<uint32_t>(heap.size());
      }
      tail = std::make_shared<StrColumn>(std::move(offsets), std::move(heap));
      break;
    }
  }
  Bat::Properties p;
  p.hsorted = b->props().hsorted;
  p.hkey = b->props().hkey;
  p.tsorted = true;
  return BatPtr(std::make_shared<Bat>(b->head(), std::move(tail), p));
}

}  // namespace dcy::bat
