#include "bat/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "bat/encoding.h"
#include "common/logging.h"

namespace dcy::bat::kernels {

namespace {

/// Mirrors the scalar reference ValueLE (bat/scalar_reference.cc) for the
/// boxed fallback on exotic type mixes.
bool ValueLE(const Value& a, const Value& b) {
  if (a.type == ValType::kStr) return a.s <= b.s;
  if (a.type == ValType::kDbl || b.type == ValType::kDbl) return a.AsDouble() <= b.AsDouble();
  return a.AsInt64() <= b.AsInt64();
}

/// Branchless filter append over rows [0, n): writes every candidate
/// position and bumps the cursor by the predicate, then shrinks — no per-row
/// branch misprediction, no push_back growth checks.
template <typename Pred>
void CompactLoop(size_t n, SelVec* sel, Pred pred) {
  const size_t base = sel->size();
  sel->resize(base + n);
  uint32_t* out = sel->data() + base;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = static_cast<uint32_t>(i);
    k += pred(i) ? 1 : 0;
  }
  sel->resize(base + k);
}

/// Integer rows with at least one double bound: each bound compares in its
/// own domain, exactly as ValueLE does pairwise. `key(i)` yields the int64
/// view of row i (array load or dense iota).
template <typename KeyFn>
void MixedRangeLoop(size_t n, const Value& lo, const Value& hi, SelVec* sel, KeyFn key) {
  const bool lo_dbl = lo.type == ValType::kDbl;
  const bool hi_dbl = hi.type == ValType::kDbl;
  const int64_t loi = lo.AsInt64(), hii = hi.AsInt64();
  const double lod = lo.AsDouble(), hid = hi.AsDouble();
  for (size_t i = 0; i < n; ++i) {
    const int64_t x = key(i);
    const bool ok = (lo_dbl ? lod <= static_cast<double>(x) : loi <= x) &&
                    (hi_dbl ? static_cast<double>(x) <= hid : x <= hii);
    if (ok) sel->push_back(static_cast<uint32_t>(i));
  }
}

template <typename T, typename K>
void EqLoop(const T* d, size_t n, K v, SelVec* sel) {
  CompactLoop(n, sel, [&](size_t i) { return static_cast<K>(d[i]) == v; });
}

/// Appends the contiguous run [i_lo, i_hi] of positions in one bulk fill.
void PushRun(int64_t i_lo, int64_t i_hi, SelVec* sel) {
  const size_t base = sel->size();
  sel->resize(base + static_cast<size_t>(i_hi - i_lo + 1));
  uint32_t* out = sel->data() + base;
  for (int64_t i = i_lo; i <= i_hi; ++i) *out++ = static_cast<uint32_t>(i);
}

template <typename T>
std::vector<T> GatherVec(const T* src, const uint32_t* idx, size_t n) {
  std::vector<T> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = src[idx[i]];
  return out;
}

/// Presized string gather: sum the lengths, size the heap once, then one
/// memcpy per string (no heap regrowth, unlike ColumnBuilder::AppendGather).
ColumnPtr GatherStr(const StrColumn& sc, const uint32_t* idx, size_t n) {
  const uint32_t* offs = sc.offsets().data();
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += offs[idx[i] + 1] - offs[idx[i]];
  DCY_CHECK(total <= 0xFFFFFFFFull) << "string gather exceeds the 4 GiB heap limit";
  std::vector<uint32_t> out_offs(n + 1);
  std::string heap(static_cast<size_t>(total), '\0');
  char* dst = heap.data();
  const char* src = sc.heap().data();
  uint32_t cur = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lo = offs[idx[i]];
    const uint32_t len = offs[idx[i] + 1] - lo;
    if (len > 0) std::memcpy(dst + cur, src + lo, len);
    cur += len;
    out_offs[i + 1] = cur;
  }
  return std::make_shared<StrColumn>(std::move(out_offs), std::move(heap));
}

}  // namespace

bool IsContiguous(const uint32_t* idx, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (idx[i] != idx[0] + i) return false;
  }
  return true;
}

ColumnPtr Gather(const Column& c, const uint32_t* idx, size_t n) {
  switch (c.kind()) {
    case ColumnKind::kDense: {
      const auto& d = static_cast<const DenseOidColumn&>(c);
      if (IsContiguous(idx, n)) {
        return MakeDenseOid(d.seqbase() + (n > 0 ? idx[0] : 0), n);
      }
      std::vector<Oid> out(n);
      const Oid seq = d.seqbase();
      for (size_t i = 0; i < n; ++i) out[i] = seq + idx[i];
      return std::make_shared<OidColumn>(ValType::kOid, std::move(out));
    }
    case ColumnKind::kStr:
      return GatherStr(static_cast<const StrColumn&>(c), idx, n);
    case ColumnKind::kDict: {
      // Gather the codes (SIMD) and share the dictionary: the result stays
      // encoded, so downstream selects/groupings keep their code fast paths
      // and no string bytes move.
      const auto& dc = static_cast<const DictStrColumn&>(c);
      const uint32_t* codes = dc.codes().data();
      std::vector<uint32_t> out(n);
      enc::GatherU32(codes, idx, n, out.data());
      return std::make_shared<DictStrColumn>(dc.dict(), std::move(out));
    }
    case ColumnKind::kFixed:
      switch (c.type()) {
        case ValType::kOid:
          return std::make_shared<OidColumn>(
              ValType::kOid, GatherVec(static_cast<const Oid*>(c.RawData()), idx, n));
        case ValType::kInt:
        case ValType::kDate:
          return std::make_shared<IntColumn>(
              c.type(), GatherVec(static_cast<const int32_t*>(c.RawData()), idx, n));
        case ValType::kLng:
          return std::make_shared<LngColumn>(
              ValType::kLng, GatherVec(static_cast<const int64_t*>(c.RawData()), idx, n));
        case ValType::kDbl:
          return std::make_shared<DblColumn>(
              ValType::kDbl, GatherVec(static_cast<const double*>(c.RawData()), idx, n));
        case ValType::kStr: break;  // unreachable: kStr kind handled above
      }
      break;
  }
  DCY_FATAL() << "Gather: bad column layout";
  return nullptr;
}

namespace {

/// Clamps an int64 range predicate to the int32 domain — the semantics the
/// scalar loop gets from widening each element before comparing. Returns
/// false when no int32 value can satisfy the predicate.
bool ClampToI32(int64_t lo, int64_t hi, int32_t* lo32, int32_t* hi32) {
  constexpr int64_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
  if (lo > hi || lo > kMax || hi < kMin) return false;
  *lo32 = static_cast<int32_t>(std::max(lo, kMin));
  *hi32 = static_cast<int32_t>(std::min(hi, kMax));
  return true;
}

}  // namespace

size_t SelectRange(const Column& c, const Value& lo, const Value& hi, SelVec* sel) {
  const size_t n = c.size();
  const size_t before = sel->size();
  if (c.type() == ValType::kStr) {
    if (lo.type == ValType::kStr && hi.type == ValType::kStr) {
      if (c.kind() == ColumnKind::kDict) {
        // Sorted dictionary: the string range maps to a code range, so the
        // scan never touches the heap — two binary searches plus a SIMD
        // integer range select over the codes.
        const auto& dc = static_cast<const DictStrColumn&>(c);
        const uint32_t lo_code = dc.LowerBoundCode(lo.s);
        const uint32_t hi_code = dc.UpperBoundCode(hi.s);  // exclusive
        if (lo_code < hi_code) {
          enc::SelectRangeU32(dc.codes().data(), 0, n, lo_code, hi_code - 1, sel);
        }
      } else {
        const auto& sc = static_cast<const StrColumn&>(c);
        const std::string_view lov = lo.s, hiv = hi.s;
        for (size_t i = 0; i < n; ++i) {
          const std::string_view v = sc.GetString(i);
          if (lov <= v && v <= hiv) sel->push_back(static_cast<uint32_t>(i));
        }
      }
    } else {
      // Exotic mix; keep the boxed semantics bit-for-bit.
      for (size_t i = 0; i < n; ++i) {
        const Value x = c.GetValue(i);
        if (ValueLE(lo, x) && ValueLE(x, hi)) sel->push_back(static_cast<uint32_t>(i));
      }
    }
    return sel->size() - before;
  }
  if (c.type() == ValType::kDbl) {
    enc::SelectRangeF64(static_cast<const double*>(c.RawData()), 0, n,
                        lo.AsDouble(), hi.AsDouble(), sel);
    return sel->size() - before;
  }
  const bool any_dbl_bound = lo.type == ValType::kDbl || hi.type == ValType::kDbl;
  if (c.kind() == ColumnKind::kDense) {
    const int64_t seq = static_cast<int64_t>(static_cast<const DenseOidColumn&>(c).seqbase());
    if (!any_dbl_bound) {
      // Dense fast path: the qualifying rows are one contiguous run.
      const int64_t i_lo = lo.AsInt64() <= seq ? 0 : lo.AsInt64() - seq;
      const int64_t i_hi = std::min<int64_t>(static_cast<int64_t>(n) - 1, hi.AsInt64() - seq);
      if (i_lo <= i_hi) PushRun(i_lo, i_hi, sel);
    } else {
      MixedRangeLoop(n, lo, hi, sel,
                     [seq](size_t i) { return seq + static_cast<int64_t>(i); });
    }
    return sel->size() - before;
  }
  switch (c.type()) {
    case ValType::kOid: {
      const auto* d = static_cast<const Oid*>(c.RawData());
      if (any_dbl_bound) {
        MixedRangeLoop(n, lo, hi, sel,
                       [d](size_t i) { return static_cast<int64_t>(d[i]); });
      } else {
        // Same bit pattern and the same signed compare the scalar ValueLE
        // makes on the oid widened to int64.
        enc::SelectRangeI64(reinterpret_cast<const int64_t*>(d), 0, n,
                            lo.AsInt64(), hi.AsInt64(), sel);
      }
      break;
    }
    case ValType::kInt:
    case ValType::kDate: {
      const auto* d = static_cast<const int32_t*>(c.RawData());
      if (any_dbl_bound) {
        MixedRangeLoop(n, lo, hi, sel,
                       [d](size_t i) { return static_cast<int64_t>(d[i]); });
      } else {
        int32_t lo32 = 0, hi32 = 0;
        if (ClampToI32(lo.AsInt64(), hi.AsInt64(), &lo32, &hi32)) {
          enc::SelectRangeI32(d, 0, n, lo32, hi32, sel);
        }
      }
      break;
    }
    case ValType::kLng: {
      const auto* d = static_cast<const int64_t*>(c.RawData());
      if (any_dbl_bound) {
        MixedRangeLoop(n, lo, hi, sel, [d](size_t i) { return d[i]; });
      } else {
        enc::SelectRangeI64(d, 0, n, lo.AsInt64(), hi.AsInt64(), sel);
      }
      break;
    }
    default: DCY_FATAL() << "SelectRange: bad dispatch";
  }
  return sel->size() - before;
}

size_t SelectEq(const Column& c, const Value& v, SelVec* sel) {
  const size_t n = c.size();
  const size_t before = sel->size();
  if (c.type() == ValType::kStr) {
    if (c.kind() == ColumnKind::kDict) {
      // One binary search resolves the key to a code (or proves it absent);
      // the heap is never touched during the scan.
      const auto& dc = static_cast<const DictStrColumn&>(c);
      const uint32_t code = dc.FindCode(v.s);
      if (code != DictStrColumn::kNoCode) {
        enc::SelectEqU32(dc.codes().data(), 0, n, code, sel);
      }
    } else {
      const auto& sc = static_cast<const StrColumn&>(c);
      const std::string_view key = v.s;
      for (size_t i = 0; i < n; ++i) {
        if (sc.GetString(i) == key) sel->push_back(static_cast<uint32_t>(i));
      }
    }
    return sel->size() - before;
  }
  const bool dbl_domain = c.type() == ValType::kDbl || v.type == ValType::kDbl;
  if (c.kind() == ColumnKind::kDense) {
    const int64_t seq = static_cast<int64_t>(static_cast<const DenseOidColumn&>(c).seqbase());
    if (dbl_domain) {
      const double key = v.AsDouble();
      for (size_t i = 0; i < n; ++i) {
        if (static_cast<double>(seq + static_cast<int64_t>(i)) == key) {
          sel->push_back(static_cast<uint32_t>(i));
        }
      }
    } else {
      const int64_t key = v.AsInt64();
      if (key >= seq && key < seq + static_cast<int64_t>(n)) {
        sel->push_back(static_cast<uint32_t>(key - seq));
      }
    }
    return sel->size() - before;
  }
  switch (c.type()) {
    case ValType::kOid:
      if (dbl_domain) {
        EqLoop(static_cast<const Oid*>(c.RawData()), n, v.AsDouble(), sel);
      } else {
        // Same bit pattern and the same signed compare the scalar ValueEQ
        // makes on the oid widened to int64.
        enc::SelectEqI64(reinterpret_cast<const int64_t*>(c.RawData()), 0, n,
                         v.AsInt64(), sel);
      }
      break;
    case ValType::kInt:
    case ValType::kDate:
      if (dbl_domain) {
        EqLoop(static_cast<const int32_t*>(c.RawData()), n, v.AsDouble(), sel);
      } else {
        int32_t k32 = 0, k32hi = 0;
        const int64_t key = v.AsInt64();
        if (ClampToI32(key, key, &k32, &k32hi)) {
          enc::SelectEqI32(static_cast<const int32_t*>(c.RawData()), 0, n, k32, sel);
        }
      }
      break;
    case ValType::kLng:
      if (dbl_domain) {
        EqLoop(static_cast<const int64_t*>(c.RawData()), n, v.AsDouble(), sel);
      } else {
        enc::SelectEqI64(static_cast<const int64_t*>(c.RawData()), 0, n,
                         v.AsInt64(), sel);
      }
      break;
    case ValType::kDbl:
      enc::SelectEqF64(static_cast<const double*>(c.RawData()), 0, n, v.AsDouble(), sel);
      break;
    default: DCY_FATAL() << "SelectEq: bad dispatch";
  }
  return sel->size() - before;
}

void ExtractInt64Keys(const Column& c, std::vector<int64_t>* keys) {
  const size_t n = c.size();
  keys->resize(n);
  if (n == 0 && c.type() != ValType::kStr) return;
  int64_t* out = keys->data();
  switch (c.kind()) {
    case ColumnKind::kDense: {
      const int64_t seq =
          static_cast<int64_t>(static_cast<const DenseOidColumn&>(c).seqbase());
      for (size_t i = 0; i < n; ++i) out[i] = seq + static_cast<int64_t>(i);
      return;
    }
    case ColumnKind::kFixed:
      switch (c.type()) {
        case ValType::kOid:
        case ValType::kLng:
        case ValType::kDbl:
          // Same 8-byte width: oid/lng verbatim, dbl by bit pattern (the
          // hash-equality form the scalar reference join uses).
          std::memcpy(out, c.RawData(), n * sizeof(int64_t));
          return;
        case ValType::kInt:
        case ValType::kDate: {
          const auto* d = static_cast<const int32_t*>(c.RawData());
          for (size_t i = 0; i < n; ++i) out[i] = d[i];
          return;
        }
        case ValType::kStr: break;
      }
      break;
    case ColumnKind::kStr:
    case ColumnKind::kDict: break;
  }
  DCY_FATAL() << "ExtractInt64Keys on " << ValTypeName(c.type()) << " column";
}

void ExtractDoubleKeys(const Column& c, std::vector<double>* keys) {
  const size_t n = c.size();
  keys->resize(n);
  if (n == 0 && c.type() != ValType::kStr) return;
  double* out = keys->data();
  auto fill = [&](auto convert) {
    for (size_t i = 0; i < n; ++i) out[i] = convert(i);
  };
  switch (c.kind()) {
    case ColumnKind::kDense: {
      const auto& d = static_cast<const DenseOidColumn&>(c);
      const Oid seq = d.seqbase();
      fill([seq](size_t i) { return static_cast<double>(seq + i); });
      return;
    }
    case ColumnKind::kFixed:
      switch (c.type()) {
        case ValType::kDbl:
          std::memcpy(out, c.RawData(), n * sizeof(double));
          return;
        case ValType::kOid: {
          const auto* d = static_cast<const Oid*>(c.RawData());
          fill([d](size_t i) { return static_cast<double>(d[i]); });
          return;
        }
        case ValType::kInt:
        case ValType::kDate: {
          const auto* d = static_cast<const int32_t*>(c.RawData());
          fill([d](size_t i) { return static_cast<double>(d[i]); });
          return;
        }
        case ValType::kLng: {
          const auto* d = static_cast<const int64_t*>(c.RawData());
          fill([d](size_t i) { return static_cast<double>(d[i]); });
          return;
        }
        case ValType::kStr: break;
      }
      break;
    case ColumnKind::kStr:
    case ColumnKind::kDict: break;
  }
  DCY_FATAL() << "ExtractDoubleKeys on " << ValTypeName(c.type()) << " column";
}

Span<int64_t> Int64KeySpan(const Column& c, std::vector<int64_t>* scratch) {
  if (c.kind() == ColumnKind::kFixed &&
      (c.type() == ValType::kOid || c.type() == ValType::kLng)) {
    // lng verbatim; oid reinterpreted as its signed twin (same bit pattern
    // ExtractInt64Keys copies, and signed/unsigned views may alias).
    return {static_cast<const int64_t*>(c.RawData()), c.size()};
  }
  ExtractInt64Keys(c, scratch);
  return {scratch->data(), scratch->size()};
}

FlatTable::FlatTable(const int64_t* keys, size_t n) {
  next_.assign(n, kNone);

  if (n > 0) {
    int64_t min = keys[0], max = keys[0];
    for (size_t j = 1; j < n; ++j) {
      min = std::min(min, keys[j]);
      max = std::max(max, keys[j]);
    }
    // Direct addressing when the span costs at most ~4 slots per row (plus
    // slack for tiny builds): the FK-join common case of a compact domain.
    const uint64_t span = static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
    if (span < 4 * static_cast<uint64_t>(n) + 1024) {
      direct_ = true;
      min_ = min;
      bucket_rows_.assign(span + 1, kNone);
      for (size_t j = n; j-- > 0;) {
        const uint64_t off = static_cast<uint64_t>(keys[j]) - static_cast<uint64_t>(min);
        uint32_t& head = bucket_rows_[off];
        next_[j] = head;  // kNone for the first insert
        head = static_cast<uint32_t>(j);
      }
      return;
    }
  }

  direct_ = false;
  size_t cap = 8;
  while (cap < n * 2) cap <<= 1;  // <= 50% load factor
  mask_ = cap - 1;
  bucket_rows_.assign(cap, kNone);
  bucket_keys_.resize(cap);
  // Insert in reverse row order at the chain head so probes walk ascending
  // rows — bit-identical output order to the scalar reference.
  for (size_t j = n; j-- > 0;) {
    const int64_t key = keys[j];
    uint64_t slot = Hash(key) & mask_;
    while (true) {
      uint32_t& head = bucket_rows_[slot];
      if (head == kNone) {
        head = static_cast<uint32_t>(j);
        bucket_keys_[slot] = key;
        break;
      }
      if (bucket_keys_[slot] == key) {
        next_[j] = head;
        head = static_cast<uint32_t>(j);
        break;
      }
      slot = (slot + 1) & mask_;
    }
  }
}

}  // namespace dcy::bat::kernels
