// Differential tests for the vectorized kernel engine: every hot operator is
// pitted against the retained scalar reference (bat/scalar_reference.h) over
// randomized inputs covering all ValTypes and degenerate shapes (empty,
// duplicate-heavy, sorted), asserting bit-identical results. Plus direct
// kernel unit tests (FlatTable, gather, selection vectors), exact
// aggregates, and round trips through the bulk serializer.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bat/encoding.h"
#include "bat/kernels.h"
#include "bat/operators.h"
#include "bat/scalar_reference.h"
#include "bat/serialize.h"
#include "common/random.h"

namespace dcy::bat {
namespace {

// ---- input generation --------------------------------------------------------

enum class Shape { kEmpty, kRandom, kDupHeavy, kSorted };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kEmpty: return "empty";
    case Shape::kRandom: return "random";
    case Shape::kDupHeavy: return "dup-heavy";
    case Shape::kSorted: return "sorted";
  }
  return "?";
}

/// Builds a random column of `type` with the given shape. Sorted shapes set
/// the scan-derived properties so operators take the merge paths.
ColumnPtr RandomColumn(ValType type, Shape shape, size_t n, Rng* rng) {
  if (shape == Shape::kEmpty) n = 0;
  const int64_t domain = shape == Shape::kDupHeavy ? 4 : 1000;
  ColumnBuilder b(type);
  std::vector<std::string> strs;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  for (size_t i = 0; i < n; ++i) {
    ints.push_back(rng->UniformInt(-domain, domain));
    dbls.push_back(static_cast<double>(rng->UniformInt(-domain, domain)) / 2.0);
    strs.push_back("s" + std::to_string(rng->UniformInt(0, domain)));
  }
  if (shape == Shape::kSorted) {
    std::sort(ints.begin(), ints.end());
    std::sort(dbls.begin(), dbls.end());
    std::sort(strs.begin(), strs.end());
  }
  for (size_t i = 0; i < n; ++i) {
    switch (type) {
      case ValType::kOid: b.AppendInt64(ints[i] + domain); break;  // non-negative
      case ValType::kInt:
      case ValType::kDate:
      case ValType::kLng: b.AppendInt64(ints[i]); break;
      case ValType::kDbl: b.AppendDouble(dbls[i]); break;
      case ValType::kStr: b.AppendString(strs[i]); break;
    }
  }
  return b.Finish();
}

BatPtr RandomBat(ValType tail_type, Shape shape, size_t n, Rng* rng,
                 bool scan_props = false) {
  ColumnPtr tail = RandomColumn(tail_type, shape, n, rng);
  ColumnPtr head = MakeDenseOid(rng->UniformU64(0, 100), tail->size());
  if (!scan_props) return Bat::MakeColumn(std::move(tail));
  auto props = Bat::ScanProperties(*head, *tail);
  return std::make_shared<Bat>(std::move(head), std::move(tail), props);
}

/// Bit-identical BAT equality: size, column types, and every row of both
/// columns (boxed compare covers all types exactly).
void ExpectSameBat(const BatPtr& got, const BatPtr& want, const std::string& ctx) {
  ASSERT_EQ(got->size(), want->size()) << ctx;
  ASSERT_EQ(got->head_type(), want->head_type()) << ctx;
  ASSERT_EQ(got->tail_type(), want->tail_type()) << ctx;
  for (size_t i = 0; i < want->size(); ++i) {
    ASSERT_TRUE(got->head()->GetValue(i) == want->head()->GetValue(i))
        << ctx << " head row " << i << ": " << got->head()->GetValue(i).ToString()
        << " vs " << want->head()->GetValue(i).ToString();
    ASSERT_TRUE(got->tail()->GetValue(i) == want->tail()->GetValue(i))
        << ctx << " tail row " << i << ": " << got->tail()->GetValue(i).ToString()
        << " vs " << want->tail()->GetValue(i).ToString();
  }
}

void ExpectSameResult(const Result<BatPtr>& got, const Result<BatPtr>& want,
                      const std::string& ctx) {
  ASSERT_EQ(got.ok(), want.ok()) << ctx;
  if (!want.ok()) return;
  ExpectSameBat(*got, *want, ctx);
}

constexpr ValType kAllTypes[] = {ValType::kOid, ValType::kInt, ValType::kLng,
                                 ValType::kDbl, ValType::kStr, ValType::kDate};
constexpr Shape kAllShapes[] = {Shape::kEmpty, Shape::kRandom, Shape::kDupHeavy,
                                Shape::kSorted};

/// Row counts of the encoded-column and string-gather sweeps: sizes around
/// the SIMD kernels' block boundaries, and a larger input.
constexpr size_t kSweepSizes[] = {90, 127, 128, 129, 1000};

// ---- differential sweeps -----------------------------------------------------

class KernelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelDifferentialTest, SelectMatchesScalar) {
  Rng rng(GetParam() * 1315423911ULL + 1);
  for (ValType t : kAllTypes) {
    for (Shape s : kAllShapes) {
      const std::string ctx =
          std::string("select ") + ValTypeName(t) + " " + ShapeName(s);
      auto b = RandomBat(t, s, 1 + rng.UniformU64(0, 200), &rng);
      // Probe a value likely present plus one likely absent.
      for (int probe = 0; probe < 2; ++probe) {
        Value v;
        switch (t) {
          case ValType::kOid: v = Value::MakeOid(probe == 0 ? 3 : 99999); break;
          case ValType::kDbl: v = Value::MakeDbl(probe == 0 ? 1.5 : 1e12); break;
          case ValType::kStr: v = Value::MakeStr(probe == 0 ? "s1" : "zzz"); break;
          case ValType::kDate: v = Value::MakeDate(probe == 0 ? 2 : 99999); break;
          default: v = Value::MakeLng(probe == 0 ? 2 : 99999); break;
        }
        ExpectSameResult(Select(b, v), scalar::Select(b, v), ctx);
      }
      // Range select, including inverted (empty) and double-bound mixes.
      if (t == ValType::kStr) {
        ExpectSameResult(SelectRange(b, Value::MakeStr("s1"), Value::MakeStr("s5")),
                         scalar::SelectRange(b, Value::MakeStr("s1"), Value::MakeStr("s5")),
                         ctx);
      } else {
        ExpectSameResult(SelectRange(b, Value::MakeLng(-3), Value::MakeLng(4)),
                         scalar::SelectRange(b, Value::MakeLng(-3), Value::MakeLng(4)), ctx);
        ExpectSameResult(SelectRange(b, Value::MakeLng(4), Value::MakeLng(-3)),
                         scalar::SelectRange(b, Value::MakeLng(4), Value::MakeLng(-3)), ctx);
        ExpectSameResult(
            SelectRange(b, Value::MakeDbl(-2.5), Value::MakeLng(3)),
            scalar::SelectRange(b, Value::MakeDbl(-2.5), Value::MakeLng(3)), ctx);
      }
    }
  }
}

TEST_P(KernelDifferentialTest, JoinMatchesScalar) {
  Rng rng(GetParam() * 2654435761ULL + 7);
  for (ValType t : kAllTypes) {
    for (Shape s : kAllShapes) {
      const std::string ctx = std::string("join ") + ValTypeName(t) + " " + ShapeName(s);
      // Hash path: unsorted flags.
      auto l = RandomBat(t, s, 1 + rng.UniformU64(0, 150), &rng);
      auto r = Reverse(RandomBat(t, s, 1 + rng.UniformU64(0, 150), &rng));
      ExpectSameResult(Join(l, r), scalar::Join(l, r), ctx + " hash");

      // Merge path: sorted tails/heads with scanned properties.
      auto ls = RandomBat(t, Shape::kSorted, 1 + rng.UniformU64(0, 150), &rng,
                          /*scan_props=*/true);
      auto rs = Reverse(RandomBat(t, Shape::kSorted, 1 + rng.UniformU64(0, 150), &rng,
                                  /*scan_props=*/true));
      ASSERT_TRUE(ls->props().tsorted && rs->props().hsorted);
      ExpectSameResult(Join(ls, rs), scalar::Join(ls, rs), ctx + " merge");
    }
  }
}

// Join and LeftJoin answer a dense right head by position. The sweep above
// builds every right side with Reverse, so none of its right heads is dense;
// this one builds r = [dense s.., tail] and checks the fetch path against the
// oracle's merge and hash joins.

enum class FetchShape { kRandom, kInRange, kSorted, kDenseTail };

const char* FetchShapeName(FetchShape s) {
  switch (s) {
    case FetchShape::kRandom: return "random";
    case FetchShape::kInRange: return "in-range";
    case FetchShape::kSorted: return "sorted";
    case FetchShape::kDenseTail: return "dense-tail";
  }
  return "?";
}

/// r = [dense s.., tail]; `dict` makes the string tail dictionary-coded.
BatPtr DenseHeadedBat(ValType type, bool dict, Oid s, size_t n, Rng* rng) {
  if (!dict) return Bat::MakeColumn(RandomColumn(type, Shape::kRandom, n, rng), s);
  auto words = std::make_shared<StrColumn>(std::vector<uint32_t>{0, 0, 1, 3, 4, 6},
                                           std::string("abbcdd"));  // "", a, bb, c, dd
  std::vector<uint32_t> codes(n);
  for (auto& c : codes) c = static_cast<uint32_t>(rng->UniformU64(0, words->size() - 1));
  return Bat::MakeColumn(std::make_shared<DictStrColumn>(words, std::move(codes)), s);
}

/// A probe key against r = [dense s.., |r| = rn]: mostly in range, otherwise
/// below s, at or past s + rn, or negative (signed types).
int64_t FetchKey(ValType t, Oid s, size_t rn, bool in_range_only, Rng* rng) {
  const int64_t lo = static_cast<int64_t>(s);
  const int64_t end = lo + static_cast<int64_t>(rn);
  uint64_t pick = in_range_only ? 0 : rng->UniformU64(0, 9);
  if (rn == 0 && pick < 7) pick = 8;
  if (pick < 7) return rng->UniformInt(lo, end - 1);
  if (pick == 7 && lo > 0) return rng->UniformInt(0, lo - 1);
  if (pick == 9 && t != ValType::kOid) return -rng->UniformInt(1, 1000);
  return rng->UniformInt(end, end + 50);
}

/// l = [head, integer tail of type t] of n rows shaped against r. Random keys
/// repeat; kSorted scans its properties (the flags that select the merge
/// path); kDenseTail is an oid range starting at, inside, or below r's head
/// (past it when s < 5).
BatPtr FetchProbe(ValType t, FetchShape shape, size_t n, Oid s, size_t rn, Rng* rng) {
  ColumnPtr tail;
  if (shape == FetchShape::kDenseTail) {
    const Oid starts[] = {s, s + rn / 2, s >= 5 ? s - 5 : s + rn};
    tail = MakeDenseOid(starts[rng->UniformU64(0, 2)], n);
  } else {
    std::vector<int64_t> keys(n);
    for (auto& k : keys) k = FetchKey(t, s, rn, shape == FetchShape::kInRange, rng);
    if (shape == FetchShape::kSorted) std::sort(keys.begin(), keys.end());
    ColumnBuilder b(t);
    for (int64_t k : keys) b.AppendInt64(k);
    tail = b.Finish();
  }
  ColumnPtr head = rng->UniformU64(0, 1) == 0
                       ? MakeDenseOid(rng->UniformU64(0, 100), n)
                       : RandomColumn(ValType::kStr, Shape::kRandom, n, rng);
  const Bat::Properties props = shape == FetchShape::kSorted
                                    ? Bat::ScanProperties(*head, *tail)
                                    : Bat::Properties{};
  return std::make_shared<Bat>(std::move(head), std::move(tail), props);
}

TEST_P(KernelDifferentialTest, FetchJoinMatchesScalar) {
  constexpr ValType kIntegerTypes[] = {ValType::kOid, ValType::kInt, ValType::kLng,
                                       ValType::kDate};
  constexpr FetchShape kFetchShapes[] = {FetchShape::kRandom, FetchShape::kInRange,
                                         FetchShape::kSorted, FetchShape::kDenseTail};
  Rng rng(GetParam() * 2246822519ULL + 1);
  for (Oid s : {Oid{0}, Oid{7}, Oid{1000}}) {
    for (ValType rt : kAllTypes) {
      for (bool dict : {false, true}) {
        if (dict && rt != ValType::kStr) continue;
        const size_t rn = rng.UniformU64(1, 400);
        auto r = DenseHeadedBat(rt, dict, s, rn, &rng);
        auto empty_r = DenseHeadedBat(rt, dict, s, 0, &rng);
        for (ValType lt : kIntegerTypes) {
          for (FetchShape shape : kFetchShapes) {
            if (shape == FetchShape::kDenseTail && lt != ValType::kOid) continue;
            const std::string ctx =
                "fetch s" + std::to_string(s) + " r[" +
                (dict ? "dict" : ValTypeName(rt)) + " #" + std::to_string(rn) + "] l[" +
                ValTypeName(lt) + " " + FetchShapeName(shape) + "]";
            auto l = FetchProbe(lt, shape, rng.UniformU64(1, 400), s, rn, &rng);
            ExpectSameResult(Join(l, r), scalar::Join(l, r), ctx + " join");
            ExpectSameResult(LeftJoin(l, r), scalar::Join(l, r), ctx + " leftjoin");
            auto empty_l = FetchProbe(lt, shape, 0, s, rn, &rng);
            ExpectSameResult(Join(empty_l, r), scalar::Join(empty_l, r),
                             ctx + " empty l");
            ExpectSameResult(Join(l, empty_r), scalar::Join(l, empty_r),
                             ctx + " empty r");
          }
        }
      }
    }
  }
}

TEST_P(KernelDifferentialTest, SemiJoinKDiffKUnionMatchScalar) {
  Rng rng(GetParam() * 40503ULL + 11);
  for (ValType t : kAllTypes) {
    for (Shape s : kAllShapes) {
      const std::string ctx = std::string("headset ") + ValTypeName(t) + " " + ShapeName(s);
      // Heads of type t: build [t-head, lng-tail] BATs via Reverse.
      auto l = Reverse(RandomBat(t, s, 1 + rng.UniformU64(0, 150), &rng));
      auto r = Reverse(RandomBat(t, s, 1 + rng.UniformU64(0, 150), &rng));
      ExpectSameResult(SemiJoin(l, r), scalar::SemiJoin(l, r), ctx + " semijoin");
      ExpectSameResult(KDiff(l, r), scalar::KDiff(l, r), ctx + " kdiff");
      ExpectSameResult(KUnion(l, r), scalar::KUnion(l, r), ctx + " kunion");
    }
  }
}

TEST_P(KernelDifferentialTest, SortMatchesScalar) {
  Rng rng(GetParam() * 69069ULL + 13);
  for (ValType t : kAllTypes) {
    for (Shape s : kAllShapes) {
      const std::string ctx = std::string("sort ") + ValTypeName(t) + " " + ShapeName(s);
      auto b = RandomBat(t, s, 1 + rng.UniformU64(0, 200), &rng);
      ExpectSameResult(Sort(b), scalar::Sort(b), ctx);
    }
  }
}

TEST_P(KernelDifferentialTest, TopNMatchesScalar) {
  Rng rng(GetParam() * 48271ULL + 17);
  for (ValType t : kAllTypes) {
    for (Shape s : kAllShapes) {
      const std::string ctx = std::string("topn ") + ValTypeName(t) + " " + ShapeName(s);
      auto b = RandomBat(t, s, 1 + rng.UniformU64(0, 200), &rng);
      for (size_t k : {size_t{0}, size_t{1}, size_t{7}, b->size(), b->size() + 5}) {
        for (bool desc : {false, true}) {
          ExpectSameResult(TopN(b, k, desc), scalar::TopN(b, k, desc),
                           ctx + " k" + std::to_string(k) + (desc ? " desc" : " asc"));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- kernel unit tests -------------------------------------------------------

TEST(FlatTableTest, DirectModeOnCompactDomain) {
  std::vector<int64_t> keys = {5, 3, 5, 9, 3, 5};
  kernels::FlatTable t(keys);
  EXPECT_TRUE(t.is_direct());
  // Chains walk ascending rows.
  std::vector<uint32_t> rows;
  for (uint32_t r = t.Find(5); r != kernels::FlatTable::kNone; r = t.Next(r)) {
    rows.push_back(r);
  }
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_EQ(t.Find(4), kernels::FlatTable::kNone);
  EXPECT_EQ(t.Find(-1), kernels::FlatTable::kNone);
  EXPECT_EQ(t.Find(1000000), kernels::FlatTable::kNone);
}

TEST(FlatTableTest, OpenAddressingOnSparseDomain) {
  std::vector<int64_t> keys;
  for (int i = 0; i < 100; ++i) keys.push_back(static_cast<int64_t>(i) * 1000000007LL - 50);
  keys.push_back(keys[7]);  // one duplicate
  kernels::FlatTable t(keys);
  EXPECT_FALSE(t.is_direct());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(t.Find(keys[static_cast<size_t>(i)]),
              static_cast<uint32_t>(i));
  }
  EXPECT_EQ(t.Next(7), 100u);  // duplicate chains to the later row
  EXPECT_EQ(t.Find(12345), kernels::FlatTable::kNone);
}

TEST(FlatTableTest, EmptyKeys) {
  std::vector<int64_t> keys;
  kernels::FlatTable t(keys);
  EXPECT_EQ(t.Find(0), kernels::FlatTable::kNone);
}

TEST(FlatTableTest, SpanConstructorMatchesVectorConstructor) {
  const std::vector<int64_t> keys = {7, -3, 7, 1000000007LL, -3};
  kernels::FlatTable from_vec(keys);
  kernels::FlatTable from_ptr(keys.data(), keys.size());
  Span<int64_t> span{keys.data(), keys.size()};
  kernels::FlatTable from_span(span);
  for (int64_t k : {int64_t{7}, int64_t{-3}, int64_t{1000000007LL}, int64_t{42}}) {
    EXPECT_EQ(from_ptr.Find(k), from_vec.Find(k));
    EXPECT_EQ(from_span.Find(k), from_vec.Find(k));
  }
}

TEST(GatherTest, DenseSourceCollapsesContiguousRuns) {
  auto dense = MakeDenseOid(100, 10);
  SelVec run = {3, 4, 5};
  auto sliced = kernels::Gather(*dense, run.data(), run.size());
  EXPECT_EQ(sliced->kind(), ColumnKind::kDense);
  EXPECT_EQ(sliced->GetInt64(0), 103);
  SelVec scattered = {1, 5, 2};
  auto gathered = kernels::Gather(*dense, scattered.data(), scattered.size());
  EXPECT_EQ(gathered->kind(), ColumnKind::kFixed);
  EXPECT_EQ(gathered->GetInt64(2), 102);
}

TEST(GatherTest, StringGatherRebuildsHeap) {
  auto c = MakeStrColumn({"aa", "", "cccc", "d"});
  SelVec idx = {3, 0, 0, 2};
  auto g = kernels::Gather(*c, idx.data(), idx.size());
  ASSERT_EQ(g->size(), 4u);
  EXPECT_EQ(g->GetString(0), "d");
  EXPECT_EQ(g->GetString(1), "aa");
  EXPECT_EQ(g->GetString(2), "aa");
  EXPECT_EQ(g->GetString(3), "cccc");
}

TEST(ColumnBuilderTest, BulkAppendsMatchRowAppends) {
  // AppendSpan / AppendColumnRange / AppendGather against per-row appends.
  auto src = MakeLngColumn({10, 20, 30, 40});
  ColumnBuilder bulk(ValType::kLng);
  bulk.AppendSpan(src->FixedData<int64_t>());
  bulk.AppendColumnRange(*src, 1, 2);
  SelVec idx = {3, 0};
  bulk.AppendGather(*src, idx.data(), idx.size());
  auto got = bulk.Finish();
  std::vector<int64_t> want = {10, 20, 30, 40, 20, 30, 40, 10};
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got->GetInt64(i), want[i]);
}

TEST(ColumnBuilderTest, StrAndDenseColumnRange) {
  auto sc = MakeStrColumn({"x", "yy", "zzz"});
  ColumnBuilder b(ValType::kStr);
  b.AppendColumnRange(*sc, 1, 2);
  auto got = b.Finish();
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ(got->GetString(0), "yy");
  EXPECT_EQ(got->GetString(1), "zzz");

  auto dense = MakeDenseOid(7, 5);
  ColumnBuilder ob(ValType::kOid);
  ob.AppendColumnRange(*dense, 2, 3);
  auto oids = ob.Finish();
  ASSERT_EQ(oids->size(), 3u);
  EXPECT_EQ(oids->GetInt64(0), 9);
  EXPECT_EQ(oids->GetInt64(2), 11);
}

TEST(ColumnBuilderTest, StrBuilderIsReusableAfterFinish) {
  ColumnBuilder b(ValType::kStr);
  b.AppendString("a");
  auto first = b.Finish();
  b.AppendString("bc");
  auto second = b.Finish();
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ(second->GetString(0), "bc");
  EXPECT_EQ(first->GetString(0), "a");
}

TEST(OperatorPropsTest, DescendingTopNIsNotMarkedSorted) {
  auto sorted = Sort(Bat::MakeColumn(MakeIntColumn({3, 1, 2})));
  ASSERT_TRUE(sorted.ok() && (*sorted)->props().tsorted);
  auto desc = TopN(*sorted, 2, /*descending=*/true);
  ASSERT_TRUE(desc.ok());
  EXPECT_FALSE((*desc)->props().tsorted);  // 3,2 is descending
  auto asc = TopN(*sorted, 2, /*descending=*/false);
  ASSERT_TRUE(asc.ok());
  EXPECT_TRUE((*asc)->props().tsorted);
}

TEST(OperatorPropsTest, DoubleGidsTruncateLikeGetInt64) {
  // batcalc arithmetic emits dbl; grouped aggregates must truncate gids the
  // way the scalar GetInt64 accessor did, not bit-cast them.
  auto values = Bat::MakeColumn(MakeIntColumn({10, 20, 30}));
  auto gids = Bat::MakeColumn(MakeDblColumn({0.0, 1.0, 1.0}));
  auto sums = SumPerGroup(values, gids, 2);
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  EXPECT_DOUBLE_EQ((*sums)->tail()->GetDouble(0), 10.0);
  EXPECT_DOUBLE_EQ((*sums)->tail()->GetDouble(1), 50.0);
  auto counts = CountPerGroup(gids, 2);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)->tail()->GetInt64(1), 2);
}

// ---- string gather -----------------------------------------------------------

class StringGatherTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StringGatherTest, PresizedBuildMatchesRowByRowGetString) {
  Rng rng(GetParam() * 22695477ULL + 3);
  // Strings of varying length (empties included) gathered with repeats and
  // back-references.
  std::vector<std::string> pool;
  for (int i = 0; i < 40; ++i) {
    pool.push_back(std::string(static_cast<size_t>(rng.UniformInt(0, 12)),
                               static_cast<char>('a' + (i % 26))));
  }
  pool[0].clear();
  for (size_t n : kSweepSizes) {
    std::vector<std::string> src_rows;
    for (size_t i = 0; i < n; ++i) {
      src_rows.push_back(pool[static_cast<size_t>(rng.UniformInt(0, 39))]);
    }
    src_rows[0].clear();
    auto src = MakeStrColumn(src_rows);
    SelVec idx(n);
    for (auto& x : idx) x = static_cast<uint32_t>(rng.UniformU64(0, n - 1));
    idx[0] = 0;  // at least one empty string in the output
    auto got = kernels::Gather(*src, idx.data(), idx.size());
    const std::string ctx = "str-gather n" + std::to_string(n);
    ASSERT_EQ(got->size(), n) << ctx;
    std::string heap;
    std::vector<uint32_t> offsets = {0};
    for (size_t i = 0; i < n; ++i) {
      const std::string_view want = src->GetString(idx[i]);
      ASSERT_EQ(got->GetString(i), want) << ctx << " row " << i;
      heap.append(want);
      offsets.push_back(static_cast<uint32_t>(heap.size()));
    }
    // The heap is exactly the rows back to back, with no slack.
    const auto& gs = static_cast<const StrColumn&>(*got);
    EXPECT_EQ(gs.heap(), heap) << ctx;
    EXPECT_EQ(gs.offsets(), offsets) << ctx;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringGatherTest, ::testing::Values(1, 2, 3, 5));

// ---- exact aggregates --------------------------------------------------------

TEST(AggregateTest, SumsAddInRowOrderBitForBit) {
  // 200,000 rows: large enough that splitting the sum into partials would
  // round differently from one row-order pass.
  constexpr size_t kRows = 200000;
  constexpr size_t kGroups = 7;
  Rng rng(20260);
  std::vector<double> values(kRows);
  std::vector<int32_t> gid_rows(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    values[i] = rng.UniformDouble(-1e6, 1e6) * std::pow(10.0, rng.UniformInt(-6, 6));
    gid_rows[i] = static_cast<int32_t>(rng.UniformInt(0, kGroups - 1));
  }
  double total = 0.0;
  std::vector<double> sums(kGroups, 0.0);
  std::vector<int64_t> counts(kGroups, 0);
  for (size_t i = 0; i < kRows; ++i) {
    total += values[i];
    sums[static_cast<size_t>(gid_rows[i])] += values[i];
    ++counts[static_cast<size_t>(gid_rows[i])];
  }
  auto b = Bat::MakeColumn(MakeDblColumn(values));
  auto gids = Bat::MakeColumn(MakeIntColumn(gid_rows));

  auto sum = Sum(b);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->AsDouble(), total);
  auto avg = Avg(b);
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  EXPECT_EQ(avg->AsDouble(), total / static_cast<double>(kRows));
  auto per_group = SumPerGroup(b, gids, kGroups);
  ASSERT_TRUE(per_group.ok()) << per_group.status().ToString();
  auto count = CountPerGroup(gids, kGroups);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  for (size_t g = 0; g < kGroups; ++g) {
    EXPECT_EQ((*per_group)->tail()->GetDouble(g), sums[g]) << "group " << g;
    EXPECT_EQ((*count)->tail()->GetInt64(g), counts[g]) << "group " << g;
  }

  gid_rows[150000] = static_cast<int32_t>(kGroups);  // one gid out of range
  auto bad = Bat::MakeColumn(MakeIntColumn(std::move(gid_rows)));
  EXPECT_EQ(SumPerGroup(b, bad, kGroups).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(CountPerGroup(bad, kGroups).status().code(), StatusCode::kOutOfRange);
}

// The ParallelKernelTest names date from when each aggregate had a per-worker
// path. Every kernel now has one path, so each worker-count loop is one pass,
// checked against a row-order loop over the boxed values.
class ParallelKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelKernelTest, AggregatesMatchSequentialAcrossWorkerCounts) {
  Rng rng(GetParam() * 6700417ULL + 5);
  for (ValType t : {ValType::kInt, ValType::kLng, ValType::kOid, ValType::kDbl}) {
    for (size_t n : kSweepSizes) {
      auto b = RandomBat(t, Shape::kRandom, n, &rng);
      constexpr size_t kGroups = 17;
      std::vector<int32_t> gid_rows(b->size());
      for (auto& g : gid_rows) {
        g = static_cast<int32_t>(rng.UniformInt(0, kGroups - 1));
      }
      int64_t total = 0;
      double total_dbl = 0.0;
      std::vector<double> sums(kGroups, 0.0);
      std::vector<int64_t> counts(kGroups, 0);
      for (size_t i = 0; i < n; ++i) {
        const auto g = static_cast<size_t>(gid_rows[i]);
        total += b->tail()->GetInt64(i);
        total_dbl += b->tail()->GetDouble(i);
        sums[g] += b->tail()->GetDouble(i);
        ++counts[g];
      }
      auto gids = Bat::MakeColumn(MakeIntColumn(std::move(gid_rows)));
      const std::string ctx =
          std::string("agg n") + std::to_string(n) + " " + ValTypeName(t);

      const auto sum = Sum(b);
      ASSERT_TRUE(sum.ok()) << ctx << ": " << sum.status().ToString();
      if (t == ValType::kDbl) {
        EXPECT_EQ(sum->AsDouble(), total_dbl) << ctx;
      } else {
        EXPECT_EQ(sum->AsInt64(), total) << ctx;
      }
      const auto avg = Avg(b);
      ASSERT_TRUE(avg.ok()) << ctx << ": " << avg.status().ToString();
      EXPECT_EQ(avg->AsDouble(), total_dbl / static_cast<double>(n)) << ctx;
      const auto per_group = SumPerGroup(b, gids, kGroups);
      ASSERT_TRUE(per_group.ok()) << ctx << ": " << per_group.status().ToString();
      ASSERT_EQ((*per_group)->size(), kGroups) << ctx;
      const auto count = CountPerGroup(gids, kGroups);
      ASSERT_TRUE(count.ok()) << ctx << ": " << count.status().ToString();
      ASSERT_EQ((*count)->size(), kGroups) << ctx;
      for (size_t g = 0; g < kGroups; ++g) {
        EXPECT_EQ((*per_group)->tail()->GetDouble(g), sums[g]) << ctx << " group " << g;
        EXPECT_EQ((*count)->tail()->GetInt64(g), counts[g]) << ctx << " group " << g;
      }
    }
  }
}

TEST(ParallelKernelTest, GroupedAggregateRejectsOutOfRangeGidsInParallel) {
  std::vector<int32_t> gids_rows(1000, 0);
  gids_rows[700] = 99;  // out of range, discovered mid-column
  auto values = Bat::MakeColumn(MakeIntColumn(std::vector<int32_t>(1000, 1)));
  auto gids = Bat::MakeColumn(MakeIntColumn(std::move(gids_rows)));
  EXPECT_EQ(SumPerGroup(values, gids, 4).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(CountPerGroup(gids, 4).status().code(), StatusCode::kOutOfRange);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelKernelTest, ::testing::Values(1, 2, 3, 5));

// ---- bulk serializer round trips ---------------------------------------------

class BulkSerializeTest : public ::testing::TestWithParam<int> {};

TEST_P(BulkSerializeTest, RoundTripAllLayouts) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  for (ValType t : kAllTypes) {
    for (Shape s : kAllShapes) {
      const std::string ctx =
          std::string("serialize ") + ValTypeName(t) + " " + ShapeName(s);
      // Dense-head BAT.
      auto dense_head = RandomBat(t, s, rng.UniformU64(0, 100), &rng);
      // Materialized-head BAT (reverse puts the typed column at the head).
      auto mat_head = Reverse(dense_head);
      for (const BatPtr& b : {dense_head, mat_head}) {
        const std::string wire = Serialize(*b);
        EXPECT_EQ(wire.size(), EncodedSize(*b)) << ctx;
        auto restored = Deserialize(wire);
        ASSERT_TRUE(restored.ok()) << ctx << ": " << restored.status().ToString();
        ExpectSameBat(*restored, b, ctx);
        EXPECT_EQ((*restored)->HasDenseHead(), b->HasDenseHead()) << ctx;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkSerializeTest, ::testing::Range(0, 6));

TEST(BulkSerializeTest, DenseTailEncodesAsMaterializedOids) {
  // uselect produces a dense tail; the wire format materializes it.
  auto b = Bat::MakeColumn(MakeIntColumn({5, 3, 5}));
  auto u = USelect(b, Value::MakeInt(5));
  ASSERT_TRUE(u.ok());
  ASSERT_EQ((*u)->tail()->kind(), ColumnKind::kDense);
  const std::string wire = Serialize(**u);
  EXPECT_EQ(wire.size(), EncodedSize(**u));
  auto restored = Deserialize(wire);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameBat(*restored, *u, "dense tail");
}

TEST(BulkSerializeTest, SerializeIntoReusesFrameCapacity) {
  auto b = Bat::MakeColumn(MakeLngColumn(std::vector<int64_t>(1000, 42)));
  std::string frame;
  SerializeInto(*b, &frame);
  const size_t size1 = frame.size();
  const void* data1 = frame.data();
  SerializeInto(*b, &frame);  // same BAT: no reallocation on reuse
  EXPECT_EQ(frame.size(), size1);
  EXPECT_EQ(frame.data(), data1);
  auto restored = Deserialize(frame);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->size(), 1000u);
}

TEST(BulkSerializeTest, CorruptionStillDetected) {
  auto b = Bat::MakeColumn(MakeDblColumn({1.5, -2.5, 3.5}));
  std::string wire = Serialize(*b);
  wire[wire.size() / 2] ^= 0x5A;
  EXPECT_EQ(Deserialize(wire).status().code(), StatusCode::kCorruption);
}

// ---- encoded-column differential sweeps --------------------------------------
//
// Ring-delivered fragments arrive encoded: low-cardinality strings decode to
// dictionary columns (operators run on the codes), sorted integers decode
// from FOR with sortedness pre-seeded. Every operator that grew an encoded
// fast path is re-run here against the scalar reference evaluated on the
// plain twin of the same data — also with the SIMD dispatch forced off, so
// the scalar fallbacks get the same sweep.

/// Round trips `b` through the v2 wire format and returns the decoded BAT
/// (dictionary/FOR columns materialize as their encoded in-memory forms).
BatPtr EncodeViaWire(const BatPtr& b) {
  enc::ScopedWireCompression on(true);
  auto restored = Deserialize(Serialize(*b));
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  return *restored;
}

class EncodedColumnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodedColumnTest, DictSelectSortTopNMatchScalar) {
  for (bool force_scalar : {false, true}) {
    enc::ScopedForceScalar forced(force_scalar);
    Rng rng(GetParam() * 48271ULL + 2 + force_scalar);
    for (size_t n : kSweepSizes) {
      const std::string ctx = std::string("dict") + (force_scalar ? " scalar" : " simd") +
                              " n" + std::to_string(n);
      auto plain = RandomBat(ValType::kStr, Shape::kDupHeavy, n, &rng);
      auto encoded = EncodeViaWire(plain);
      // Dup-heavy strings (5 distinct values) always clear the dict bar.
      ASSERT_EQ(encoded->tail()->kind(), ColumnKind::kDict) << ctx;
      for (const char* probe : {"s2", "zzz"}) {
        ExpectSameResult(Select(encoded, Value::MakeStr(probe)),
                         scalar::Select(plain, Value::MakeStr(probe)),
                         ctx + " eq " + probe);
      }
      // In-dict, straddling, and inverted (empty) code ranges.
      ExpectSameResult(SelectRange(encoded, Value::MakeStr("s1"), Value::MakeStr("s3")),
                       scalar::SelectRange(plain, Value::MakeStr("s1"), Value::MakeStr("s3")),
                       ctx + " range");
      ExpectSameResult(SelectRange(encoded, Value::MakeStr("a"), Value::MakeStr("s2")),
                       scalar::SelectRange(plain, Value::MakeStr("a"), Value::MakeStr("s2")),
                       ctx + " range-straddle");
      ExpectSameResult(SelectRange(encoded, Value::MakeStr("s3"), Value::MakeStr("s1")),
                       scalar::SelectRange(plain, Value::MakeStr("s3"), Value::MakeStr("s1")),
                       ctx + " range-inverted");
      // Order-by on codes (sorted dict: code order == lexicographic order).
      ExpectSameResult(Sort(encoded), scalar::Sort(plain), ctx + " sort");
      for (bool desc : {false, true}) {
        ExpectSameResult(TopN(encoded, std::min(n, size_t{64}), desc),
                         scalar::TopN(plain, std::min(n, size_t{64}), desc),
                         ctx + (desc ? " topn-desc" : " topn"));
      }
      // GroupId has no scalar oracle; the plain-column operator is one.
      ExpectSameResult(GroupId(encoded), GroupId(plain), ctx + " groupid");
    }
  }
}

TEST_P(EncodedColumnTest, DictJoinsMatchScalar) {
  for (bool force_scalar : {false, true}) {
    enc::ScopedForceScalar forced(force_scalar);
    Rng rng(GetParam() * 69621ULL + 2 + force_scalar);
    for (size_t n : kSweepSizes) {
      const std::string ctx = std::string("dict-join") +
                              (force_scalar ? " scalar" : " simd") + " n" +
                              std::to_string(n);
      auto plain = RandomBat(ValType::kStr, Shape::kDupHeavy, n, &rng);
      auto other = RandomBat(ValType::kStr, Shape::kDupHeavy,
                             1 + rng.UniformU64(0, 150), &rng);
      auto encoded = EncodeViaWire(plain);
      auto other_enc = EncodeViaWire(other);
      // Same dictionary on both sides: probe codes map 1:1, no lookups.
      ExpectSameResult(Join(encoded, Reverse(encoded)),
                       scalar::Join(plain, Reverse(plain)), ctx + " same-dict");
      // Distinct dictionaries: probe values resolve via binary search.
      ExpectSameResult(Join(encoded, Reverse(other_enc)),
                       scalar::Join(plain, Reverse(other)), ctx + " cross-dict");
      // Mixed: plain probe against a dictionary build side, and vice versa.
      ExpectSameResult(Join(plain, Reverse(other_enc)),
                       scalar::Join(plain, Reverse(other)), ctx + " plain-probe");
      ExpectSameResult(Join(encoded, Reverse(other)),
                       scalar::Join(plain, Reverse(other)), ctx + " plain-build");
      // Membership kernels ride the virtual string accessor.
      ExpectSameResult(SemiJoin(Reverse(encoded), Reverse(other_enc)),
                       scalar::SemiJoin(Reverse(plain), Reverse(other)),
                       ctx + " semijoin");
      ExpectSameResult(KDiff(Reverse(encoded), Reverse(other_enc)),
                       scalar::KDiff(Reverse(plain), Reverse(other)), ctx + " kdiff");
    }
  }
}

TEST_P(EncodedColumnTest, ForDecodedColumnsMatchScalar) {
  // Sorted integer tails cross the wire as FOR; they decode to plain fixed
  // columns with sortedness pre-seeded, so the merge paths engage without a
  // rescan and must still agree with the scalar reference.
  for (bool force_scalar : {false, true}) {
    enc::ScopedForceScalar forced(force_scalar);
    Rng rng(GetParam() * 14142ULL + 2 + force_scalar);
    for (ValType t : {ValType::kOid, ValType::kInt, ValType::kLng, ValType::kDate}) {
      for (size_t n : kSweepSizes) {
        const std::string ctx = std::string("for") + (force_scalar ? " scalar" : " simd") +
                                " " + ValTypeName(t) + " n" + std::to_string(n);
        auto plain = RandomBat(t, Shape::kSorted, n, &rng);
        ASSERT_TRUE(plain->tail()->IsSorted());  // memoize: the FOR trigger
        auto encoded = EncodeViaWire(plain);
        EXPECT_TRUE(encoded->tail()->IsSorted()) << ctx;
        ExpectSameResult(Select(encoded, Value::MakeLng(2)),
                         scalar::Select(plain, Value::MakeLng(2)), ctx + " eq");
        ExpectSameResult(SelectRange(encoded, Value::MakeLng(-5), Value::MakeLng(5)),
                         scalar::SelectRange(plain, Value::MakeLng(-5), Value::MakeLng(5)),
                         ctx + " range");
        auto r = Reverse(RandomBat(t, Shape::kRandom, 1 + rng.UniformU64(0, 150), &rng));
        ExpectSameResult(Join(encoded, r), scalar::Join(plain, r), ctx + " join");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodedColumnTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace dcy::bat
