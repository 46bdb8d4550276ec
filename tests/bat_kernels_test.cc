// Differential tests for the vectorized kernel engine: every hot operator is
// pitted against the retained scalar reference (bat/scalar_reference.h) over
// randomized inputs covering all ValTypes and degenerate shapes (empty,
// duplicate-heavy, sorted), asserting bit-identical results. Plus direct
// kernel unit tests (FlatTable, gather, selection vectors) and round trips
// through the bulk serializer.
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
#include "exec/executor.h"

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

/// Forces the morsel engine on at toy sizes: a 64-row morsel and a 128-row
/// fallback threshold, so inputs straddle the parallel cutoff.
exec::ExecPolicy TinyMorselPolicy(size_t workers) {
  exec::ExecPolicy p;
  p.workers = workers;
  p.morsel_rows = 64;
  p.min_parallel_rows = 128;
  return p;
}

constexpr size_t kParallelWorkerCounts[] = {1, 2, 8};

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
  for (size_t workers : kParallelWorkerCounts) {
    exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
    Rng rng(GetParam() * 2246822519ULL + workers);
    for (Oid s : {Oid{0}, Oid{7}, Oid{1000}}) {
      for (ValType rt : kAllTypes) {
        for (bool dict : {false, true}) {
          if (dict && rt != ValType::kStr) continue;
          // Sizes straddle the 128-row morsel cutoff, so gathers run per morsel.
          const size_t rn = rng.UniformU64(1, 400);
          auto r = DenseHeadedBat(rt, dict, s, rn, &rng);
          auto empty_r = DenseHeadedBat(rt, dict, s, 0, &rng);
          for (ValType lt : kIntegerTypes) {
            for (FetchShape shape : kFetchShapes) {
              if (shape == FetchShape::kDenseTail && lt != ValType::kOid) continue;
              const std::string ctx =
                  "fetch w" + std::to_string(workers) + " s" + std::to_string(s) + " r[" +
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

// ---- parallel kernel differential sweeps -------------------------------------
//
// Re-runs the operator-vs-scalar differential checks with the morsel engine
// forced on: policy workers in {1, 2, 8} with a tiny morsel size and
// fallback threshold so the input sizes straddle the parallel cutoff
// (below it the sequential kernels must run unchanged; at or above it the
// stitched parallel output must stay bit-identical). Floating-point sums
// re-associate per morsel, so those compare to tolerance instead.

// Straddles min_parallel_rows = 128 (and morsel boundaries at 64).
constexpr size_t kStraddleSizes[] = {90, 127, 128, 129, 1000};

class ParallelKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelKernelTest, SelectMatchesScalarAcrossWorkerCounts) {
  for (size_t workers : kParallelWorkerCounts) {
    exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
    Rng rng(GetParam() * 7919ULL + workers);
    for (ValType t : kAllTypes) {
      for (Shape s : kAllShapes) {
        for (size_t n : kStraddleSizes) {
          const std::string ctx = std::string("par-select w") + std::to_string(workers) +
                                  " n" + std::to_string(n) + " " + ValTypeName(t) + " " +
                                  ShapeName(s);
          auto b = RandomBat(t, s, n, &rng);
          Value v = t == ValType::kStr ? Value::MakeStr("s1")
                                       : (t == ValType::kDbl ? Value::MakeDbl(1.5)
                                                             : Value::MakeLng(2));
          ExpectSameResult(Select(b, v), scalar::Select(b, v), ctx);
          if (t == ValType::kStr) {
            ExpectSameResult(SelectRange(b, Value::MakeStr("s1"), Value::MakeStr("s7")),
                             scalar::SelectRange(b, Value::MakeStr("s1"), Value::MakeStr("s7")),
                             ctx);
          } else {
            ExpectSameResult(SelectRange(b, Value::MakeLng(-5), Value::MakeLng(5)),
                             scalar::SelectRange(b, Value::MakeLng(-5), Value::MakeLng(5)),
                             ctx);
            ExpectSameResult(
                SelectRange(b, Value::MakeDbl(-2.5), Value::MakeLng(3)),
                scalar::SelectRange(b, Value::MakeDbl(-2.5), Value::MakeLng(3)), ctx);
          }
        }
      }
    }
  }
}

TEST_P(ParallelKernelTest, JoinAndMembershipMatchScalarAcrossWorkerCounts) {
  for (size_t workers : kParallelWorkerCounts) {
    exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
    Rng rng(GetParam() * 2718281ULL + workers);
    for (ValType t : kAllTypes) {
      for (Shape s : kAllShapes) {
        for (size_t n : kStraddleSizes) {
          const std::string ctx = std::string("par-join w") + std::to_string(workers) +
                                  " n" + std::to_string(n) + " " + ValTypeName(t) + " " +
                                  ShapeName(s);
          // Hash join: probe side `n` rows straddles the parallel cutoff.
          auto l = RandomBat(t, s, n, &rng);
          auto r = Reverse(RandomBat(t, s, 1 + rng.UniformU64(0, 150), &rng));
          ExpectSameResult(Join(l, r), scalar::Join(l, r), ctx + " hash");
          // Membership probes (semijoin / kdiff) over the same shapes.
          auto lh = Reverse(l);
          auto rh = Reverse(RandomBat(t, s, 1 + rng.UniformU64(0, 150), &rng));
          ExpectSameResult(SemiJoin(lh, rh), scalar::SemiJoin(lh, rh), ctx + " semijoin");
          ExpectSameResult(KDiff(lh, rh), scalar::KDiff(lh, rh), ctx + " kdiff");
        }
      }
    }
  }
}

TEST_P(ParallelKernelTest, SortAndTopNMatchScalarAcrossWorkerCounts) {
  for (size_t workers : kParallelWorkerCounts) {
    exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
    Rng rng(GetParam() * 16807ULL + workers);
    for (ValType t : kAllTypes) {
      for (Shape s : kAllShapes) {
        for (size_t n : kStraddleSizes) {
          const std::string ctx = std::string("par-sort w") + std::to_string(workers) +
                                  " n" + std::to_string(n) + " " + ValTypeName(t) + " " +
                                  ShapeName(s);
          auto b = RandomBat(t, s, n, &rng);
          // Morsel sorts + loser-tree merge must reproduce the stable order
          // exactly, dup-heavy shapes included.
          ExpectSameResult(Sort(b), scalar::Sort(b), ctx);
          // TopN k values straddle the morsel size (64) and the total
          // (k = 0 regression: must not touch the parallel heap path).
          for (size_t k : {size_t{0}, size_t{1}, size_t{64}, n}) {
            for (bool desc : {false, true}) {
              ExpectSameResult(TopN(b, k, desc), scalar::TopN(b, k, desc),
                               ctx + " k" + std::to_string(k) + (desc ? " desc" : ""));
            }
          }
        }
      }
    }
  }
}

TEST_P(ParallelKernelTest, PartitionedBuildMatchesScalarAcrossWorkerCounts) {
  // The radix-partitioned hash build engages when the BUILD side crosses
  // min_parallel_rows (the probe sweeps above straddle the probe side);
  // dup-heavy builds exercise the cross-partition duplicate chains.
  for (size_t workers : kParallelWorkerCounts) {
    exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
    Rng rng(GetParam() * 1664525ULL + workers);
    for (ValType t : kAllTypes) {
      for (Shape s : {Shape::kRandom, Shape::kDupHeavy}) {
        for (size_t build_n : kStraddleSizes) {
          const std::string ctx = std::string("par-build w") + std::to_string(workers) +
                                  " build_n" + std::to_string(build_n) + " " +
                                  ValTypeName(t) + " " + ShapeName(s);
          auto l = RandomBat(t, s, 1 + rng.UniformU64(0, 300), &rng);
          auto r = Reverse(RandomBat(t, s, build_n, &rng));
          ExpectSameResult(Join(l, r), scalar::Join(l, r), ctx + " join");
          auto lh = Reverse(RandomBat(t, s, 1 + rng.UniformU64(0, 300), &rng));
          auto rh = Reverse(RandomBat(t, s, build_n, &rng));
          ExpectSameResult(SemiJoin(lh, rh), scalar::SemiJoin(lh, rh), ctx + " semijoin");
          ExpectSameResult(KDiff(lh, rh), scalar::KDiff(lh, rh), ctx + " kdiff");
        }
      }
    }
  }
}

TEST_P(ParallelKernelTest, StringGatherTwoPassMatchesSequential) {
  Rng rng(GetParam() * 22695477ULL + 3);
  // Strings of varying length (empties included) gathered with repeats and
  // back-references; sizes straddle the parallel cutoff.
  std::vector<std::string> pool;
  for (int i = 0; i < 40; ++i) {
    pool.push_back(std::string(static_cast<size_t>(rng.UniformInt(0, 12)),
                               static_cast<char>('a' + (i % 26))));
  }
  for (size_t n : kStraddleSizes) {
    std::vector<std::string> src_rows;
    for (size_t i = 0; i < n; ++i) {
      src_rows.push_back(pool[static_cast<size_t>(rng.UniformInt(0, 39))]);
    }
    auto src = MakeStrColumn(src_rows);
    SelVec idx(n);
    for (auto& x : idx) x = static_cast<uint32_t>(rng.UniformU64(0, n - 1));
    // Oracle: the order-carrying sequential heap append.
    ColumnBuilder seq(ValType::kStr);
    seq.AppendGather(*src, idx.data(), idx.size());
    auto want = seq.Finish();
    for (size_t workers : kParallelWorkerCounts) {
      exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
      auto got = kernels::Gather(*src, idx.data(), idx.size());
      const std::string ctx =
          "str-gather w" + std::to_string(workers) + " n" + std::to_string(n);
      ASSERT_EQ(got->size(), want->size()) << ctx;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got->GetString(i), want->GetString(i)) << ctx << " row " << i;
      }
      // Bit-identical heaps, not just equal views.
      const auto& gs = static_cast<const StrColumn&>(*got);
      const auto& ws = static_cast<const StrColumn&>(*want);
      EXPECT_EQ(gs.heap(), ws.heap()) << ctx;
      EXPECT_EQ(gs.offsets(), ws.offsets()) << ctx;
    }
  }
}

TEST(ParallelKernelTest, PartitionedTableMatchesFlatTableAndChainsAscend) {
  exec::ScopedExecPolicy scoped(TinyMorselPolicy(8));
  Rng rng(99);
  // Above the 128-row cutoff with a sparse domain: partitioned open
  // addressing. Duplicate-heavy so chains cross morsel boundaries.
  std::vector<int64_t> keys(1000);
  for (auto& k : keys) k = rng.UniformInt(-20, 20) * 1000000007LL;
  kernels::PartitionedTable pt(keys.data(), keys.size());
  EXPECT_TRUE(pt.is_partitioned());
  kernels::FlatTable ft(keys);
  for (int64_t probe = -25; probe <= 25; ++probe) {
    const int64_t key = probe * 1000000007LL;
    std::vector<uint32_t> want, got;
    for (uint32_t r = ft.Find(key); r != kernels::FlatTable::kNone; r = ft.Next(r)) {
      want.push_back(r);
    }
    for (uint32_t r = pt.Find(key); r != kernels::PartitionedTable::kNone;
         r = pt.Next(r)) {
      got.push_back(r);
    }
    EXPECT_EQ(got, want) << "key " << key;
    for (size_t i = 1; i < got.size(); ++i) EXPECT_LT(got[i - 1], got[i]);
    EXPECT_EQ(pt.Contains(key), ft.Contains(key));
  }
}

TEST(ParallelKernelTest, PartitionedTableFallsBackToSingleBelowThreshold) {
  exec::ScopedExecPolicy scoped(TinyMorselPolicy(8));
  std::vector<int64_t> keys = {5, 3, 5, 9};  // below min_parallel_rows = 128
  kernels::PartitionedTable t(keys.data(), keys.size());
  EXPECT_FALSE(t.is_partitioned());
  EXPECT_EQ(t.partitions(), 1u);
  std::vector<uint32_t> rows;
  for (uint32_t r = t.Find(5); r != kernels::PartitionedTable::kNone; r = t.Next(r)) {
    rows.push_back(r);
  }
  EXPECT_EQ(rows, (std::vector<uint32_t>{0, 2}));
  EXPECT_FALSE(t.Contains(4));
}

TEST(ParallelKernelTest, ParallelOperatorsSpawnNoThreads) {
  // Same contract runtime_test asserts for whole plans: steady-state kernel
  // traffic executes on the shared pool — zero threads created per call.
  exec::Executor::Default().workers();  // force pool construction
  exec::ScopedExecPolicy scoped(TinyMorselPolicy(8));
  Rng rng(7);
  auto b = RandomBat(ValType::kLng, Shape::kDupHeavy, 1000, &rng);
  auto strs = RandomBat(ValType::kStr, Shape::kRandom, 1000, &rng);
  auto build = Reverse(RandomBat(ValType::kLng, Shape::kDupHeavy, 1000, &rng));
  const auto before = exec::Executor::Default().metrics();
  ASSERT_TRUE(Sort(b).ok());
  ASSERT_TRUE(TopN(b, 10, true).ok());
  ASSERT_TRUE(Join(b, build).ok());
  ASSERT_TRUE(Sort(strs).ok());
  const auto after = exec::Executor::Default().metrics();
  EXPECT_EQ(after.threads_created, before.threads_created);
  // (No assertion on tasks_executed: ParallelFor's caller participates, so
  // on a small pool it may drain every morsel before a helper task runs —
  // the helpers can still be queued when the operator returns.)
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
  kernels::FlatTable empty;
  EXPECT_EQ(empty.Find(0), kernels::FlatTable::kNone);
  EXPECT_FALSE(empty.Contains(7));
}

TEST_P(ParallelKernelTest, AggregatesMatchSequentialAcrossWorkerCounts) {
  Rng rng(GetParam() * 6700417ULL + 5);
  for (ValType t : {ValType::kInt, ValType::kLng, ValType::kOid, ValType::kDbl}) {
    for (size_t n : kStraddleSizes) {
      auto b = RandomBat(t, Shape::kRandom, n, &rng);
      constexpr size_t kGroups = 17;
      std::vector<int32_t> gid_rows(b->size());
      for (auto& g : gid_rows) {
        g = static_cast<int32_t>(rng.UniformInt(0, kGroups - 1));
      }
      auto gids = Bat::MakeColumn(MakeIntColumn(std::move(gid_rows)));

      // Oracle: the sequential path (workers = 1 forces it).
      exec::ScopedExecPolicy seq(TinyMorselPolicy(1));
      const auto sum_seq = Sum(b);
      const auto avg_seq = Avg(b);
      const auto per_group_seq = SumPerGroup(b, gids, kGroups);
      const auto counts_seq = CountPerGroup(gids, kGroups);

      for (size_t workers : {size_t{2}, size_t{8}}) {
        exec::ScopedExecPolicy par(TinyMorselPolicy(workers));
        const std::string ctx = std::string("par-agg w") + std::to_string(workers) +
                                " n" + std::to_string(n) + " " + ValTypeName(t);
        const auto sum_par = Sum(b);
        ASSERT_EQ(sum_par.ok(), sum_seq.ok()) << ctx;
        if (sum_seq.ok()) {
          if (t == ValType::kDbl) {
            // Morsel partials re-associate the FP sum; tolerance, not bits.
            EXPECT_NEAR(sum_par->AsDouble(), sum_seq->AsDouble(),
                        1e-9 * (1.0 + std::abs(sum_seq->AsDouble())))
                << ctx;
          } else {
            EXPECT_EQ(sum_par->AsInt64(), sum_seq->AsInt64()) << ctx;  // exact
          }
        }
        const auto avg_par = Avg(b);
        ASSERT_EQ(avg_par.ok(), avg_seq.ok()) << ctx;
        if (avg_seq.ok()) {
          EXPECT_NEAR(avg_par->AsDouble(), avg_seq->AsDouble(),
                      1e-9 * (1.0 + std::abs(avg_seq->AsDouble())))
              << ctx;
        }
        const auto per_group_par = SumPerGroup(b, gids, kGroups);
        ASSERT_EQ(per_group_par.ok(), per_group_seq.ok()) << ctx;
        if (per_group_seq.ok()) {
          ASSERT_EQ((*per_group_par)->size(), (*per_group_seq)->size()) << ctx;
          for (size_t g = 0; g < kGroups; ++g) {
            const double want = (*per_group_seq)->tail()->GetDouble(g);
            EXPECT_NEAR((*per_group_par)->tail()->GetDouble(g), want,
                        1e-9 * (1.0 + std::abs(want)))
                << ctx << " group " << g;
          }
        }
        const auto counts_par = CountPerGroup(gids, kGroups);
        ASSERT_TRUE(counts_par.ok() && counts_seq.ok()) << ctx;
        ExpectSameBat(*counts_par, *counts_seq, ctx + " counts");
      }
    }
  }
}

TEST(ParallelKernelTest, GroupedAggregateRejectsOutOfRangeGidsInParallel) {
  exec::ScopedExecPolicy scoped(TinyMorselPolicy(8));
  std::vector<int32_t> gids_rows(1000, 0);
  gids_rows[700] = 99;  // out of range, discovered mid-morsel
  auto values = Bat::MakeColumn(MakeIntColumn(std::vector<int32_t>(1000, 1)));
  auto gids = Bat::MakeColumn(MakeIntColumn(std::move(gids_rows)));
  EXPECT_EQ(SumPerGroup(values, gids, 4).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(CountPerGroup(gids, 4).status().code(), StatusCode::kOutOfRange);
}

TEST(ParallelKernelTest, StitchSelVecsPreservesOrderAndAppends) {
  SelVec sel = {7};
  std::vector<SelVec> parts = {{1, 2}, {}, {3}, {4, 5, 6}};
  EXPECT_EQ(kernels::StitchSelVecs(parts, &sel), 6u);
  EXPECT_EQ(sel, (SelVec{7, 1, 2, 3, 4, 5, 6}));
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
// plain twin of the same data — across worker counts and with the SIMD
// dispatch forced off, so the scalar fallbacks get the same sweep.

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
  for (size_t workers : kParallelWorkerCounts) {
    exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
    for (bool force_scalar : {false, true}) {
      enc::ScopedForceScalar forced(force_scalar);
      Rng rng(GetParam() * 48271ULL + workers * 2 + force_scalar);
      for (size_t n : kStraddleSizes) {
        const std::string ctx = std::string("dict w") + std::to_string(workers) +
                                (force_scalar ? " scalar" : " simd") + " n" +
                                std::to_string(n);
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
}

TEST_P(EncodedColumnTest, DictJoinsMatchScalar) {
  for (size_t workers : kParallelWorkerCounts) {
    exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
    for (bool force_scalar : {false, true}) {
      enc::ScopedForceScalar forced(force_scalar);
      Rng rng(GetParam() * 69621ULL + workers * 2 + force_scalar);
      for (size_t n : kStraddleSizes) {
        const std::string ctx = std::string("dict-join w") + std::to_string(workers) +
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
}

TEST_P(EncodedColumnTest, ForDecodedColumnsMatchScalar) {
  // Sorted integer tails cross the wire as FOR; they decode to plain fixed
  // columns with sortedness pre-seeded, so the merge paths engage without a
  // rescan and must still agree with the scalar reference.
  for (size_t workers : kParallelWorkerCounts) {
    exec::ScopedExecPolicy scoped(TinyMorselPolicy(workers));
    for (bool force_scalar : {false, true}) {
      enc::ScopedForceScalar forced(force_scalar);
      Rng rng(GetParam() * 14142ULL + workers * 2 + force_scalar);
      for (ValType t : {ValType::kOid, ValType::kInt, ValType::kLng, ValType::kDate}) {
        for (size_t n : kStraddleSizes) {
          const std::string ctx = std::string("for w") + std::to_string(workers) +
                                  (force_scalar ? " scalar" : " simd") + " " +
                                  ValTypeName(t) + " n" + std::to_string(n);
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
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodedColumnTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace dcy::bat
