// Unit + property tests for the BAT engine: columns, properties, the
// algebra operators, and serialization round-trips.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "bat/bat.h"
#include "bat/operators.h"
#include "bat/serialize.h"
#include "common/random.h"

namespace dcy::bat {
namespace {

BatPtr IntBat(std::vector<int32_t> tail, Oid seqbase = 0) {
  return Bat::MakeColumn(MakeIntColumn(std::move(tail)), seqbase);
}

TEST(ColumnTest, FixedColumnsRoundTrip) {
  auto c = MakeLngColumn({10, -20, 30});
  EXPECT_EQ(c->type(), ValType::kLng);
  EXPECT_EQ(c->size(), 3u);
  EXPECT_EQ(c->GetInt64(1), -20);
  EXPECT_DOUBLE_EQ(c->GetDouble(2), 30.0);
  EXPECT_EQ(c->ByteSize(), 24u);
}

TEST(ColumnTest, DenseOidIsVirtual) {
  auto c = MakeDenseOid(100, 5);
  EXPECT_EQ(c->GetInt64(0), 100);
  EXPECT_EQ(c->GetInt64(4), 104);
  EXPECT_EQ(c->ByteSize(), 0u);  // no materialized storage
  EXPECT_TRUE(c->IsSorted());
}

TEST(ColumnTest, IsSortedIsMemoizedAndAppendsGetFreshCaches) {
  // The O(n) sortedness scan runs once per column and is cached; columns
  // are immutable, so the cache can never go stale.
  auto sorted = MakeLngColumn({1, 2, 2, 3});
  EXPECT_FALSE(sorted->SortednessKnown());
  EXPECT_TRUE(sorted->IsSorted());
  EXPECT_TRUE(sorted->SortednessKnown());
  EXPECT_TRUE(sorted->IsSorted());  // served from the cache

  auto unsorted = MakeLngColumn({3, 1, 2});
  EXPECT_FALSE(unsorted->IsSorted());
  EXPECT_TRUE(unsorted->SortednessKnown());
  EXPECT_FALSE(unsorted->IsSorted());

  // Regression: appending happens through a builder, and a builder reused
  // after Finish produces a *new* column whose cache starts unknown — the
  // sorted verdict of a prefix must never leak into the appended column.
  ColumnBuilder b(ValType::kLng);
  b.AppendInt64(1);
  b.AppendInt64(2);
  auto first = b.Finish();
  EXPECT_TRUE(first->IsSorted());
  b.AppendInt64(5);
  b.AppendInt64(4);  // appended rows break sortedness
  auto second = b.Finish();
  EXPECT_FALSE(second->SortednessKnown());
  EXPECT_FALSE(second->IsSorted());
  EXPECT_TRUE(first->IsSorted());  // the finished column is unaffected

  // Degenerate shapes: empty and single-row columns are trivially sorted.
  EXPECT_TRUE(MakeLngColumn({})->IsSorted());
  EXPECT_TRUE(MakeLngColumn({7})->IsSorted());
  auto strs = MakeStrColumn({"a", "b", "b"});
  EXPECT_TRUE(strs->IsSorted());
  EXPECT_TRUE(strs->SortednessKnown());
}

TEST(ColumnTest, StringColumn) {
  auto c = MakeStrColumn({"alpha", "", "gamma"});
  EXPECT_EQ(c->size(), 3u);
  EXPECT_EQ(c->GetString(0), "alpha");
  EXPECT_EQ(c->GetString(1), "");
  EXPECT_EQ(c->GetString(2), "gamma");
}

TEST(ColumnTest, BuilderMatchesConstructors) {
  ColumnBuilder b(ValType::kDbl);
  b.AppendDouble(1.5);
  b.AppendDouble(-2.5);
  auto c = b.Finish();
  EXPECT_EQ(c->size(), 2u);
  EXPECT_DOUBLE_EQ(c->GetDouble(1), -2.5);
}

TEST(ColumnTest, CompareRowsAcrossTypes) {
  auto a = MakeIntColumn({1, 5});
  auto d = MakeDblColumn({2.5});
  EXPECT_LT(CompareRows(*a, 0, *d, 0), 0);
  EXPECT_GT(CompareRows(*a, 1, *d, 0), 0);
  auto s1 = MakeStrColumn({"abc"});
  auto s2 = MakeStrColumn({"abd"});
  EXPECT_LT(CompareRows(*s1, 0, *s2, 0), 0);
}

TEST(BatTest, MakeColumnHasDenseHead) {
  auto b = IntBat({7, 8, 9}, 100);
  EXPECT_TRUE(b->HasDenseHead());
  EXPECT_EQ(b->HeadSeqbase(), 100u);
  EXPECT_TRUE(b->props().hsorted);
  EXPECT_TRUE(b->props().hkey);
  EXPECT_EQ(b->size(), 3u);
}

TEST(BatTest, SizeMismatchIsFatal) {
  EXPECT_DEATH(Bat(MakeDenseOid(0, 3), MakeIntColumn({1})), "mismatch");
}

TEST(BatTest, ScanProperties) {
  auto sorted = IntBat({1, 2, 2, 3});
  auto p = Bat::ScanProperties(*sorted->head(), *sorted->tail());
  EXPECT_TRUE(p.tsorted);
  EXPECT_FALSE(p.tkey);  // duplicate 2
  auto keyed = IntBat({1, 2, 3});
  p = Bat::ScanProperties(*keyed->head(), *keyed->tail());
  EXPECT_TRUE(p.tkey);
}

TEST(OperatorTest, ReverseSwapsColumns) {
  auto b = IntBat({5, 6, 7});
  auto r = Reverse(b);
  EXPECT_EQ(r->head_type(), ValType::kInt);
  EXPECT_EQ(r->tail_type(), ValType::kOid);
  EXPECT_EQ(r->head()->GetInt64(1), 6);
  EXPECT_EQ(r->tail()->GetInt64(1), 1);
  // Double reverse is identity.
  auto rr = Reverse(r);
  EXPECT_EQ(rr->head().get(), b->head().get());
  EXPECT_EQ(rr->tail().get(), b->tail().get());
}

TEST(OperatorTest, MarkTProducesDenseTail) {
  auto b = IntBat({5, 6, 7});
  auto m = MarkT(b, 100);
  EXPECT_EQ(m->head().get(), b->head().get());
  EXPECT_EQ(m->tail()->GetInt64(0), 100);
  EXPECT_EQ(m->tail()->GetInt64(2), 102);
  EXPECT_TRUE(m->props().tkey);
}

TEST(OperatorTest, HashJoinMatchesTailToHead) {
  // l: [oid, int id], r: [int id, str name]
  auto l = IntBat({10, 20, 30});
  auto r = std::make_shared<Bat>(MakeIntColumn({20, 30, 40}),
                                 MakeStrColumn({"b", "c", "d"}));
  auto out = Join(l, BatPtr(r));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ((*out)->size(), 2u);
  EXPECT_EQ((*out)->head()->GetInt64(0), 1);  // oid of l row with tail 20
  EXPECT_EQ((*out)->tail()->GetString(0), "b");
  EXPECT_EQ((*out)->head()->GetInt64(1), 2);
  EXPECT_EQ((*out)->tail()->GetString(1), "c");
}

TEST(OperatorTest, JoinEmitsAllPairsOnDuplicates) {
  auto l = IntBat({1, 1});
  auto r = std::make_shared<Bat>(MakeIntColumn({1, 1}), MakeLngColumn({100, 200}));
  auto out = Join(l, BatPtr(r));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->size(), 4u);  // 2 x 2 cross product of the match group
}

TEST(OperatorTest, MergeAndHashJoinAgree) {
  Rng rng(21);
  // Sorted inputs trigger the merge path; scrambled ones the hash path.
  std::vector<int32_t> keys_l, keys_r;
  for (int i = 0; i < 200; ++i) keys_l.push_back(static_cast<int32_t>(rng.UniformInt(0, 50)));
  for (int i = 0; i < 100; ++i) keys_r.push_back(static_cast<int32_t>(rng.UniformInt(0, 50)));
  std::sort(keys_l.begin(), keys_l.end());
  std::sort(keys_r.begin(), keys_r.end());

  auto l_sorted = std::make_shared<Bat>(MakeDenseOid(0, keys_l.size()),
                                        MakeIntColumn(std::vector<int32_t>(keys_l)));
  auto lp = Bat::ScanProperties(*l_sorted->head(), *l_sorted->tail());
  auto l1 = std::make_shared<Bat>(l_sorted->head(), l_sorted->tail(), lp);

  auto r_sorted = std::make_shared<Bat>(MakeIntColumn(std::vector<int32_t>(keys_r)),
                                        MakeDenseOid(1000, keys_r.size()));
  auto rp = Bat::ScanProperties(*r_sorted->head(), *r_sorted->tail());
  auto r1 = std::make_shared<Bat>(r_sorted->head(), r_sorted->tail(), rp);

  ASSERT_TRUE(l1->props().tsorted && r1->props().hsorted);  // merge path
  auto merged = Join(BatPtr(l1), BatPtr(r1));
  ASSERT_TRUE(merged.ok());

  // Same data without the sorted flags => hash path.
  auto l2 = std::make_shared<Bat>(l_sorted->head(), l_sorted->tail());
  auto r2 = std::make_shared<Bat>(r_sorted->head(), r_sorted->tail());
  auto hashed = Join(BatPtr(l2), BatPtr(r2));
  ASSERT_TRUE(hashed.ok());

  ASSERT_EQ((*merged)->size(), (*hashed)->size());
  // Compare as multisets of (head, tail) pairs.
  std::multiset<std::pair<int64_t, int64_t>> a, b;
  for (size_t i = 0; i < (*merged)->size(); ++i) {
    a.emplace((*merged)->head()->GetInt64(i), (*merged)->tail()->GetInt64(i));
    b.emplace((*hashed)->head()->GetInt64(i), (*hashed)->tail()->GetInt64(i));
  }
  EXPECT_EQ(a, b);
}

TEST(OperatorTest, JoinTypeMismatchFails) {
  auto l = std::make_shared<Bat>(MakeDenseOid(0, 1), MakeStrColumn({"x"}));
  auto r = IntBat({1});
  EXPECT_FALSE(Join(BatPtr(l), r).ok());
}

TEST(OperatorTest, SelectAndRange) {
  auto b = IntBat({5, 3, 9, 3, 7});
  auto eq = Select(b, Value::MakeInt(3));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ((*eq)->size(), 2u);
  EXPECT_EQ((*eq)->head()->GetInt64(0), 1);
  EXPECT_EQ((*eq)->head()->GetInt64(1), 3);

  auto range = SelectRange(b, Value::MakeInt(4), Value::MakeInt(8));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ((*range)->size(), 2u);  // 5 and 7
}

TEST(OperatorTest, USelectDropsTail) {
  auto b = IntBat({5, 3, 5});
  auto u = USelect(b, Value::MakeInt(5));
  ASSERT_TRUE(u.ok());
  EXPECT_EQ((*u)->size(), 2u);
  EXPECT_EQ((*u)->tail_type(), ValType::kOid);
}

TEST(OperatorTest, SemiJoinKDiffPartitionTheRows) {
  auto l = IntBat({1, 2, 3, 4}, 0);  // heads 0..3
  auto r = std::make_shared<Bat>(MakeOidColumn({1, 3}), MakeDenseOid(0, 2));
  auto in = SemiJoin(l, BatPtr(r));
  auto out = KDiff(l, BatPtr(r));
  ASSERT_TRUE(in.ok() && out.ok());
  EXPECT_EQ((*in)->size() + (*out)->size(), l->size());
  EXPECT_EQ((*in)->head()->GetInt64(0), 1);
  EXPECT_EQ((*out)->head()->GetInt64(0), 0);
}

TEST(OperatorTest, KUnionDeduplicatesByHead) {
  auto l = std::make_shared<Bat>(MakeOidColumn({0, 1}), MakeIntColumn({10, 11}));
  auto r = std::make_shared<Bat>(MakeOidColumn({1, 2}), MakeIntColumn({99, 12}));
  auto u = KUnion(BatPtr(l), BatPtr(r));
  ASSERT_TRUE(u.ok());
  EXPECT_EQ((*u)->size(), 3u);
  EXPECT_EQ((*u)->tail()->GetInt64(1), 11);  // l wins on head 1
  EXPECT_EQ((*u)->tail()->GetInt64(2), 12);
}

TEST(OperatorTest, GroupAndAggregate) {
  auto b = IntBat({5, 3, 5, 3, 5});
  auto gids = GroupId(b);
  ASSERT_TRUE(gids.ok());
  EXPECT_EQ((*gids)->tail()->GetInt64(0), 0);  // first value => group 0
  EXPECT_EQ((*gids)->tail()->GetInt64(1), 1);
  EXPECT_EQ((*gids)->tail()->GetInt64(2), 0);

  auto values = GroupValues(b);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ((*values)->size(), 2u);
  EXPECT_EQ((*values)->tail()->GetInt64(0), 5);
  EXPECT_EQ((*values)->tail()->GetInt64(1), 3);

  auto sums = SumPerGroup(b, *gids, 2);
  ASSERT_TRUE(sums.ok());
  EXPECT_DOUBLE_EQ((*sums)->tail()->GetDouble(0), 15.0);  // 5+5+5
  EXPECT_DOUBLE_EQ((*sums)->tail()->GetDouble(1), 6.0);   // 3+3

  auto counts = CountPerGroup(*gids, 2);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)->tail()->GetInt64(0), 3);
  EXPECT_EQ((*counts)->tail()->GetInt64(1), 2);
}

TEST(OperatorTest, ScalarAggregates) {
  auto b = IntBat({4, 1, 3});
  EXPECT_EQ(Count(b), 3u);
  EXPECT_EQ(Sum(b)->AsInt64(), 8);
  EXPECT_EQ(Min(b)->AsInt64(), 1);
  EXPECT_EQ(Max(b)->AsInt64(), 4);
  EXPECT_DOUBLE_EQ(Avg(b)->AsDouble(), 8.0 / 3.0);
  auto s = std::make_shared<Bat>(MakeDenseOid(0, 1), MakeStrColumn({"x"}));
  EXPECT_FALSE(Sum(BatPtr(s)).ok());
  EXPECT_FALSE(Min(IntBat({})).ok());  // empty
}

TEST(OperatorTest, SortAndTopN) {
  auto b = IntBat({4, 1, 3, 2});
  auto sorted = Sort(b);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE((*sorted)->props().tsorted);
  for (size_t i = 1; i < (*sorted)->size(); ++i) {
    EXPECT_LE((*sorted)->tail()->GetInt64(i - 1), (*sorted)->tail()->GetInt64(i));
  }
  auto top2 = TopN(b, 2, /*descending=*/true);
  ASSERT_TRUE(top2.ok());
  EXPECT_EQ((*top2)->tail()->GetInt64(0), 4);
  EXPECT_EQ((*top2)->tail()->GetInt64(1), 3);
  EXPECT_EQ((*TopN(b, 99, true))->size(), 4u);  // n > size clamps
}

TEST(OperatorTest, ArithAlignedAndConst) {
  auto a = IntBat({1, 2, 3});
  auto b = IntBat({10, 20, 30});
  auto sum = Arith(a, b, ArithOp::kAdd);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ((*sum)->tail()->GetDouble(2), 33.0);
  auto scaled = ArithConst(a, Value::MakeDbl(0.5), ArithOp::kMul);
  ASSERT_TRUE(scaled.ok());
  EXPECT_DOUBLE_EQ((*scaled)->tail()->GetDouble(1), 1.0);
  EXPECT_FALSE(Arith(a, IntBat({1}), ArithOp::kAdd).ok());       // size mismatch
  EXPECT_FALSE(ArithConst(a, Value::MakeInt(0), ArithOp::kDiv).ok());  // div by zero
}

TEST(OperatorTest, SliceBounds) {
  auto b = IntBat({1, 2, 3, 4});
  auto s = Slice(b, 1, 3);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->size(), 2u);
  EXPECT_EQ((*s)->tail()->GetInt64(0), 2);
  EXPECT_FALSE(Slice(b, 3, 2).ok());
  EXPECT_FALSE(Slice(b, 0, 5).ok());
}

// Property sweep: join result size equals the sum over keys of
// count_l(key) * count_r(key), for random inputs.
class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPropertyTest, SizeMatchesKeyHistogramProduct) {
  Rng rng(GetParam());
  std::vector<int32_t> lk, rk;
  const int n = 1 + static_cast<int>(rng.UniformInt(0, 300));
  const int m = 1 + static_cast<int>(rng.UniformInt(0, 300));
  const int domain = 1 + static_cast<int>(rng.UniformInt(0, 40));
  for (int i = 0; i < n; ++i) lk.push_back(static_cast<int32_t>(rng.UniformInt(0, domain)));
  for (int i = 0; i < m; ++i) rk.push_back(static_cast<int32_t>(rng.UniformInt(0, domain)));

  std::map<int32_t, size_t> lh, rh;
  for (int32_t k : lk) ++lh[k];
  for (int32_t k : rk) ++rh[k];
  size_t expected = 0;
  for (const auto& [k, c] : lh) {
    auto it = rh.find(k);
    if (it != rh.end()) expected += c * it->second;
  }

  auto l = IntBat(std::move(lk));
  auto r = std::make_shared<Bat>(MakeIntColumn(std::move(rk)), MakeDenseOid(0, m));
  auto out = Join(l, BatPtr(r));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Property sweep: serialization round-trips preserve every row and the
// properties byte.
class SerializePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializePropertyTest, RoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const int n = static_cast<int>(rng.UniformInt(0, 200));
  BatPtr original;
  switch (GetParam() % 4) {
    case 0: {  // dense head + int tail
      std::vector<int32_t> v;
      for (int i = 0; i < n; ++i) v.push_back(static_cast<int32_t>(rng.UniformInt(-100, 100)));
      original = IntBat(std::move(v), rng.UniformU64(0, 1000));
      break;
    }
    case 1: {  // materialized oid head + dbl tail
      std::vector<Oid> h;
      std::vector<double> t;
      for (int i = 0; i < n; ++i) {
        h.push_back(rng.UniformU64(0, 1000));
        t.push_back(rng.UniformDouble(-1e6, 1e6));
      }
      original = std::make_shared<Bat>(MakeOidColumn(std::move(h)),
                                       MakeDblColumn(std::move(t)));
      break;
    }
    case 2: {  // str tail
      std::vector<std::string> t;
      for (int i = 0; i < n; ++i) {
        t.push_back(std::string(static_cast<size_t>(rng.UniformInt(0, 12)), 'a' + i % 26));
      }
      original = Bat::MakeColumn(MakeStrColumn(t));
      break;
    }
    default: {  // lng tail with properties
      std::vector<int64_t> t;
      for (int i = 0; i < n; ++i) t.push_back(i);
      const size_t rows = t.size();  // t is moved below; size first
      Bat::Properties p;
      p.tsorted = p.tkey = p.hsorted = p.hkey = true;
      original = std::make_shared<Bat>(MakeDenseOid(0, rows),
                                       MakeLngColumn(std::move(t)), p);
      break;
    }
  }

  const std::string wire = Serialize(*original);
  auto restored = Deserialize(wire);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ((*restored)->size(), original->size());
  EXPECT_EQ((*restored)->props().tsorted, original->props().tsorted);
  EXPECT_EQ((*restored)->props().hkey, original->props().hkey);
  for (size_t i = 0; i < original->size(); ++i) {
    EXPECT_TRUE((*restored)->head()->GetValue(i) == original->head()->GetValue(i));
    EXPECT_TRUE((*restored)->tail()->GetValue(i) == original->tail()->GetValue(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, SerializePropertyTest, ::testing::Range(0, 12));

TEST(SerializeTest, DetectsCorruption) {
  auto b = IntBat({1, 2, 3});
  std::string wire = Serialize(*b);
  wire[10] ^= 0x5A;
  EXPECT_TRUE(Deserialize(wire).status().code() == StatusCode::kCorruption);
  EXPECT_TRUE(Deserialize("short").status().code() == StatusCode::kCorruption);
}

TEST(SerializeTest, Crc32KnownVector) {
  // CRC32("123456789") == 0xCBF43926 (IEEE reference value).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

/// Bit-at-a-time CRC-32 from the reflected IEEE polynomial: the register
/// after `n` more bytes, neither inverted on entry nor on exit.
uint32_t BitwiseCrc32Update(uint32_t reg, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    reg ^= p[i];
    for (int k = 0; k < 8; ++k) reg = (reg >> 1) ^ (0xEDB88320u & (0u - (reg & 1)));
  }
  return reg;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

TEST(SerializeTest, Crc32MatchesBitwiseReference) {
  // The known vector is 9 bytes and never reaches the carry-less-multiply
  // fold, and a round trip that hashes at one alignment cannot catch a
  // wrong fold constant because writer and reader share the kernel. Every
  // length 0-2048 from every 16-byte alignment covers the unaligned head,
  // the fold with one to many 64-byte steps, the 16-byte steps and the
  // tail; the two large buffers cover long runs of the four-lane loop.
  const std::vector<uint8_t> data = RandomBytes(2048, 19);
  std::vector<uint32_t> expect(data.size() + 1);
  uint32_t reg = 0xFFFFFFFFu;
  for (size_t n = 0; n <= data.size(); ++n) {
    if (n > 0) reg = BitwiseCrc32Update(reg, &data[n - 1], 1);
    expect[n] = reg ^ 0xFFFFFFFFu;
  }
  std::vector<std::pair<std::vector<uint8_t>, uint32_t>> large;
  for (size_t n : {(size_t{1} << 20) + 7, (size_t{4} << 20) + 13}) {
    std::vector<uint8_t> bytes = RandomBytes(n, n);
    const uint32_t crc = BitwiseCrc32Update(0xFFFFFFFFu, bytes.data(), n) ^ 0xFFFFFFFFu;
    large.emplace_back(std::move(bytes), crc);
  }

  std::vector<uint8_t> buf(data.size() + 32);
  uint8_t* aligned = buf.data() + ((0 - reinterpret_cast<uintptr_t>(buf.data())) & 15);
  for (bool scalar : {false, true}) {
    enc::ScopedForceScalar force(scalar);
    for (size_t offset = 0; offset < 16; ++offset) {
      std::memcpy(aligned + offset, data.data(), data.size());
      for (size_t n = 0; n <= data.size(); ++n) {
        ASSERT_EQ(Crc32(aligned + offset, n), expect[n])
            << "scalar=" << scalar << " offset=" << offset << " n=" << n;
      }
    }
    for (const auto& [bytes, crc] : large) {
      EXPECT_EQ(Crc32(bytes.data(), bytes.size()), crc)
          << "scalar=" << scalar << " n=" << bytes.size();
    }
  }
}

}  // namespace
}  // namespace dcy::bat
