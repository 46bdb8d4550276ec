// The per-node store of ring copies: every copy is charged to the budget, an
// over-budget copy is refused typed with the numbers, released copies return
// their charge, and a crash forgets them all.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/column.h"
#include "storage/fragment_store.h"

namespace dcy::storage {
namespace {

bat::BatPtr IntBat(std::vector<int32_t> values) {
  return bat::Bat::MakeColumn(bat::MakeIntColumn(std::move(values)));
}

bat::BatPtr IntBatOfSize(size_t n, int32_t seed = 0) {
  std::vector<int32_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = seed + static_cast<int32_t>(i);
  return IntBat(std::move(v));
}

FragmentStoreOptions Budget(uint64_t bytes) {
  FragmentStoreOptions opts;
  opts.budget_bytes = bytes;
  return opts;
}

TEST(FragmentStoreTest, UnlimitedStoreActsAsPlainCatalog) {
  FragmentStore store(FragmentStoreOptions{});
  const auto bat = IntBat({1, 2});
  ASSERT_TRUE(store.Admit(1, bat).ok());
  EXPECT_EQ(store.Admit(1, IntBat({3})).code(), StatusCode::kAlreadyExists);
  auto got = store.Get(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), bat.get());
  EXPECT_TRUE(store.Contains(1));
  EXPECT_EQ(store.Get(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Metrics().admissions, 1u);
}

TEST(FragmentStoreTest, OverBudgetAdmissionFailsTypedWithNumbers) {
  const auto bat = IntBatOfSize(1000);  // ~4KB payload
  const uint64_t budget = bat->ByteSize() + 512;
  FragmentStore store(Budget(budget));
  ASSERT_TRUE(store.Admit(1, bat).ok());

  // The held copy is never evicted to make room: the newcomer is refused.
  Status refused = store.Admit(2, IntBatOfSize(1000));
  ASSERT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // The message carries the numbers an operator needs: requested bytes,
  // budget and resident bytes.
  EXPECT_NE(refused.message().find("requested " + std::to_string(bat->ByteSize())),
            std::string::npos)
      << refused.message();
  EXPECT_NE(refused.message().find("budget " + std::to_string(budget)),
            std::string::npos)
      << refused.message();
  EXPECT_NE(refused.message().find("resident " + std::to_string(bat->ByteSize())),
            std::string::npos)
      << refused.message();
  EXPECT_TRUE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
  const auto m = store.Metrics();
  EXPECT_EQ(m.admissions, 1u);
  EXPECT_EQ(m.admission_rejections, 1u);
  EXPECT_EQ(m.resident_bytes, bat->ByteSize());
}

TEST(FragmentStoreTest, DropIfReleasesCopiesAndTheirCharge) {
  const auto a = IntBatOfSize(1000);
  FragmentStore store(Budget(2 * a->ByteSize() + 256));
  ASSERT_TRUE(store.Admit(1, a).ok());
  ASSERT_TRUE(store.Admit(2, IntBatOfSize(1000)).ok());
  ASSERT_EQ(store.Admit(3, IntBatOfSize(1000)).code(), StatusCode::kResourceExhausted);

  store.DropIf([](core::BatId id) { return id == 1; });
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));
  EXPECT_EQ(store.Metrics().resident_bytes, a->ByteSize());
  // The charge came back: the refused copy fits now.
  EXPECT_TRUE(store.Admit(3, IntBatOfSize(1000)).ok());
}

TEST(FragmentStoreTest, ClearOnCrashForgetsEveryCopy) {
  const auto a = IntBatOfSize(1000);
  FragmentStore store(Budget(2 * a->ByteSize() + 256));
  ASSERT_TRUE(store.Admit(1, a).ok());
  ASSERT_TRUE(store.Admit(2, IntBatOfSize(1000)).ok());

  store.Clear();
  EXPECT_FALSE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
  const auto m = store.Metrics();
  EXPECT_EQ(m.resident_bytes, 0u);
  EXPECT_EQ(m.admissions, 2u);  // lifetime counters survive
  EXPECT_TRUE(store.Admit(1, a).ok());
}

TEST(FragmentStoreTest, UnderPressureTracksWatermarkWithoutDiskTier) {
  const auto a = IntBatOfSize(1000);
  FragmentStore store(Budget(2 * a->ByteSize() + 256));
  EXPECT_FALSE(store.UnderPressure());
  ASSERT_TRUE(store.Admit(1, a).ok());
  EXPECT_FALSE(store.UnderPressure());  // half the budget
  // Held copies fill the budget past its high-water mark, and none can be
  // evicted to absorb the overhang.
  ASSERT_TRUE(store.Admit(2, IntBatOfSize(1000)).ok());
  EXPECT_TRUE(store.UnderPressure());
  store.DropIf([](core::BatId) { return true; });
  EXPECT_FALSE(store.UnderPressure());
  store.NotePressureShed();
  EXPECT_EQ(store.Metrics().pressure_sheds, 1u);

  FragmentStore unlimited(FragmentStoreOptions{});
  ASSERT_TRUE(unlimited.Admit(1, a).ok());
  EXPECT_FALSE(unlimited.UnderPressure());
}

}  // namespace
}  // namespace dcy::storage
