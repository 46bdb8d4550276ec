// The two-tier fragment store (ISSUE-8): spill-file format hardening (every
// byte flip and truncation must decode to Corruption, never to data) and the
// budgeted FragmentStore — admission backpressure with numbers, LOI-ranked
// eviction, pin protection, promotion on fault-in, and crash-safe recovery.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/column.h"
#include "core/loi.h"
#include "storage/fragment_store.h"
#include "storage/spill_file.h"

namespace dcy::storage {
namespace {

namespace fs = std::filesystem;

bat::BatPtr IntBat(std::vector<int32_t> values) {
  return bat::Bat::MakeColumn(bat::MakeIntColumn(std::move(values)));
}

bat::BatPtr IntBatOfSize(size_t n, int32_t seed = 0) {
  std::vector<int32_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = seed + static_cast<int32_t>(i);
  return IntBat(std::move(v));
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Spill-file format
// ---------------------------------------------------------------------------

TEST(SpillFileTest, RoundTripPreservesDataAndIdentity) {
  const auto bat = IntBat({7, -3, 42, 0, 1 << 20});
  const std::string image = EncodeSpillFile(11, "sys.t.id", *bat);

  SpillInfo info;
  auto decoded = DecodeSpillFile(image, &info);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(info.id, 11u);
  EXPECT_EQ(info.name, "sys.t.id");
  EXPECT_EQ((*decoded)->size(), 5u);
  EXPECT_EQ((*decoded)->tail()->GetInt64(2), 42);
}

TEST(SpillFileTest, WriteAndReadBackThroughDisk) {
  const std::string dir = FreshDir("spill_file_io");
  const auto bat = IntBatOfSize(1000);
  const std::string path = dir + "/" + SpillFileName(5);
  ASSERT_TRUE(WriteSpillFile(path, EncodeSpillFile(5, "a.b.c", *bat)).ok());

  SpillInfo info;
  auto read = ReadSpillFile(path, &info);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(info.id, 5u);
  EXPECT_EQ((*read)->size(), 1000u);

  auto missing = ReadSpillFile(dir + "/absent.frag", nullptr);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// The decode-fuzz contract: EVERY single-byte flip anywhere in the image and
// every truncation length must yield Status::Corruption — a damaged spill
// file can never be served as data.
TEST(SpillFileTest, EveryByteFlipYieldsCorruption) {
  const auto bat = IntBat({1, 2, 3, 4, 5, 6, 7, 8});
  const std::string image = EncodeSpillFile(3, "sys.t.id", *bat);

  for (size_t i = 0; i < image.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string damaged = image;
      damaged[i] = static_cast<char>(static_cast<unsigned char>(damaged[i]) ^ mask);
      auto decoded = DecodeSpillFile(damaged, nullptr);
      ASSERT_FALSE(decoded.ok()) << "byte " << i << " mask " << int(mask);
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "byte " << i << ": " << decoded.status().ToString();
    }
  }
}

TEST(SpillFileTest, EveryTruncationYieldsCorruption) {
  const auto bat = IntBat({1, 2, 3});
  const std::string image = EncodeSpillFile(9, "s.t.c", *bat);
  for (size_t len = 0; len < image.size(); ++len) {
    auto decoded = DecodeSpillFile(image.substr(0, len), nullptr);
    ASSERT_FALSE(decoded.ok()) << "length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << "length " << len;
  }
}

TEST(SpillFileTest, TrailingGarbageYieldsCorruption) {
  const auto bat = IntBat({1, 2, 3});
  std::string image = EncodeSpillFile(9, "s.t.c", *bat);
  image += "junk";
  auto decoded = DecodeSpillFile(image, nullptr);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// InterestTracker (eviction-ranking input)
// ---------------------------------------------------------------------------

TEST(InterestTrackerTest, ScoresDecayWithHalfLife) {
  core::InterestTracker::Options opts;
  opts.half_life_seconds = 2.0;
  core::InterestTracker tracker(opts);
  tracker.Touch(1, /*now_seconds=*/0.0);
  EXPECT_DOUBLE_EQ(tracker.Score(1, 0.0), 1.0);
  EXPECT_NEAR(tracker.Score(1, 2.0), 0.5, 1e-9);
  EXPECT_NEAR(tracker.Score(1, 4.0), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(tracker.Score(2, 0.0), 0.0);  // unknown
}

TEST(InterestTrackerTest, RecentActivityOutranksOldBursts) {
  core::InterestTracker tracker({/*half_life_seconds=*/1.0});
  // Fragment 1: a burst of 5 touches at t=0. Fragment 2: one touch at t=6.
  for (int i = 0; i < 5; ++i) tracker.Touch(1, 0.0);
  tracker.Touch(2, 6.0);
  EXPECT_LT(tracker.Score(1, 6.0), tracker.Score(2, 6.0));
  tracker.Forget(2);
  EXPECT_DOUBLE_EQ(tracker.Score(2, 6.0), 0.0);
}

// ---------------------------------------------------------------------------
// FragmentStore
// ---------------------------------------------------------------------------

/// Synchronous store (async_spill = false) with proactive watermark spill
/// disabled (watermarks at 1.0): evictions spill inline and only on actual
/// budget overflow, so every assertion sees a deterministic tier assignment.
FragmentStoreOptions SyncOptions(uint64_t budget, const std::string& dir) {
  FragmentStoreOptions opts;
  opts.budget_bytes = budget;
  opts.spill_dir = dir;
  opts.async_spill = false;
  opts.spill_high_watermark = 1.0;
  opts.spill_low_watermark = 1.0;
  return opts;
}

TEST(FragmentStoreTest, UnlimitedStoreActsAsPlainCatalog) {
  FragmentStore store(FragmentStoreOptions{});
  const auto bat = IntBat({1, 2});
  ASSERT_TRUE(store.Admit(1, "sys.t.id", bat, /*durable=*/true).ok());
  EXPECT_EQ(store.Admit(1, "other", IntBat({3}), true).code(),
            StatusCode::kAlreadyExists);
  auto by_id = store.GetById(1);
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(by_id->get(), bat.get());
  EXPECT_EQ(store.GetById(2).status().code(), StatusCode::kNotFound);
}

TEST(FragmentStoreTest, OverBudgetAdmissionFailsTypedWithNumbers) {
  const auto bat = IntBatOfSize(1000);  // ~4KB payload
  // No spill dir: nothing can be evicted to disk, and pinning the only
  // frame leaves nothing droppable either.
  FragmentStore store(SyncOptions(bat->ByteSize() + 512, ""));
  ASSERT_TRUE(store.Admit(1, "a.b.c", bat, true, /*initial_pins=*/1).ok());

  Status refused = store.Admit(2, "d.e.f", IntBatOfSize(1000), true);
  ASSERT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // The message carries the numbers an operator needs: requested bytes,
  // budget, resident bytes, and the spill queue depth.
  EXPECT_NE(refused.message().find("requested"), std::string::npos) << refused.message();
  EXPECT_NE(refused.message().find("budget " +
                                   std::to_string(store.options().budget_bytes)),
            std::string::npos)
      << refused.message();
  EXPECT_NE(refused.message().find("resident"), std::string::npos) << refused.message();
  EXPECT_NE(refused.message().find("spill queue"), std::string::npos)
      << refused.message();
  EXPECT_EQ(store.Metrics().admission_rejections, 1u);
}

TEST(FragmentStoreTest, EvictionSpillsColdestAndPinProtectsHottest) {
  const std::string dir = FreshDir("store_evict");
  const auto a = IntBatOfSize(1000, 0);
  const auto b = IntBatOfSize(1000, 1000);
  const uint64_t one = a->ByteSize();
  FragmentStore store(SyncOptions(2 * one + 256, dir));

  ASSERT_TRUE(store.Admit(1, "s.t.a", a, true).ok());
  ASSERT_TRUE(store.Admit(2, "s.t.b", b, true).ok());
  // Touch 2 so 1 is the coldest; admitting 3 must spill 1.
  ASSERT_TRUE(store.Pin(2).ok());
  store.Unpin(2);
  ASSERT_TRUE(store.Admit(3, "s.t.c", IntBatOfSize(1000, 2000), true).ok());

  EXPECT_TRUE(store.IsSpilled(1));
  EXPECT_FALSE(store.IsSpilled(2));
  EXPECT_FALSE(store.IsSpilled(3));
  EXPECT_TRUE(fs::exists(dir + "/" + SpillFileName(1)));

  const auto m = store.Metrics();
  EXPECT_GE(m.spills, 1u);
  EXPECT_GE(m.evictions, 1u);
  EXPECT_LE(m.resident_bytes, store.options().budget_bytes);
}

TEST(FragmentStoreTest, PinFaultsSpilledFragmentBackIn) {
  const std::string dir = FreshDir("store_promote");
  const auto a = IntBatOfSize(1000, 7);
  FragmentStore store(SyncOptions(2 * a->ByteSize() + 256, dir));
  ASSERT_TRUE(store.Admit(1, "s.t.a", a, true).ok());
  ASSERT_TRUE(store.Admit(2, "s.t.b", IntBatOfSize(1000), true).ok());
  ASSERT_TRUE(store.Admit(3, "s.t.c", IntBatOfSize(1000), true).ok());
  ASSERT_TRUE(store.IsSpilled(1));

  auto pinned = store.Pin(1);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_FALSE(store.IsSpilled(1));
  EXPECT_EQ((*pinned)->tail()->GetInt64(0), 7);
  const auto m = store.Metrics();
  EXPECT_GE(m.promotions, 1u);
  EXPECT_GT(m.promotion_bytes, 0u);
  store.Unpin(1);
}

TEST(FragmentStoreTest, NonDurableFramesDropWithoutDisk) {
  const auto a = IntBatOfSize(1000);
  // No spill dir: only droppable (non-durable, unpinned) frames make room.
  FragmentStore store(SyncOptions(2 * a->ByteSize() + 256, ""));
  ASSERT_TRUE(store.Admit(1, "", a, /*durable=*/false).ok());
  ASSERT_TRUE(store.Admit(2, "", IntBatOfSize(1000), false).ok());
  ASSERT_TRUE(store.Admit(3, "", IntBatOfSize(1000), false).ok());
  // Frame 1 was dropped outright (no disk tier), not spilled.
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));
  EXPECT_TRUE(store.Contains(3));
  EXPECT_GE(store.Metrics().evictions, 1u);
  EXPECT_EQ(store.Metrics().spills, 0u);
}

TEST(FragmentStoreTest, CorruptSpillFileFailsPinTypedAndIsDeleted) {
  const std::string dir = FreshDir("store_corrupt");
  const auto a = IntBatOfSize(1000);
  FragmentStore store(SyncOptions(2 * a->ByteSize() + 256, dir));
  ASSERT_TRUE(store.Admit(1, "s.t.a", a, true).ok());
  ASSERT_TRUE(store.Admit(2, "s.t.b", IntBatOfSize(1000), true).ok());
  ASSERT_TRUE(store.Admit(3, "s.t.c", IntBatOfSize(1000), true).ok());
  ASSERT_TRUE(store.IsSpilled(1));

  // Flip one payload byte on disk.
  const std::string path = dir + "/" + SpillFileName(1);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char c;
    f.seekg(64);
    f.get(c);
    f.seekp(64);
    f.put(static_cast<char>(c ^ 0x40));
  }

  auto pinned = store.Pin(1);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kCorruption);
  // The damaged file is deleted and the frame forgotten: the caller
  // re-homes from the ring and re-admits.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(store.Contains(1));
  EXPECT_GE(store.Metrics().corrupt_spill_files, 1u);
}

TEST(FragmentStoreTest, RecoverReloadsValidFilesAndDeletesCorruptOnes) {
  const std::string dir = FreshDir("store_recover");
  const auto a = IntBatOfSize(500, 1);
  const auto b = IntBatOfSize(500, 2);
  ASSERT_TRUE(
      WriteSpillFile(dir + "/" + SpillFileName(1), EncodeSpillFile(1, "s.t.a", *a))
          .ok());
  ASSERT_TRUE(
      WriteSpillFile(dir + "/" + SpillFileName(2), EncodeSpillFile(2, "s.t.b", *b))
          .ok());
  {
    // File 3 is garbage from a torn write.
    std::ofstream bad(dir + "/" + SpillFileName(3), std::ios::binary);
    bad << "definitely not a spill file";
  }

  FragmentStore store(SyncOptions(0, dir));
  const auto report = store.Recover();
  EXPECT_EQ(report.recovered.size(), 2u);
  EXPECT_EQ(report.corrupt_files, 1u);
  EXPECT_FALSE(fs::exists(dir + "/" + SpillFileName(3)));

  // Recovered frames are registered spilled; a pin faults them in.
  EXPECT_TRUE(store.IsSpilled(1));
  auto recovered = store.GetById(2);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->tail()->GetInt64(0), 2);
  const auto m = store.Metrics();
  EXPECT_EQ(m.recovered_from_disk, 2u);
  EXPECT_EQ(m.corrupt_spill_files, 1u);
}

TEST(FragmentStoreTest, ForgetAllForCrashKeepsDiskTier) {
  const std::string dir = FreshDir("store_crash");
  const auto a = IntBatOfSize(1000);
  FragmentStore store(SyncOptions(2 * a->ByteSize() + 256, dir));
  ASSERT_TRUE(store.Admit(1, "s.t.a", a, true).ok());
  ASSERT_TRUE(store.Admit(2, "s.t.b", IntBatOfSize(1000), true).ok());
  ASSERT_TRUE(store.Admit(3, "s.t.c", IntBatOfSize(1000), true).ok());
  ASSERT_TRUE(store.IsSpilled(1));

  store.ForgetAllForCrash();
  EXPECT_FALSE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
  EXPECT_EQ(store.Metrics().resident_bytes, 0u);
  // The spilled frame's file survived the crash and recovery finds it.
  EXPECT_TRUE(fs::exists(dir + "/" + SpillFileName(1)));
  const auto report = store.Recover();
  EXPECT_EQ(report.recovered.size(), 1u);
  EXPECT_TRUE(store.Contains(1));
}

TEST(FragmentStoreTest, DropRemovesFrameAndSpillFile) {
  const std::string dir = FreshDir("store_drop");
  const auto a = IntBatOfSize(1000);
  FragmentStore store(SyncOptions(2 * a->ByteSize() + 256, dir));
  ASSERT_TRUE(store.Admit(1, "s.t.a", a, true).ok());
  ASSERT_TRUE(store.Admit(2, "s.t.b", IntBatOfSize(1000), true).ok());
  ASSERT_TRUE(store.Admit(3, "s.t.c", IntBatOfSize(1000), true).ok());
  ASSERT_TRUE(store.IsSpilled(1));

  store.Drop(1);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_FALSE(fs::exists(dir + "/" + SpillFileName(1)));
  // The name is free again.
  EXPECT_TRUE(store.Admit(4, "s.t.a", IntBat({1}), true).ok());
}

TEST(FragmentStoreTest, UnderPressureTracksWatermarkWithoutDiskTier) {
  const auto a = IntBatOfSize(1000);
  FragmentStoreOptions opts = SyncOptions(2 * a->ByteSize() + 256, "");
  opts.spill_high_watermark = 0.9;  // pressure is a watermark condition
  FragmentStore store(opts);
  EXPECT_FALSE(store.UnderPressure());
  // Pinned frames fill the budget past the high watermark with no disk
  // tier to absorb the overhang.
  ASSERT_TRUE(store.Admit(1, "", a, false, /*initial_pins=*/1).ok());
  ASSERT_TRUE(store.Admit(2, "", IntBatOfSize(1000), false, 1).ok());
  EXPECT_TRUE(store.UnderPressure());
  store.Unpin(1);
  store.Unpin(2);
}

}  // namespace
}  // namespace dcy::storage
