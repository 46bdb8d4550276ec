// Tests of the wire-compression layer (bat/encoding.h + the frame format in
// bat/serialize.cc): bit-pack round trips at every width, dictionary and
// FOR codec round trips across types and shapes, compression-off
// pass-through frames, SIMD-vs-scalar differential checks of every
// encoding-aware kernel, codec accounting, and the same byte-flip /
// truncation decode fuzz plain frames pass (every mutation must fail typed
// as Corruption, never crash).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bat/encoding.h"
#include "bat/kernels.h"
#include "bat/operators.h"
#include "bat/serialize.h"
#include "common/random.h"

namespace dcy::bat {
namespace {

// ---- bit packing -------------------------------------------------------------

TEST(BitPackTest, RoundTripsEveryWidth) {
  Rng rng(42);
  for (unsigned bits = 0; bits <= enc::kMaxPackBits; ++bits) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64}, size_t{257}}) {
      const uint64_t mask = (uint64_t{1} << bits) - 1;  // bits <= 57
      std::vector<uint64_t> vals(n);
      for (auto& v : vals) v = rng.UniformU64(0, ~uint64_t{0} >> 1) & mask;
      std::vector<uint8_t> packed(enc::PackedBytes(n, bits) + 8);  // +slack
      enc::PackBits(n, bits, packed.data(), [&](size_t i) { return vals[i]; });
      for (bool force : {false, true}) {
        enc::ScopedForceScalar scoped(force);
        std::vector<uint64_t> out(n);
        ASSERT_TRUE(enc::UnpackBits64(packed.data(), packed.size(), n, bits,
                                      /*ref=*/1000, out.data()))
            << "bits=" << bits << " n=" << n;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], vals[i] + 1000)
              << "bits=" << bits << " n=" << n << " i=" << i
              << " force_scalar=" << force;
        }
        if (bits <= 32) {
          std::vector<uint32_t> out32(n);
          ASSERT_TRUE(enc::UnpackBits32(packed.data(), packed.size(), n, bits,
                                        out32.data()));
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(out32[i], static_cast<uint32_t>(vals[i]))
                << "bits=" << bits << " i=" << i << " force_scalar=" << force;
          }
        }
      }
    }
  }
}

TEST(BitPackTest, RejectsShortBuffersAndWideValues) {
  std::vector<uint8_t> packed(enc::PackedBytes(10, 13));
  enc::PackBits(10, 13, packed.data(), [](size_t i) { return uint64_t{i}; });
  std::vector<uint64_t> out(10);
  EXPECT_FALSE(enc::UnpackBits64(packed.data(), packed.size() - 1, 10, 13, 0,
                                 out.data()));
  EXPECT_FALSE(enc::UnpackBits64(packed.data(), packed.size(), 10,
                                 enc::kMaxPackBits + 1, 0, out.data()));
  std::vector<uint32_t> out32(10);
  EXPECT_FALSE(enc::UnpackBits32(packed.data(), packed.size(), 10, 33,
                                 out32.data()));
  EXPECT_TRUE(enc::UnpackBits64(packed.data(), packed.size(), 10, 13, 0,
                                out.data()));
}

// ---- SIMD kernels vs scalar --------------------------------------------------

/// Runs `fn` under both dispatch modes and asserts identical selection
/// vectors. fn appends to the vector it is handed.
template <typename Fn>
void ExpectSameSelection(Fn fn, const std::string& ctx) {
  std::vector<uint32_t> simd, scalar;
  {
    enc::ScopedForceScalar off(false);
    fn(&simd);
  }
  {
    enc::ScopedForceScalar on(true);
    fn(&scalar);
  }
  ASSERT_EQ(simd, scalar) << ctx;
}

TEST(SimdKernelTest, SelectionsMatchScalarAcrossSpansAndKeys) {
  Rng rng(7);
  // Sizes straddle the 8-lane (epi32) and 4-lane (epi64) vector widths.
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{31}, size_t{100}, size_t{1000}}) {
    std::vector<uint32_t> u32(n);
    std::vector<int32_t> i32(n);
    std::vector<int64_t> i64(n);
    std::vector<double> f64(n);
    for (size_t i = 0; i < n; ++i) {
      u32[i] = static_cast<uint32_t>(rng.UniformU64(0, 16));
      i32[i] = static_cast<int32_t>(rng.UniformInt(-16, 16));
      i64[i] = rng.UniformInt(-16, 16) * 1000000007LL;
      f64[i] = static_cast<double>(rng.UniformInt(-8, 8)) / 2.0;
    }
    if (n >= 2) f64[1] = std::numeric_limits<double>::quiet_NaN();
    // Unaligned spans: begin offsets that are not multiples of a vector.
    for (size_t begin : {size_t{0}, std::min(n, size_t{3})}) {
      const std::string ctx = "n=" + std::to_string(n) + " begin=" + std::to_string(begin);
      ExpectSameSelection(
          [&](std::vector<uint32_t>* s) { enc::SelectEqU32(u32.data(), begin, n, 5, s); },
          "equ32 " + ctx);
      ExpectSameSelection(
          [&](std::vector<uint32_t>* s) {
            enc::SelectRangeU32(u32.data(), begin, n, 3, 9, s);
          },
          "rangeu32 " + ctx);
      ExpectSameSelection(
          [&](std::vector<uint32_t>* s) { enc::SelectEqI32(i32.data(), begin, n, -5, s); },
          "eqi32 " + ctx);
      ExpectSameSelection(
          [&](std::vector<uint32_t>* s) {
            enc::SelectRangeI32(i32.data(), begin, n, -9, 3, s);
          },
          "rangei32 " + ctx);
      ExpectSameSelection(
          [&](std::vector<uint32_t>* s) {
            enc::SelectEqI64(i64.data(), begin, n, 5 * 1000000007LL, s);
          },
          "eqi64 " + ctx);
      ExpectSameSelection(
          [&](std::vector<uint32_t>* s) {
            enc::SelectRangeI64(i64.data(), begin, n, -3 * 1000000007LL,
                                9 * 1000000007LL, s);
          },
          "rangei64 " + ctx);
      // Doubles, including the NaN planted above: NaN never matches eq or
      // range, under either dispatch.
      ExpectSameSelection(
          [&](std::vector<uint32_t>* s) { enc::SelectEqF64(f64.data(), begin, n, 1.5, s); },
          "eqf64 " + ctx);
      ExpectSameSelection(
          [&](std::vector<uint32_t>* s) {
            enc::SelectRangeF64(f64.data(), begin, n, -2.5, 2.5, s);
          },
          "rangef64 " + ctx);
    }
  }
}

TEST(SimdKernelTest, GatherMatchesScalar) {
  Rng rng(11);
  for (size_t n : {size_t{1}, size_t{8}, size_t{100}, size_t{4097}}) {
    std::vector<uint32_t> src(n);
    for (auto& v : src) v = static_cast<uint32_t>(rng.UniformU64(0, 1u << 30));
    std::vector<uint32_t> idx(n + 3);
    for (auto& v : idx) v = static_cast<uint32_t>(rng.UniformU64(0, n - 1));
    std::vector<uint32_t> simd(idx.size()), scalar(idx.size());
    {
      enc::ScopedForceScalar off(false);
      enc::GatherU32(src.data(), idx.data(), idx.size(), simd.data());
    }
    {
      enc::ScopedForceScalar on(true);
      enc::GatherU32(src.data(), idx.data(), idx.size(), scalar.data());
    }
    ASSERT_EQ(simd, scalar) << "n=" << n;
  }
}

// ---- codec round trips -------------------------------------------------------

void ExpectSameRows(const BatPtr& got, const BatPtr& want, const std::string& ctx) {
  ASSERT_EQ(got->size(), want->size()) << ctx;
  ASSERT_EQ(got->tail_type(), want->tail_type()) << ctx;
  for (size_t i = 0; i < want->size(); ++i) {
    ASSERT_TRUE(got->head()->GetValue(i) == want->head()->GetValue(i)) << ctx << " row " << i;
    ASSERT_TRUE(got->tail()->GetValue(i) == want->tail()->GetValue(i)) << ctx << " row " << i;
  }
}

BatPtr LowCardStrings(size_t n, uint64_t seed, size_t cardinality = 16) {
  Rng rng(seed);
  ColumnBuilder b(ValType::kStr);
  for (size_t i = 0; i < n; ++i) {
    b.AppendString("value-" + std::to_string(rng.UniformU64(0, cardinality - 1)));
  }
  return Bat::MakeColumn(b.Finish());
}

BatPtr SortedInts(ValType t, size_t n, uint64_t seed) {
  Rng rng(seed);
  ColumnBuilder b(t);
  int64_t acc = t == ValType::kOid ? 1000 : -500;
  for (size_t i = 0; i < n; ++i) {
    acc += rng.UniformInt(0, 9);
    b.AppendInt64(acc);
  }
  return Bat::MakeColumn(b.Finish());
}

TEST(CodecRoundTripTest, DictionaryColumnsRoundTripAndShrink) {
  enc::ScopedWireCompression on(true);
  auto b = LowCardStrings(500, 1);
  const FrameEncoder fe(*b);
  EXPECT_EQ(fe.stats().dict_columns, 1u);
  // The acceptance bar: a low-cardinality string fragment shrinks by an
  // integer factor, not a few percent.
  EXPECT_LE(fe.stats().wire_bytes * 2, fe.stats().raw_bytes);
  const std::string frame = Serialize(*b);
  EXPECT_EQ(frame.size(), fe.stats().wire_bytes);
  auto restored = Deserialize(frame);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->tail()->kind(), ColumnKind::kDict);
  ExpectSameRows(*restored, b, "dict roundtrip");
  // The decoded dictionary column re-serializes borrowing its dict verbatim.
  auto again = Deserialize(Serialize(**restored));
  ASSERT_TRUE(again.ok());
  ExpectSameRows(*again, b, "dict re-roundtrip");
}

TEST(CodecRoundTripTest, ForColumnsRoundTripAndShrink) {
  enc::ScopedWireCompression on(true);
  for (ValType t : {ValType::kOid, ValType::kInt, ValType::kLng, ValType::kDate}) {
    auto b = SortedInts(t, 500, 2 + static_cast<uint64_t>(t));
    ASSERT_TRUE(b->tail()->IsSorted());  // memoizes: the FOR trigger
    const FrameEncoder fe(*b);
    EXPECT_EQ(fe.stats().for_columns, 1u) << ValTypeName(t);
    EXPECT_LE(fe.stats().wire_bytes * 2, fe.stats().raw_bytes) << ValTypeName(t);
    auto restored = Deserialize(Serialize(*b));
    ASSERT_TRUE(restored.ok()) << ValTypeName(t) << ": " << restored.status().ToString();
    ExpectSameRows(*restored, b, std::string("for roundtrip ") + ValTypeName(t));
    // Satellite: the sender's memoized sortedness crosses the wire, so the
    // receiver's IsSorted() is free (and true) without a rescan.
    EXPECT_TRUE((*restored)->tail()->IsSorted()) << ValTypeName(t);
  }
}

TEST(CodecRoundTripTest, UnsortedColumnsStayPlain) {
  enc::ScopedWireCompression on(true);
  Rng rng(3);
  std::vector<int64_t> v(300);
  for (auto& x : v) x = static_cast<int64_t>(rng.UniformU64(0, ~uint64_t{0} >> 1));
  auto b = Bat::MakeColumn(MakeLngColumn(std::move(v)));
  const FrameEncoder fe(*b);
  EXPECT_EQ(fe.stats().for_columns, 0u);
  EXPECT_EQ(fe.stats().dict_columns, 0u);
  // Incompressible data pays at most the per-column encoding byte.
  EXPECT_LE(fe.stats().wire_bytes, fe.stats().raw_bytes + 2);
  auto restored = Deserialize(Serialize(*b));
  ASSERT_TRUE(restored.ok());
  ExpectSameRows(*restored, b, "plain roundtrip");
}

TEST(CodecRoundTripTest, HighCardinalityStringsStayPlain) {
  enc::ScopedWireCompression on(true);
  ColumnBuilder sb(ValType::kStr);
  for (size_t i = 0; i < 300; ++i) sb.AppendString("unique-" + std::to_string(i));
  auto b = Bat::MakeColumn(sb.Finish());
  const FrameEncoder fe(*b);
  EXPECT_EQ(fe.stats().dict_columns, 0u);
  auto restored = Deserialize(Serialize(*b));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->tail()->kind(), ColumnKind::kStr);
  ExpectSameRows(*restored, b, "high-card roundtrip");
}

TEST(CodecRoundTripTest, DenseHeadsAndAllTypesRoundTrip) {
  enc::ScopedWireCompression on(true);
  Rng rng(4);
  for (ValType t : {ValType::kOid, ValType::kInt, ValType::kLng, ValType::kDbl,
                    ValType::kStr, ValType::kDate}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{257}}) {
      ColumnBuilder b(t);
      for (size_t i = 0; i < n; ++i) {
        switch (t) {
          case ValType::kOid: b.AppendInt64(static_cast<int64_t>(rng.UniformU64(0, 1u << 20))); break;
          case ValType::kDbl: b.AppendDouble(static_cast<double>(rng.UniformInt(-50, 50)) / 4.0); break;
          case ValType::kStr: b.AppendString("s" + std::to_string(rng.UniformU64(0, 8))); break;
          default: b.AppendInt64(rng.UniformInt(-1000, 1000)); break;
        }
      }
      auto bat = Bat::MakeColumn(b.Finish());
      auto restored = Deserialize(Serialize(*bat));
      ASSERT_TRUE(restored.ok())
          << ValTypeName(t) << " n=" << n << ": " << restored.status().ToString();
      ExpectSameRows(*restored, bat,
                     std::string(ValTypeName(t)) + " n=" + std::to_string(n));
      EXPECT_EQ((*restored)->head()->kind(), ColumnKind::kDense);
    }
  }
}

TEST(CodecRoundTripTest, CompressionOffIsPassThroughAndVersion1IsRejected) {
  // Compression off: the one frame layout (version 2) with every column
  // pass-through, even where a codec would apply.
  auto strings = LowCardStrings(200, 5);
  auto ints = SortedInts(ValType::kLng, 200, 6);
  ASSERT_TRUE(ints->tail()->IsSorted());  // memoized: FOR would trigger
  std::string plain_frame;
  {
    enc::ScopedWireCompression off(false);
    for (const BatPtr& b : {strings, ints}) {
      const FrameEncoder fe(*b);
      EXPECT_EQ(fe.stats().plain_columns, 1u);
      EXPECT_EQ(fe.stats().dict_columns + fe.stats().for_columns, 0u);
      EXPECT_EQ(fe.stats().wire_bytes, fe.stats().raw_bytes);  // encoded/raw = 1
      std::string frame;
      fe.SerializeInto(&frame);
      uint16_t version = 0;
      std::memcpy(&version, frame.data() + 4, sizeof(version));
      EXPECT_EQ(version, 2u);
      auto restored = Deserialize(frame);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      EXPECT_EQ((*restored)->tail()->kind(),
                b == strings ? ColumnKind::kStr : ColumnKind::kFixed);
      ExpectSameRows(*restored, b, "pass-through decode");
      if (b == strings) plain_frame = frame;
    }
  }
  // A dictionary column decoded off a compressed frame re-materializes the
  // plain string body: byte-identical to its plain source's frame.
  auto dict_bat = Deserialize(Serialize(*strings));
  ASSERT_TRUE(dict_bat.ok());
  ASSERT_EQ((*dict_bat)->tail()->kind(), ColumnKind::kDict);
  {
    enc::ScopedWireCompression off(false);
    EXPECT_EQ(Serialize(**dict_bat), plain_frame);
  }
  // The retired version-1 layout (no per-column encoding byte) is typed
  // Corruption even under a valid CRC.
  std::string v1;
  const auto put = [&v1](const auto& v) {
    v1.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(uint32_t{0xDC10B47u});  // magic
  put(uint16_t{1});           // version
  put(uint8_t{0});            // properties
  put(uint8_t{0});            // dense head: seqbase, count
  put(uint64_t{0});
  put(uint64_t{3});
  put(static_cast<uint8_t>(ValType::kInt));  // tail: type, count, values
  put(uint64_t{3});
  for (int32_t v : {7, 8, 9}) put(v);
  put(Crc32(v1.data(), v1.size()));
  auto decoded = Deserialize(v1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
      << decoded.status().ToString();
}

TEST(CodecRoundTripTest, EncoderPlansOnceForSizeAndBytes) {
  enc::ScopedWireCompression on(true);
  auto b = LowCardStrings(300, 6);
  const FrameEncoder fe(*b);
  std::string out;
  fe.SerializeInto(&out);
  EXPECT_EQ(out.size(), fe.encoded_size());
  EXPECT_EQ(out, Serialize(*b));  // free functions plan identically
}

TEST(SortednessSeedTest, FirstWriterWins) {
  auto c = MakeLngColumn({5, 1, 9});  // actually unsorted
  c->SeedSortedness(true);
  EXPECT_TRUE(c->IsSorted());  // seeded answer, no rescan
  c->SeedSortedness(false);    // loses: already seeded
  EXPECT_TRUE(c->IsSorted());
  auto d = MakeLngColumn({1, 2, 3});
  EXPECT_TRUE(d->IsSorted());   // scanned + memoized
  d->SeedSortedness(false);     // loses: cache already holds the scan result
  EXPECT_TRUE(d->IsSorted());
}

// ---- operators on ring-delivered dictionary columns --------------------------

TEST(DictOperatorTest, GroupIdAndJoinRunOnCodes) {
  enc::ScopedWireCompression on(true);
  auto plain = LowCardStrings(400, 7, /*cardinality=*/8);
  auto encoded = Deserialize(Serialize(*plain));
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ((*encoded)->tail()->kind(), ColumnKind::kDict);

  // GroupId must issue identical first-appearance gids from codes.
  auto want = GroupId(plain);
  auto got = GroupId(*encoded);
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameRows(*got, *want, "dict groupid");

  // Same-dictionary join: probe codes resolve without any binary search.
  auto r = Reverse(*encoded);
  auto got_join = Join(*encoded, r);
  auto want_join = Join(plain, Reverse(plain));
  ASSERT_TRUE(got_join.ok() && want_join.ok());
  ExpectSameRows(*got_join, *want_join, "same-dict join");

  // Cross-dictionary join (independent frames -> distinct dict objects).
  auto other = Deserialize(Serialize(*LowCardStrings(150, 8, 8)));
  ASSERT_TRUE(other.ok());
  auto got_x = Join(*encoded, Reverse(*other));
  auto want_x = Join(plain, Reverse(*other));
  ASSERT_TRUE(got_x.ok() && want_x.ok());
  ExpectSameRows(*got_x, *want_x, "cross-dict join");
}

// ---- decode fuzz on encoded frames -------------------------------------------

std::vector<std::pair<std::string, std::string>> EncodedFuzzFrames() {
  enc::ScopedWireCompression on(true);
  std::vector<std::pair<std::string, std::string>> frames;
  frames.emplace_back("dict", Serialize(*LowCardStrings(64, 9)));
  frames.emplace_back("for", Serialize(*SortedInts(ValType::kLng, 64, 10)));
  frames.emplace_back("for-int", Serialize(*SortedInts(ValType::kInt, 64, 11)));
  return frames;
}

TEST(EncodedDecodeFuzzTest, EveryByteFlipIsCorruption) {
  for (const auto& [name, frame] : EncodedFuzzFrames()) {
    ASSERT_TRUE(Deserialize(frame).ok()) << name;
    for (size_t i = 0; i < frame.size(); ++i) {
      for (unsigned char mask : {0x01, 0x80, 0x10}) {
        std::string mutated = frame;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        auto decoded = Deserialize(mutated);
        ASSERT_FALSE(decoded.ok())
            << name << ": flip at byte " << i << " mask " << int(mask)
            << " decoded cleanly";
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
            << name << ": " << decoded.status().ToString();
      }
    }
  }
}

TEST(EncodedDecodeFuzzTest, EveryTruncationIsCorruption) {
  for (const auto& [name, frame] : EncodedFuzzFrames()) {
    for (size_t len = 0; len < frame.size(); ++len) {
      auto decoded = Deserialize(std::string_view(frame).substr(0, len));
      ASSERT_FALSE(decoded.ok()) << name << ": prefix of " << len << " bytes";
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

}  // namespace
}  // namespace dcy::bat
