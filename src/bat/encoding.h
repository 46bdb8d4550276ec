// Column encoding layer for the ring wire format (ROADMAP "Ring bandwidth").
//
// Three codecs, chosen per column at serialize time by bat/serialize.cc:
//   - dictionary: string columns with few distinct values ship a sorted
//     dictionary + bit-packed codes instead of the full heap;
//   - FOR (frame-of-reference): sorted integer columns (IsSorted() memoizes
//     the trigger) ship min + bit-packed deltas;
//   - pass-through for incompressible data.
//
// This header also hosts the encoding-aware SIMD kernels: AVX2 selection on
// raw arrays and dictionary codes, FOR unpack, and code gather, each with a
// scalar fallback behind runtime dispatch (__builtin_cpu_supports). The same
// dispatch, and the same force-scalar switch, select the frame checksum's
// kernel: bat::Crc32 folds with carry-less multiply (PCLMULQDQ) where the
// host has it and runs slicing-by-8 otherwise. The scalar paths are
// bit-identical and exercised in CI via DCY_FORCE_SCALAR.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bat/column.h"

namespace dcy::bat::enc {

// ---------------------------------------------------------------------------
// Toggles

/// Enables/disables wire compression process-wide (default on). Off emits
/// frames with every column pass-through — the uncompressed A/B baseline of
/// the CI bench smoke.
void SetWireCompression(bool on);
bool WireCompressionEnabled();

struct ScopedWireCompression {
  explicit ScopedWireCompression(bool on) : prev_(WireCompressionEnabled()) {
    SetWireCompression(on);
  }
  ~ScopedWireCompression() { SetWireCompression(prev_); }

 private:
  bool prev_;
};

/// Forces the scalar fallbacks, slicing-by-8 CRC included, even on
/// AVX2/PCLMUL hardware (differential tests and the CI sanitizer matrix).
/// Also settable via env DCY_FORCE_SCALAR=1.
void SetForceScalar(bool on);
bool ForceScalar();

struct ScopedForceScalar {
  explicit ScopedForceScalar(bool on) : prev_(ForceScalar()) { SetForceScalar(on); }
  ~ScopedForceScalar() { SetForceScalar(prev_); }

 private:
  bool prev_;
};

/// True when the AVX2 paths will actually run (hardware support and not
/// forced scalar).
bool SimdEnabled();

/// True when bat::Crc32 folds with carry-less multiply (PCLMULQDQ support
/// and not forced scalar).
bool ClmulEnabled();

// ---------------------------------------------------------------------------
// Bit packing

/// Widest packable value. 57 = 64 - 7: with <8 pending accumulator bits a
/// value always fits one 64-bit window, so pack/unpack never need 128-bit
/// arithmetic and the unpacker's 8-byte loads stay in bounds.
constexpr unsigned kMaxPackBits = 57;

/// Bytes needed to pack n values of `bits` bits each.
inline size_t PackedBytes(size_t n, unsigned bits) {
  return (n * static_cast<uint64_t>(bits) + 7) / 8;
}

/// Bits needed to represent v (0 for v == 0).
inline unsigned BitWidth(uint64_t v) {
  unsigned bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// Packs n values produced by fn(i) (each < 2^bits, bits <= kMaxPackBits)
/// into exactly PackedBytes(n, bits) bytes at dst. Every output byte is
/// written, so dst need not be zeroed.
template <typename Fn>
void PackBits(size_t n, unsigned bits, uint8_t* dst, Fn fn) {
  uint64_t acc = 0;
  unsigned acc_bits = 0;
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    acc |= fn(i) << acc_bits;  // acc_bits < 8, bits <= 57: fits in 64
    acc_bits += bits;
    while (acc_bits >= 8) {
      dst[out++] = static_cast<uint8_t>(acc);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) dst[out++] = static_cast<uint8_t>(acc);
}

/// Unpacks n values of `bits` bits from src (src_len readable bytes) into
/// dst[i] = ref + value (wrapping). Returns false when src is too short or
/// bits > kMaxPackBits. SIMD-dispatched (this is the FOR decode kernel).
bool UnpackBits64(const uint8_t* src, size_t src_len, size_t n, unsigned bits,
                  uint64_t ref, uint64_t* dst);

/// Same for u32 outputs (dictionary codes; bits <= 32, no reference).
bool UnpackBits32(const uint8_t* src, size_t src_len, size_t n, unsigned bits,
                  uint32_t* dst);

// ---------------------------------------------------------------------------
// Codec planning

/// A dictionary plan for one string column: sorted unique strings
/// (offsets + heap, StrColumn layout) and one code per row.
struct DictPlan {
  std::vector<uint32_t> offsets;  ///< dict_count + 1 entries
  std::string heap;
  std::vector<uint32_t> codes;    ///< one per row, in sorted-dict order
  unsigned code_bits = 0;         ///< BitWidth(dict_count - 1)
};

/// Plans dictionary encoding for a plain string column. Returns nullopt when
/// the dictionary would not shrink the wire body (high cardinality, tiny
/// column). A cheap distinct-ratio sample bails out before the full build so
/// incompressible columns only pay for the sample.
std::optional<DictPlan> PlanDict(const StrColumn& c);

/// A FOR plan: reference (minimum, i.e. first value of the sorted column)
/// and delta width.
struct ForPlan {
  int64_t ref = 0;
  unsigned bits = 0;
};

/// Plans FOR packing for a fixed-width integer column (kOid/kInt/kLng/kDate)
/// or a dense oid range. Returns nullopt unless the column is sorted, the
/// delta range fits kMaxPackBits, and packing shrinks the wire body.
std::optional<ForPlan> PlanFor(const Column& c);

// ---------------------------------------------------------------------------
// SIMD selection / gather kernels
//
// Each appends the matching absolute positions in [begin, end) to *sel in
// ascending order — identical output to the scalar loops in bat/kernels.cc.
// AVX2 when SimdEnabled(), scalar otherwise.

void SelectEqU32(const uint32_t* d, size_t begin, size_t end, uint32_t key,
                 std::vector<uint32_t>* sel);
void SelectRangeU32(const uint32_t* d, size_t begin, size_t end, uint32_t lo,
                    uint32_t hi, std::vector<uint32_t>* sel);
void SelectEqI32(const int32_t* d, size_t begin, size_t end, int32_t key,
                 std::vector<uint32_t>* sel);
void SelectRangeI32(const int32_t* d, size_t begin, size_t end, int32_t lo,
                    int32_t hi, std::vector<uint32_t>* sel);
void SelectEqI64(const int64_t* d, size_t begin, size_t end, int64_t key,
                 std::vector<uint32_t>* sel);
void SelectRangeI64(const int64_t* d, size_t begin, size_t end, int64_t lo,
                    int64_t hi, std::vector<uint32_t>* sel);
void SelectEqF64(const double* d, size_t begin, size_t end, double key,
                 std::vector<uint32_t>* sel);
void SelectRangeF64(const double* d, size_t begin, size_t end, double lo,
                    double hi, std::vector<uint32_t>* sel);

/// dst[i] = src[idx[i]] for i in [0, n) — dictionary-code gather.
void GatherU32(const uint32_t* src, const uint32_t* idx, size_t n, uint32_t* dst);

}  // namespace dcy::bat::enc
