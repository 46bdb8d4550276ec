#include "bat/encoding.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DCY_ENC_X86 1
#else
#define DCY_ENC_X86 0
#endif

namespace dcy::bat::enc {

// ---------------------------------------------------------------------------
// Toggles

namespace {

std::atomic<bool> g_compression{true};

bool ForceScalarFromEnv() {
  const char* e = std::getenv("DCY_FORCE_SCALAR");
  return e != nullptr && e[0] != '\0' && e[0] != '0';
}

std::atomic<bool> g_force_scalar{ForceScalarFromEnv()};

}  // namespace

void SetWireCompression(bool on) { g_compression.store(on, std::memory_order_relaxed); }
bool WireCompressionEnabled() { return g_compression.load(std::memory_order_relaxed); }

void SetForceScalar(bool on) { g_force_scalar.store(on, std::memory_order_relaxed); }
bool ForceScalar() { return g_force_scalar.load(std::memory_order_relaxed); }

bool SimdEnabled() {
#if DCY_ENC_X86
  static const bool hw = __builtin_cpu_supports("avx2");
  return hw && !ForceScalar();
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Scalar kernels (the fallback, and the tail loops of the AVX2 paths)

namespace {

template <typename T, typename K>
void ScalarSelectEq(const T* d, size_t begin, size_t end, K key,
                    std::vector<uint32_t>* sel) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin));
  uint32_t* out = sel->data() + base;
  size_t cnt = 0;
  for (size_t i = begin; i < end; ++i) {
    out[cnt] = static_cast<uint32_t>(i);
    cnt += (d[i] == key);
  }
  sel->resize(base + cnt);
}

template <typename T, typename K>
void ScalarSelectRange(const T* d, size_t begin, size_t end, K lo, K hi,
                       std::vector<uint32_t>* sel) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin));
  uint32_t* out = sel->data() + base;
  size_t cnt = 0;
  for (size_t i = begin; i < end; ++i) {
    out[cnt] = static_cast<uint32_t>(i);
    cnt += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] <= hi);
  }
  sel->resize(base + cnt);
}

void ScalarUnpack64(const uint8_t* src, size_t src_len, size_t lo, size_t n,
                    unsigned bits, uint64_t ref, uint64_t* dst) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  for (size_t i = lo; i < n; ++i) {
    const uint64_t bit = i * static_cast<uint64_t>(bits);
    const size_t byte = bit >> 3;
    const unsigned sh = static_cast<unsigned>(bit & 7);
    uint64_t w = 0;
    const size_t avail = src_len - byte;
    std::memcpy(&w, src + byte, avail < 8 ? avail : 8);
    dst[i] = ref + ((w >> sh) & mask);
  }
}

void ScalarUnpack32(const uint8_t* src, size_t src_len, size_t lo, size_t n,
                    unsigned bits, uint32_t* dst) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  for (size_t i = lo; i < n; ++i) {
    const uint64_t bit = i * static_cast<uint64_t>(bits);
    const size_t byte = bit >> 3;
    const unsigned sh = static_cast<unsigned>(bit & 7);
    uint64_t w = 0;
    const size_t avail = src_len - byte;
    std::memcpy(&w, src + byte, avail < 8 ? avail : 8);
    dst[i] = static_cast<uint32_t>((w >> sh) & mask);
  }
}

#if DCY_ENC_X86

// Shuffle tables for mask-driven left-compaction of matching positions.
// Perm8: per 8-bit mask, the set lane indices (u32 each) for
// _mm256_permutevar8x32_epi32. Shuf4: per 4-bit mask, a byte shuffle for
// _mm_shuffle_epi8 compacting 4 u32 lanes.
const uint32_t* Perm8(unsigned mask) {
  static const std::vector<uint32_t>* lut = [] {
    auto* t = new std::vector<uint32_t>(256 * 8, 0);
    for (unsigned m = 0; m < 256; ++m) {
      unsigned k = 0;
      for (unsigned lane = 0; lane < 8; ++lane) {
        if (m & (1u << lane)) (*t)[m * 8 + k++] = lane;
      }
    }
    return t;
  }();
  return lut->data() + mask * 8;
}

const uint8_t* Shuf4(unsigned mask) {
  static const std::vector<uint8_t>* lut = [] {
    auto* t = new std::vector<uint8_t>(16 * 16, 0x80);
    for (unsigned m = 0; m < 16; ++m) {
      unsigned k = 0;
      for (unsigned lane = 0; lane < 4; ++lane) {
        if (m & (1u << lane)) {
          for (unsigned b = 0; b < 4; ++b) (*t)[m * 16 + k * 4 + b] = static_cast<uint8_t>(lane * 4 + b);
          ++k;
        }
      }
    }
    return t;
  }();
  return lut->data() + mask * 16;
}

// Emits the positions selected by an 8-lane mask into out + cnt (8 slots of
// slack required), returns the new count.
__attribute__((target("avx2"))) inline size_t Emit8(unsigned m, size_t i,
                                                    uint32_t* out, size_t cnt) {
  if (m == 0) return cnt;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i pos = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(i)), iota);
  const __m256i perm = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(Perm8(m)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + cnt),
                      _mm256_permutevar8x32_epi32(pos, perm));
  return cnt + static_cast<unsigned>(__builtin_popcount(m));
}

__attribute__((target("avx2"))) inline size_t Emit4(unsigned m, size_t i,
                                                    uint32_t* out, size_t cnt) {
  if (m == 0) return cnt;
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i pos = _mm_add_epi32(_mm_set1_epi32(static_cast<int>(i)), iota);
  const __m128i shuf = _mm_loadu_si128(reinterpret_cast<const __m128i*>(Shuf4(m)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + cnt), _mm_shuffle_epi8(pos, shuf));
  return cnt + static_cast<unsigned>(__builtin_popcount(m));
}

__attribute__((target("avx2"))) void SelectEq32Avx2(const int32_t* d, size_t begin,
                                                    size_t end, int32_t key,
                                                    std::vector<uint32_t>* sel) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin) + 8);
  uint32_t* out = sel->data() + base;
  size_t cnt = 0;
  const __m256i kv = _mm256_set1_epi32(key);
  size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const unsigned m = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, kv))));
    cnt = Emit8(m, i, out, cnt);
  }
  for (; i < end; ++i) {
    out[cnt] = static_cast<uint32_t>(i);
    cnt += (d[i] == key);
  }
  sel->resize(base + cnt);
}

__attribute__((target("avx2"))) void SelectRange32Avx2(const int32_t* d, size_t begin,
                                                       size_t end, int32_t lo,
                                                       int32_t hi,
                                                       std::vector<uint32_t>* sel) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin) + 8);
  uint32_t* out = sel->data() + base;
  size_t cnt = 0;
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi32(lov, v),
                                        _mm256_cmpgt_epi32(v, hiv));
    const unsigned m =
        ~static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(bad))) & 0xFFu;
    cnt = Emit8(m, i, out, cnt);
  }
  for (; i < end; ++i) {
    out[cnt] = static_cast<uint32_t>(i);
    cnt += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] <= hi);
  }
  sel->resize(base + cnt);
}

__attribute__((target("avx2"))) void SelectEq64Avx2(const int64_t* d, size_t begin,
                                                    size_t end, int64_t key,
                                                    std::vector<uint32_t>* sel) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin) + 4);
  uint32_t* out = sel->data() + base;
  size_t cnt = 0;
  const __m256i kv = _mm256_set1_epi64x(key);
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const unsigned m = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, kv))));
    cnt = Emit4(m, i, out, cnt);
  }
  for (; i < end; ++i) {
    out[cnt] = static_cast<uint32_t>(i);
    cnt += (d[i] == key);
  }
  sel->resize(base + cnt);
}

__attribute__((target("avx2"))) void SelectRange64Avx2(const int64_t* d, size_t begin,
                                                       size_t end, int64_t lo,
                                                       int64_t hi,
                                                       std::vector<uint32_t>* sel) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin) + 4);
  uint32_t* out = sel->data() + base;
  size_t cnt = 0;
  const __m256i lov = _mm256_set1_epi64x(lo);
  const __m256i hiv = _mm256_set1_epi64x(hi);
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi64(lov, v),
                                        _mm256_cmpgt_epi64(v, hiv));
    const unsigned m =
        ~static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(bad))) & 0xFu;
    cnt = Emit4(m, i, out, cnt);
  }
  for (; i < end; ++i) {
    out[cnt] = static_cast<uint32_t>(i);
    cnt += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] <= hi);
  }
  sel->resize(base + cnt);
}

__attribute__((target("avx2"))) void SelectEqF64Avx2(const double* d, size_t begin,
                                                     size_t end, double key,
                                                     std::vector<uint32_t>* sel) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin) + 4);
  uint32_t* out = sel->data() + base;
  size_t cnt = 0;
  const __m256d kv = _mm256_set1_pd(key);
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256d v = _mm256_loadu_pd(d + i);
    const unsigned m =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(v, kv, _CMP_EQ_OQ)));
    cnt = Emit4(m, i, out, cnt);
  }
  for (; i < end; ++i) {
    out[cnt] = static_cast<uint32_t>(i);
    cnt += (d[i] == key);
  }
  sel->resize(base + cnt);
}

__attribute__((target("avx2"))) void SelectRangeF64Avx2(const double* d, size_t begin,
                                                        size_t end, double lo,
                                                        double hi,
                                                        std::vector<uint32_t>* sel) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin) + 4);
  uint32_t* out = sel->data() + base;
  size_t cnt = 0;
  const __m256d lov = _mm256_set1_pd(lo);
  const __m256d hiv = _mm256_set1_pd(hi);
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256d v = _mm256_loadu_pd(d + i);
    const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(v, lov, _CMP_GE_OQ),
                                     _mm256_cmp_pd(v, hiv, _CMP_LE_OQ));
    const unsigned m = static_cast<unsigned>(_mm256_movemask_pd(ok));
    cnt = Emit4(m, i, out, cnt);
  }
  for (; i < end; ++i) {
    out[cnt] = static_cast<uint32_t>(i);
    cnt += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] <= hi);
  }
  sel->resize(base + cnt);
}

__attribute__((target("avx2"))) void GatherU32Avx2(const uint32_t* src,
                                                   const uint32_t* idx, size_t n,
                                                   uint32_t* dst) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i g =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(src), vi, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), g);
  }
  for (; i < n; ++i) dst[i] = src[idx[i]];
}

// FOR unpack: per lane, an unaligned 8-byte gather at the value's byte
// offset, a variable right shift by its bit-in-byte, and a mask. The vector
// loop only runs while the gathered window stays inside src (last lane's
// offset + 8 <= src_len); the remainder falls to the bounded scalar loop.
__attribute__((target("avx2"))) void Unpack64Avx2(const uint8_t* src, size_t src_len,
                                                  size_t n, unsigned bits,
                                                  uint64_t ref, uint64_t* dst) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vref = _mm256_set1_epi64x(static_cast<long long>(ref));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t b0 = (i + 0) * static_cast<uint64_t>(bits);
    const uint64_t b1 = (i + 1) * static_cast<uint64_t>(bits);
    const uint64_t b2 = (i + 2) * static_cast<uint64_t>(bits);
    const uint64_t b3 = (i + 3) * static_cast<uint64_t>(bits);
    if ((b3 >> 3) + 8 > src_len) break;
    const __m256i ofs = _mm256_set_epi64x(static_cast<long long>(b3 >> 3),
                                          static_cast<long long>(b2 >> 3),
                                          static_cast<long long>(b1 >> 3),
                                          static_cast<long long>(b0 >> 3));
    const __m256i sh = _mm256_set_epi64x(static_cast<long long>(b3 & 7),
                                         static_cast<long long>(b2 & 7),
                                         static_cast<long long>(b1 & 7),
                                         static_cast<long long>(b0 & 7));
    const __m256i w =
        _mm256_i64gather_epi64(reinterpret_cast<const long long*>(src), ofs, 1);
    const __m256i v = _mm256_and_si256(_mm256_srlv_epi64(w, sh), vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi64(v, vref));
  }
  ScalarUnpack64(src, src_len, i, n, bits, ref, dst);
}

__attribute__((target("avx2"))) void Unpack32Avx2(const uint8_t* src, size_t src_len,
                                                  size_t n, unsigned bits,
                                                  uint32_t* dst) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t b0 = (i + 0) * static_cast<uint64_t>(bits);
    const uint64_t b1 = (i + 1) * static_cast<uint64_t>(bits);
    const uint64_t b2 = (i + 2) * static_cast<uint64_t>(bits);
    const uint64_t b3 = (i + 3) * static_cast<uint64_t>(bits);
    if ((b3 >> 3) + 8 > src_len) break;
    const __m256i ofs = _mm256_set_epi64x(static_cast<long long>(b3 >> 3),
                                          static_cast<long long>(b2 >> 3),
                                          static_cast<long long>(b1 >> 3),
                                          static_cast<long long>(b0 >> 3));
    const __m256i sh = _mm256_set_epi64x(static_cast<long long>(b3 & 7),
                                         static_cast<long long>(b2 & 7),
                                         static_cast<long long>(b1 & 7),
                                         static_cast<long long>(b0 & 7));
    const __m256i w =
        _mm256_i64gather_epi64(reinterpret_cast<const long long*>(src), ofs, 1);
    const __m256i v = _mm256_and_si256(_mm256_srlv_epi64(w, sh), vmask);
    const __m256i packed = _mm256_permutevar8x32_epi32(v, narrow);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_castsi256_si128(packed));
  }
  ScalarUnpack32(src, src_len, i, n, bits, dst);
}

#endif  // DCY_ENC_X86

}  // namespace

// ---------------------------------------------------------------------------
// Public SIMD entry points (runtime dispatch)

void SelectEqU32(const uint32_t* d, size_t begin, size_t end, uint32_t key,
                 std::vector<uint32_t>* sel) {
  if (end <= begin) return;
#if DCY_ENC_X86
  if (SimdEnabled()) {
    // Dictionary codes are < 2^31 (PlanDict caps the dictionary), so the
    // signed epi32 compare is exact.
    SelectEq32Avx2(reinterpret_cast<const int32_t*>(d), begin, end,
                   static_cast<int32_t>(key), sel);
    return;
  }
#endif
  ScalarSelectEq(d, begin, end, key, sel);
}

void SelectRangeU32(const uint32_t* d, size_t begin, size_t end, uint32_t lo,
                    uint32_t hi, std::vector<uint32_t>* sel) {
  if (end <= begin || lo > hi) return;
#if DCY_ENC_X86
  if (SimdEnabled()) {
    SelectRange32Avx2(reinterpret_cast<const int32_t*>(d), begin, end,
                      static_cast<int32_t>(lo), static_cast<int32_t>(hi), sel);
    return;
  }
#endif
  ScalarSelectRange(d, begin, end, lo, hi, sel);
}

void SelectEqI32(const int32_t* d, size_t begin, size_t end, int32_t key,
                 std::vector<uint32_t>* sel) {
  if (end <= begin) return;
#if DCY_ENC_X86
  if (SimdEnabled()) {
    SelectEq32Avx2(d, begin, end, key, sel);
    return;
  }
#endif
  ScalarSelectEq(d, begin, end, key, sel);
}

void SelectRangeI32(const int32_t* d, size_t begin, size_t end, int32_t lo,
                    int32_t hi, std::vector<uint32_t>* sel) {
  if (end <= begin || lo > hi) return;
#if DCY_ENC_X86
  if (SimdEnabled()) {
    SelectRange32Avx2(d, begin, end, lo, hi, sel);
    return;
  }
#endif
  ScalarSelectRange(d, begin, end, lo, hi, sel);
}

void SelectEqI64(const int64_t* d, size_t begin, size_t end, int64_t key,
                 std::vector<uint32_t>* sel) {
  if (end <= begin) return;
#if DCY_ENC_X86
  if (SimdEnabled()) {
    SelectEq64Avx2(d, begin, end, key, sel);
    return;
  }
#endif
  ScalarSelectEq(d, begin, end, key, sel);
}

void SelectRangeI64(const int64_t* d, size_t begin, size_t end, int64_t lo,
                    int64_t hi, std::vector<uint32_t>* sel) {
  if (end <= begin || lo > hi) return;
#if DCY_ENC_X86
  if (SimdEnabled()) {
    SelectRange64Avx2(d, begin, end, lo, hi, sel);
    return;
  }
#endif
  ScalarSelectRange(d, begin, end, lo, hi, sel);
}

void SelectEqF64(const double* d, size_t begin, size_t end, double key,
                 std::vector<uint32_t>* sel) {
  if (end <= begin) return;
#if DCY_ENC_X86
  if (SimdEnabled()) {
    SelectEqF64Avx2(d, begin, end, key, sel);
    return;
  }
#endif
  ScalarSelectEq(d, begin, end, key, sel);
}

void SelectRangeF64(const double* d, size_t begin, size_t end, double lo,
                    double hi, std::vector<uint32_t>* sel) {
  if (end <= begin) return;
#if DCY_ENC_X86
  if (SimdEnabled()) {
    SelectRangeF64Avx2(d, begin, end, lo, hi, sel);
    return;
  }
#endif
  ScalarSelectRange(d, begin, end, lo, hi, sel);
}

void GatherU32(const uint32_t* src, const uint32_t* idx, size_t n, uint32_t* dst) {
#if DCY_ENC_X86
  if (SimdEnabled()) {
    GatherU32Avx2(src, idx, n, dst);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) dst[i] = src[idx[i]];
}

// ---------------------------------------------------------------------------
// Bit unpack entry points

bool UnpackBits64(const uint8_t* src, size_t src_len, size_t n, unsigned bits,
                  uint64_t ref, uint64_t* dst) {
  if (bits > kMaxPackBits) return false;
  if (src_len < PackedBytes(n, bits)) return false;
  if (bits == 0) {
    std::fill(dst, dst + n, ref);
    return true;
  }
#if DCY_ENC_X86
  if (SimdEnabled()) {
    Unpack64Avx2(src, src_len, n, bits, ref, dst);
    return true;
  }
#endif
  ScalarUnpack64(src, src_len, 0, n, bits, ref, dst);
  return true;
}

bool UnpackBits32(const uint8_t* src, size_t src_len, size_t n, unsigned bits,
                  uint32_t* dst) {
  if (bits > 32) return false;
  if (src_len < PackedBytes(n, bits)) return false;
  if (bits == 0) {
    std::fill(dst, dst + n, 0u);
    return true;
  }
#if DCY_ENC_X86
  if (SimdEnabled()) {
    Unpack32Avx2(src, src_len, n, bits, dst);
    return true;
  }
#endif
  ScalarUnpack32(src, src_len, 0, n, bits, dst);
  return true;
}

// ---------------------------------------------------------------------------
// Codec planning

std::optional<DictPlan> PlanDict(const StrColumn& c) {
  const size_t n = c.size();
  if (n < 16) return std::nullopt;

  // Cheap bail-out: sample the distinct ratio of a prefix so incompressible
  // (high-cardinality) columns only pay for the sample, not a full build.
  {
    const size_t sample = std::min<size_t>(n, 1024);
    std::unordered_set<std::string_view> seen;
    seen.reserve(sample * 2);
    for (size_t i = 0; i < sample; ++i) seen.insert(c.GetString(i));
    if (seen.size() * 4 > sample * 3) return std::nullopt;
  }

  std::unordered_map<std::string_view, uint32_t> ids;
  std::vector<uint32_t> provisional(n);
  std::vector<std::string_view> uniq;
  for (size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = ids.emplace(c.GetString(i),
                                            static_cast<uint32_t>(uniq.size()));
    if (inserted) uniq.push_back(it->first);
    provisional[i] = it->second;
  }
  const size_t d = uniq.size();
  // Codes must stay below 2^31 so the signed AVX2 compares stay exact.
  if (d == 0 || d >= (uint64_t{1} << 31)) return std::nullopt;

  size_t dict_heap = 0;
  for (const auto& s : uniq) dict_heap += s.size();
  const unsigned code_bits = d <= 1 ? 0 : BitWidth(d - 1);
  // Wire bodies (serialize.cc layout): dict = count + offsets + heap header +
  // heap + code width + packed codes; plain = offset header + offsets + heap
  // header + heap.
  const size_t dict_body =
      4 + (d + 1) * 4 + 8 + dict_heap + 1 + PackedBytes(n, code_bits);
  const size_t plain_body = 8 + (n + 1) * 4 + 8 + c.heap().size();
  if (dict_body >= plain_body) return std::nullopt;

  // Sort the dictionary so code order == string order, then remap the codes.
  std::vector<uint32_t> order(d);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&uniq](uint32_t a, uint32_t b) { return uniq[a] < uniq[b]; });
  std::vector<uint32_t> rank(d);
  for (size_t k = 0; k < d; ++k) rank[order[k]] = static_cast<uint32_t>(k);

  DictPlan plan;
  plan.code_bits = code_bits;
  plan.offsets.reserve(d + 1);
  plan.offsets.push_back(0);
  plan.heap.reserve(dict_heap);
  for (size_t k = 0; k < d; ++k) {
    plan.heap.append(uniq[order[k]]);
    plan.offsets.push_back(static_cast<uint32_t>(plan.heap.size()));
  }
  plan.codes.resize(n);
  for (size_t i = 0; i < n; ++i) plan.codes[i] = rank[provisional[i]];
  return plan;
}

std::optional<ForPlan> PlanFor(const Column& c) {
  const size_t n = c.size();
  if (n < 8) return std::nullopt;
  if (c.kind() == ColumnKind::kDense) {
    // A dense tail is a sorted iota: always packable, and always smaller
    // than the 8n bytes a pass-through body materializes for it.
    const auto& dc = static_cast<const DenseOidColumn&>(c);
    return ForPlan{static_cast<int64_t>(dc.seqbase()), BitWidth(n - 1)};
  }
  if (c.kind() != ColumnKind::kFixed) return std::nullopt;
  switch (c.type()) {
    case ValType::kOid:
    case ValType::kInt:
    case ValType::kLng:
    case ValType::kDate:
      break;
    default:
      return std::nullopt;
  }
  if (!c.IsSorted()) return std::nullopt;
  const int64_t first = c.GetInt64(0);
  const int64_t last = c.GetInt64(n - 1);
  // Sorted, so last is the max; wrapping u64 subtraction is exact even for
  // mixed-sign ranges.
  const uint64_t range = static_cast<uint64_t>(last) - static_cast<uint64_t>(first);
  const unsigned bits = BitWidth(range);
  if (bits > kMaxPackBits) return std::nullopt;
  const size_t packed_body = 8 + 1 + PackedBytes(n, bits);
  const size_t plain_body = n * ValTypeWidth(c.type());
  if (packed_body >= plain_body) return std::nullopt;
  return ForPlan{first, bits};
}

}  // namespace dcy::bat::enc
