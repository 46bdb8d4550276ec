#include "bat/serialize.h"

#include <cstring>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DCY_CRC_X86 1
#else
#define DCY_CRC_X86 0
#endif

namespace dcy::bat {

namespace {

constexpr uint32_t kMagic = 0xDC10B47u;  // "DC1.0 BAT"
// Per-column codec byte ahead of each body; any other version decodes as
// Corruption.
constexpr uint16_t kVersion = 2;

enum class HeadKind : uint8_t { kDense = 0, kMaterialized = 1 };

/// Per-column encoding byte: low nibble = codec, high bits carry the
/// sender's memoized sortedness so the receiver's cache starts warm.
enum class WireCodec : uint8_t { kPlain = 0, kDict = 1, kFor = 2 };
constexpr uint8_t kEncCodecMask = 0x0F;
constexpr uint8_t kEncSortedKnown = 0x10;
constexpr uint8_t kEncSorted = 0x20;
constexpr uint8_t kEncKnownBits = 0x3F;

constexpr size_t kPreludeBytes = 4 + 2 + 1 + 1;  // magic, version, props, head kind
constexpr size_t kColHeaderBytes = 1 + 1 + 8;    // type, encoding, row count
constexpr size_t kCrcBytes = 4;

/// \brief Append writer over a buffer whose exact final size is reserved up
/// front: every byte is written exactly once (no value-initializing resize
/// pass over the frame, and the reserved capacity rules out reallocation).
class Cursor {
 public:
  Cursor(std::string* buf, size_t total) : buf_(buf) {
    buf_->clear();
    buf_->reserve(total);
  }

  void PutBytes(const void* p, size_t n) { buf_->append(static_cast<const char*>(p), n); }

  template <typename T>
  void Put(T v) {
    PutBytes(&v, sizeof(v));
  }

  /// Extends by n bytes in place and returns the write pointer (for bulk
  /// loops that fill the region directly).
  char* Skip(size_t n) {
    const size_t pos = buf_->size();
    buf_->resize(pos + n);
    return buf_->data() + pos;
  }

  size_t pos() const { return buf_->size(); }

 private:
  std::string* buf_;
};

template <typename T>
Status Get(std::string_view in, size_t* pos, T* v) {
  if (*pos + sizeof(T) > in.size()) return Status::Corruption("truncated BAT buffer");
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return Status::OK();
}

/// Plain string body size ([num_offsets][offsets][heap_size][heap]); a
/// dictionary column re-materializes its per-row strings here (only
/// compression-off frames pay the re-materialization itself).
size_t PlainStrBodySize(const Column& c) {
  if (c.kind() == ColumnKind::kStr) {
    const auto& sc = static_cast<const StrColumn&>(c);
    return 8 + sc.offsets().size() * sizeof(uint32_t) + 8 + sc.heap().size();
  }
  DCY_DCHECK(c.kind() == ColumnKind::kDict);
  const auto& dc = static_cast<const DictStrColumn&>(c);
  const auto& doffs = dc.dict()->offsets();
  uint64_t heap = 0;
  for (const uint32_t code : dc.codes()) heap += doffs[code + 1] - doffs[code];
  return 8 + (c.size() + 1) * sizeof(uint32_t) + 8 + heap;
}

void PutPlainStrBody(Cursor* out, const Column& c) {
  if (c.kind() == ColumnKind::kStr) {
    const auto& sc = static_cast<const StrColumn&>(c);
    out->Put<uint64_t>(sc.offsets().size());
    out->PutBytes(sc.offsets().data(), sc.offsets().size() * sizeof(uint32_t));
    out->Put<uint64_t>(sc.heap().size());
    out->PutBytes(sc.heap().data(), sc.heap().size());
    return;
  }
  DCY_DCHECK(c.kind() == ColumnKind::kDict);
  const auto& dc = static_cast<const DictStrColumn&>(c);
  const uint32_t* codes = dc.codes().data();
  const auto& doffs = dc.dict()->offsets();
  const char* dheap = dc.dict()->heap().data();
  const size_t n = c.size();
  out->Put<uint64_t>(n + 1);
  char* off_dst = out->Skip((n + 1) * sizeof(uint32_t));
  uint64_t heap_size = 0;
  for (size_t i = 0; i < n; ++i) heap_size += doffs[codes[i] + 1] - doffs[codes[i]];
  out->Put<uint64_t>(heap_size);
  char* heap_dst = out->Skip(heap_size);
  uint32_t off = 0;
  std::memcpy(off_dst, &off, sizeof(off));
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lo = doffs[codes[i]], len = doffs[codes[i] + 1] - lo;
    std::memcpy(heap_dst + off, dheap + lo, len);
    off += len;
    std::memcpy(off_dst + (i + 1) * sizeof(off), &off, sizeof(off));
  }
}

void PutPlainFixedBody(Cursor* out, const Column& c) {
  const size_t payload = c.size() * ValTypeWidth(c.type());
  if (payload == 0) return;
  if (c.kind() == ColumnKind::kFixed) {
    // Materialized fixed width: the whole payload in one memcpy.
    out->PutBytes(c.RawData(), payload);
    return;
  }
  // Dense oid range (no backing array): stream the iota straight into the
  // frame. Dense *heads* never reach here (encoded as seqbase+count); this
  // covers dense tails such as uselect/mark results.
  DCY_DCHECK(c.kind() == ColumnKind::kDense);
  const Oid seq = static_cast<const DenseOidColumn&>(c).seqbase();
  char* dst = out->Skip(payload);
  for (size_t i = 0; i < c.size(); ++i) {
    const uint64_t v = seq + i;  // memcpy: the frame offset is unaligned
    std::memcpy(dst + i * sizeof(v), &v, sizeof(v));
  }
}

/// One column's codec decision plus everything needed to emit its body.
struct ColPlan {
  const Column* col = nullptr;
  WireCodec codec = WireCodec::kPlain;
  uint8_t enc_byte = 0;
  size_t plain_size = 0;              ///< pass-through body bytes
  size_t body_size = 0;               ///< bytes after [type][enc][count]
  unsigned code_bits = 0;             ///< dict codec
  std::optional<enc::DictPlan> dict;  ///< owned when planned from a plain StrColumn
  enc::ForPlan forp{};
};

uint8_t SortednessBits(const Column& c) {
  if (!c.SortednessKnown()) return 0;
  return kEncSortedKnown | (c.IsSorted() ? kEncSorted : 0);
}

/// Chooses one column's codec. With compression off every column is
/// pass-through and no codec analysis runs.
ColPlan PlanColumn(const Column& c, bool compress) {
  ColPlan p;
  p.col = &c;
  p.plain_size = c.type() == ValType::kStr ? PlainStrBodySize(c)
                                           : c.size() * ValTypeWidth(c.type());
  p.body_size = p.plain_size;
  if (compress) {
    if (c.kind() == ColumnKind::kDict) {
      // Already dictionary-encoded in memory (decoded off the ring): reuse
      // its dictionary and codes verbatim, no analysis.
      const auto& dc = static_cast<const DictStrColumn&>(c);
      const size_t d = dc.dict_size();
      p.codec = WireCodec::kDict;
      p.code_bits = d <= 1 ? 0 : enc::BitWidth(d - 1);
      p.body_size = 4 + (d + 1) * sizeof(uint32_t) + 8 + dc.dict()->heap().size() + 1 +
                    enc::PackedBytes(c.size(), p.code_bits);
    } else if (c.type() == ValType::kStr) {
      if (auto dp = enc::PlanDict(static_cast<const StrColumn&>(c))) {
        p.codec = WireCodec::kDict;
        p.code_bits = dp->code_bits;
        p.body_size = 4 + dp->offsets.size() * sizeof(uint32_t) + 8 + dp->heap.size() +
                      1 + enc::PackedBytes(c.size(), dp->code_bits);
        p.dict = std::move(dp);
      }
    } else if (auto fp = enc::PlanFor(c)) {
      p.codec = WireCodec::kFor;
      p.forp = *fp;
      p.body_size = 8 + 1 + enc::PackedBytes(c.size(), fp->bits);
    }
  }
  p.enc_byte = static_cast<uint8_t>(p.codec);
  if (p.codec == WireCodec::kFor) {
    p.enc_byte |= kEncSortedKnown | kEncSorted;  // FOR implies sorted
  } else {
    p.enc_byte |= SortednessBits(c);
  }
  return p;
}

void PutDictBody(Cursor* out, const ColPlan& p) {
  const Column& c = *p.col;
  const uint32_t* offsets = nullptr;
  size_t num_offsets = 0;
  const std::string* heap = nullptr;
  const uint32_t* codes = nullptr;
  if (p.dict) {
    offsets = p.dict->offsets.data();
    num_offsets = p.dict->offsets.size();
    heap = &p.dict->heap;
    codes = p.dict->codes.data();
  } else {
    const auto& dc = static_cast<const DictStrColumn&>(c);
    offsets = dc.dict()->offsets().data();
    num_offsets = dc.dict()->offsets().size();
    heap = &dc.dict()->heap();
    codes = dc.codes().data();
  }
  out->Put<uint32_t>(static_cast<uint32_t>(num_offsets - 1));
  out->PutBytes(offsets, num_offsets * sizeof(uint32_t));
  out->Put<uint64_t>(heap->size());
  out->PutBytes(heap->data(), heap->size());
  out->Put<uint8_t>(static_cast<uint8_t>(p.code_bits));
  const size_t packed = enc::PackedBytes(c.size(), p.code_bits);
  if (packed == 0) return;
  auto* dst = reinterpret_cast<uint8_t*>(out->Skip(packed));
  enc::PackBits(c.size(), p.code_bits, dst,
                [codes](size_t i) { return uint64_t{codes[i]}; });
}

void PutForBody(Cursor* out, const ColPlan& p) {
  const Column& c = *p.col;
  const size_t n = c.size();
  const uint64_t ref = static_cast<uint64_t>(p.forp.ref);
  const unsigned bits = p.forp.bits;
  out->Put<uint64_t>(ref);
  out->Put<uint8_t>(static_cast<uint8_t>(bits));
  const size_t packed = enc::PackedBytes(n, bits);
  if (packed == 0) return;
  auto* dst = reinterpret_cast<uint8_t*>(out->Skip(packed));
  if (c.kind() == ColumnKind::kDense) {
    // A dense tail's deltas are the iota itself.
    enc::PackBits(n, bits, dst, [](size_t i) { return static_cast<uint64_t>(i); });
    return;
  }
  switch (c.type()) {
    case ValType::kOid: {
      const auto* v = static_cast<const Oid*>(c.RawData());
      enc::PackBits(n, bits, dst, [v, ref](size_t i) { return v[i] - ref; });
      break;
    }
    case ValType::kInt:
    case ValType::kDate: {
      const auto* v = static_cast<const int32_t*>(c.RawData());
      enc::PackBits(n, bits, dst, [v, ref](size_t i) {
        return static_cast<uint64_t>(static_cast<int64_t>(v[i])) - ref;
      });
      break;
    }
    case ValType::kLng: {
      const auto* v = static_cast<const int64_t*>(c.RawData());
      enc::PackBits(n, bits, dst,
                    [v, ref](size_t i) { return static_cast<uint64_t>(v[i]) - ref; });
      break;
    }
    default:
      DCY_FATAL() << "FOR codec on non-integer column";
  }
}

/// One column: [type u8][enc u8][count u64][codec body].
void PutColumn(Cursor* out, const ColPlan& p) {
  const Column& c = *p.col;
  out->Put<uint8_t>(static_cast<uint8_t>(c.type()));
  out->Put<uint8_t>(p.enc_byte);
  out->Put<uint64_t>(c.size());
  switch (p.codec) {
    case WireCodec::kPlain:
      if (c.type() == ValType::kStr) PutPlainStrBody(out, c);
      else PutPlainFixedBody(out, c);
      break;
    case WireCodec::kDict:
      PutDictBody(out, p);
      break;
    case WireCodec::kFor:
      PutForBody(out, p);
      break;
  }
}

/// Decodes a pass-through column body.
Result<ColumnPtr> GetPlainBody(std::string_view in, size_t* pos, ValType type,
                               uint64_t n) {
  if (type == ValType::kStr) {
    uint64_t num_offsets = 0;
    DCY_RETURN_NOT_OK(Get(in, pos, &num_offsets));
    if (num_offsets != n + 1) return Status::Corruption("bad offset count");
    if (num_offsets * sizeof(uint32_t) > in.size() - *pos) {
      return Status::Corruption("truncated offsets");
    }
    std::vector<uint32_t> offsets(num_offsets);
    std::memcpy(offsets.data(), in.data() + *pos, num_offsets * sizeof(uint32_t));
    *pos += num_offsets * sizeof(uint32_t);
    uint64_t heap_size = 0;
    DCY_RETURN_NOT_OK(Get(in, pos, &heap_size));
    if (heap_size > in.size() - *pos) return Status::Corruption("truncated heap");
    std::string heap(in.data() + *pos, heap_size);
    *pos += heap_size;
    return ColumnPtr(std::make_shared<StrColumn>(std::move(offsets), std::move(heap)));
  }
  // Fixed width: one bounds check, one memcpy into the backing vector.
  const size_t payload = n * ValTypeWidth(type);
  if (payload > in.size() - *pos) return Status::Corruption("truncated column payload");
  const char* src = in.data() + *pos;
  *pos += payload;
  auto copy_vec = [&](auto tag) {
    using T = decltype(tag);
    std::vector<T> v(n);
    if (payload > 0) std::memcpy(v.data(), src, payload);
    return ColumnPtr(std::make_shared<FixedColumn<T>>(type, std::move(v)));
  };
  switch (type) {
    case ValType::kOid: return copy_vec(Oid{});
    case ValType::kInt:
    case ValType::kDate: return copy_vec(int32_t{});
    case ValType::kLng: return copy_vec(int64_t{});
    case ValType::kDbl: return copy_vec(double{});
    case ValType::kStr: break;  // unreachable
  }
  return Status::Corruption("bad column type");
}

/// One column: [type u8][enc u8][count u64][codec body].
Result<ColumnPtr> GetColumn(std::string_view in, size_t* pos) {
  uint8_t type_raw = 0, enc_byte = 0;
  uint64_t n = 0;
  DCY_RETURN_NOT_OK(Get(in, pos, &type_raw));
  DCY_RETURN_NOT_OK(Get(in, pos, &enc_byte));
  DCY_RETURN_NOT_OK(Get(in, pos, &n));
  if (type_raw > static_cast<uint8_t>(ValType::kDate)) {
    return Status::Corruption("bad column type");
  }
  if ((enc_byte & ~kEncKnownBits) != 0) return Status::Corruption("bad encoding byte");
  const uint8_t codec_raw = enc_byte & kEncCodecMask;
  if (codec_raw > static_cast<uint8_t>(WireCodec::kFor)) {
    return Status::Corruption("unknown column codec");
  }
  const ValType type = static_cast<ValType>(type_raw);
  const auto codec = static_cast<WireCodec>(codec_raw);
  // Packed bodies can legitimately cost under a byte per row (a constant
  // FOR column is 9 bytes at any length), so the plain bytes-per-row bound
  // only applies to pass-through columns; cap packed counts absolutely.
  if (n > (uint64_t{1} << 32)) return Status::Corruption("implausible row count");

  ColumnPtr col;
  switch (codec) {
    case WireCodec::kPlain: {
      if (n > in.size() / 4) return Status::Corruption("implausible row count");
      DCY_ASSIGN_OR_RETURN(col, GetPlainBody(in, pos, type, n));
      break;
    }
    case WireCodec::kDict: {
      if (type != ValType::kStr) {
        return Status::Corruption("dict codec on non-string column");
      }
      uint32_t dict_count = 0;
      DCY_RETURN_NOT_OK(Get(in, pos, &dict_count));
      if (dict_count >= (uint32_t{1} << 31)) {
        return Status::Corruption("implausible dictionary");
      }
      const uint64_t num_offsets = uint64_t{dict_count} + 1;
      if (num_offsets * sizeof(uint32_t) > in.size() - *pos) {
        return Status::Corruption("truncated dictionary offsets");
      }
      std::vector<uint32_t> offsets(num_offsets);
      std::memcpy(offsets.data(), in.data() + *pos, num_offsets * sizeof(uint32_t));
      *pos += num_offsets * sizeof(uint32_t);
      uint64_t heap_size = 0;
      DCY_RETURN_NOT_OK(Get(in, pos, &heap_size));
      if (heap_size > in.size() - *pos) {
        return Status::Corruption("truncated dictionary heap");
      }
      // The dictionary feeds GetString for every row, so its offsets are
      // validated up front (monotone, heap-bounded) — unlike plain string
      // bodies, where the CRC is the only guard.
      if (offsets.front() != 0 || offsets.back() != heap_size) {
        return Status::Corruption("bad dictionary offsets");
      }
      for (size_t k = 1; k < offsets.size(); ++k) {
        if (offsets[k] < offsets[k - 1]) {
          return Status::Corruption("bad dictionary offsets");
        }
      }
      std::string heap(in.data() + *pos, heap_size);
      *pos += heap_size;
      uint8_t code_bits = 0;
      DCY_RETURN_NOT_OK(Get(in, pos, &code_bits));
      if (code_bits > 32) return Status::Corruption("bad code width");
      const size_t packed = enc::PackedBytes(n, code_bits);
      if (packed > in.size() - *pos) return Status::Corruption("truncated codes");
      std::vector<uint32_t> codes(n);
      // Readable length is the whole remaining frame, not just the packed
      // payload: the unpack windows may read a few bytes past the payload
      // but stay inside the buffer, which keeps the SIMD path on through
      // the tail.
      if (!enc::UnpackBits32(reinterpret_cast<const uint8_t*>(in.data() + *pos),
                             in.size() - *pos, n, code_bits, codes.data())) {
        return Status::Corruption("truncated codes");
      }
      *pos += packed;
      for (const uint32_t code : codes) {
        if (code >= dict_count) return Status::Corruption("code out of dictionary range");
      }
      auto dict = std::make_shared<StrColumn>(std::move(offsets), std::move(heap));
      col = std::make_shared<DictStrColumn>(std::move(dict), std::move(codes));
      break;
    }
    case WireCodec::kFor: {
      if (type == ValType::kDbl || type == ValType::kStr) {
        return Status::Corruption("FOR codec on non-integer column");
      }
      uint64_t ref = 0;
      uint8_t bits = 0;
      DCY_RETURN_NOT_OK(Get(in, pos, &ref));
      DCY_RETURN_NOT_OK(Get(in, pos, &bits));
      if (bits > enc::kMaxPackBits) return Status::Corruption("bad delta width");
      const size_t packed = enc::PackedBytes(n, bits);
      if (packed > in.size() - *pos) return Status::Corruption("truncated deltas");
      const auto* src = reinterpret_cast<const uint8_t*>(in.data() + *pos);
      const size_t avail = in.size() - *pos;
      if (type == ValType::kInt || type == ValType::kDate) {
        std::vector<uint64_t> tmp(n);
        if (!enc::UnpackBits64(src, avail, n, bits, ref, tmp.data())) {
          return Status::Corruption("truncated deltas");
        }
        std::vector<int32_t> v(n);
        for (size_t i = 0; i < n; ++i) v[i] = static_cast<int32_t>(tmp[i]);
        col = std::make_shared<FixedColumn<int32_t>>(type, std::move(v));
      } else if (type == ValType::kOid) {
        std::vector<Oid> v(n);
        if (!enc::UnpackBits64(src, avail, n, bits, ref, v.data())) {
          return Status::Corruption("truncated deltas");
        }
        col = std::make_shared<FixedColumn<Oid>>(type, std::move(v));
      } else {
        std::vector<int64_t> v(n);
        if (!enc::UnpackBits64(src, avail, n, bits, ref,
                               reinterpret_cast<uint64_t*>(v.data()))) {
          return Status::Corruption("truncated deltas");
        }
        col = std::make_shared<FixedColumn<int64_t>>(type, std::move(v));
      }
      *pos += packed;
      break;
    }
  }
  // Satellite of the codec work: the sender's memoized sortedness rides the
  // encoding byte, so the receiver's IsSorted() cache starts warm.
  if ((enc_byte & kEncSortedKnown) != 0) {
    col->SeedSortedness((enc_byte & kEncSorted) != 0);
  }
  return col;
}

uint8_t PackProps(const Bat::Properties& p) {
  return static_cast<uint8_t>((p.tsorted ? 1 : 0) | (p.tkey ? 2 : 0) |
                              (p.hsorted ? 4 : 0) | (p.hkey ? 8 : 0));
}

Bat::Properties UnpackProps(uint8_t v) {
  Bat::Properties p;
  p.tsorted = (v & 1) != 0;
  p.tkey = (v & 2) != 0;
  p.hsorted = (v & 4) != 0;
  p.hkey = (v & 8) != 0;
  return p;
}

/// Slicing-by-8 over the CRC register (not inverted on entry or exit):
/// 8 input bytes per step through 8 derived tables. It hashes short inputs,
/// the unaligned head and the tail around the fold, and whole inputs on
/// hosts without PCLMULQDQ or with the scalar paths forced.
uint32_t Crc32Table(uint32_t crc, const uint8_t* p, size_t n) {
  static uint32_t table[8][256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        table[s][i] = (table[s - 1][i] >> 8) ^ table[0][table[s - 1][i] & 0xFF];
      }
    }
    return true;
  }();
  (void)init;
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^
          table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24] ^ table[3][hi & 0xFF] ^
          table[2][(hi >> 8) & 0xFF] ^ table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  for (size_t i = 0; i < n; ++i) crc = table[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return crc;
}

#if DCY_CRC_X86
/// One fold step: carries the 128-bit remainder x forward by the distance
/// that the constant pair k encodes, and adds the next 16 input bytes.
__attribute__((target("pclmul"))) inline __m128i Fold128(__m128i x, __m128i k,
                                                         __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
      next);
}

/// Folds n bytes (16-byte aligned, n a multiple of 16 and at least 64) into
/// the CRC register with carry-less multiply, after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
/// 2009). Four 128-bit lanes fold 64 bytes per step, then fold into one
/// lane, which a 64-bit and a 32-bit fold and a Barrett reduction bring
/// back to 32 bits. With P = 0x104C11DB7 (IEEE, reflected 0xEDB88320) and
/// each constant bit-reflected: k1, k2 = x^(4*128+32), x^(4*128-32) mod P;
/// k3, k4 = x^(128+32), x^(128-32) mod P; k5 = x^64 mod P (all shifted left
/// one bit); P' = P and mu = floor(x^64 / P), both 33 bits wide.
__attribute__((target("pclmul"))) uint32_t Crc32Clmul(uint32_t crc, const uint8_t* p,
                                                      size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto* v = reinterpret_cast<const __m128i*>(p);

  __m128i x1 = _mm_xor_si128(_mm_load_si128(v), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = _mm_load_si128(v + 1);
  __m128i x3 = _mm_load_si128(v + 2);
  __m128i x4 = _mm_load_si128(v + 3);
  v += 4;
  n -= 64;
  while (n >= 64) {
    x1 = Fold128(x1, k1k2, _mm_load_si128(v));
    x2 = Fold128(x2, k1k2, _mm_load_si128(v + 1));
    x3 = Fold128(x3, k1k2, _mm_load_si128(v + 2));
    x4 = Fold128(x4, k1k2, _mm_load_si128(v + 3));
    v += 4;
    n -= 64;
  }

  // Fold the four lanes, then any remaining 16-byte blocks, into x1.
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; n -= 16) x1 = Fold128(x1, k3k4, _mm_load_si128(v++));

  // 128 -> 64 bits (k4), 64 -> 32 bits (k5), Barrett reduction to the CRC.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}
#endif

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
#if DCY_CRC_X86
  if (n >= 64 && enc::ClmulEnabled()) {
    const size_t head = (0 - reinterpret_cast<uintptr_t>(p)) & 15;
    crc = Crc32Table(crc, p, head);
    p += head;
    n -= head;
    const size_t bulk = n & ~size_t{15};
    if (bulk >= 64) {
      crc = Crc32Clmul(crc, p, bulk);
      p += bulk;
      n -= bulk;
    }
  }
#endif
  return Crc32Table(crc, p, n) ^ 0xFFFFFFFFu;
}

struct FrameEncoder::Plan {
  const Bat* bat = nullptr;
  std::optional<ColPlan> head;  ///< nullopt when the head is dense
  ColPlan tail;
  size_t total = 0;
  CodecStats stats;
};

FrameEncoder::FrameEncoder(const Bat& b) : plan_(std::make_unique<Plan>()) {
  Plan& p = *plan_;
  p.bat = &b;
  const bool compress = enc::WireCompressionEnabled();
  size_t total = kPreludeBytes + kCrcBytes;
  size_t raw = total;
  const auto plan_column = [&](const Column& c) {
    ColPlan cp = PlanColumn(c, compress);
    total += kColHeaderBytes + cp.body_size;
    raw += kColHeaderBytes + cp.plain_size;
    switch (cp.codec) {
      case WireCodec::kPlain: ++p.stats.plain_columns; break;
      case WireCodec::kDict: ++p.stats.dict_columns; break;
      case WireCodec::kFor: ++p.stats.for_columns; break;
    }
    return cp;
  };
  if (b.HasDenseHead()) {
    total += 8 + 8;  // seqbase + count
    raw += 8 + 8;
  } else {
    p.head = plan_column(*b.head());
  }
  p.tail = plan_column(*b.tail());
  p.total = total;
  p.stats.raw_bytes = raw;
  p.stats.wire_bytes = total;
}

FrameEncoder::~FrameEncoder() = default;

size_t FrameEncoder::encoded_size() const { return plan_->total; }

const CodecStats& FrameEncoder::stats() const { return plan_->stats; }

void FrameEncoder::SerializeInto(std::string* out) const {
  const Plan& p = *plan_;
  const Bat& b = *p.bat;
  Cursor cur(out, p.total);
  cur.Put<uint32_t>(kMagic);
  cur.Put<uint16_t>(kVersion);
  cur.Put<uint8_t>(PackProps(b.props()));

  if (b.HasDenseHead()) {
    cur.Put<uint8_t>(static_cast<uint8_t>(HeadKind::kDense));
    cur.Put<uint64_t>(b.HeadSeqbase());
    cur.Put<uint64_t>(b.size());
  } else {
    cur.Put<uint8_t>(static_cast<uint8_t>(HeadKind::kMaterialized));
    PutColumn(&cur, *p.head);
  }
  PutColumn(&cur, p.tail);
  cur.Put<uint32_t>(Crc32(out->data(), cur.pos()));
  DCY_DCHECK(out->size() == p.total);
}

size_t EncodedSize(const Bat& b) { return FrameEncoder(b).encoded_size(); }

void SerializeInto(const Bat& b, std::string* out) {
  FrameEncoder(b).SerializeInto(out);
}

std::string Serialize(const Bat& b) {
  std::string out;
  SerializeInto(b, &out);
  return out;
}

Result<BatPtr> Deserialize(std::string_view buffer) {
  if (buffer.size() < kPreludeBytes + kCrcBytes) {
    return Status::Corruption("BAT buffer too small");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buffer.data() + buffer.size() - kCrcBytes, kCrcBytes);
  if (Crc32(buffer.data(), buffer.size() - kCrcBytes) != stored_crc) {
    return Status::Corruption("BAT buffer CRC mismatch");
  }

  size_t pos = 0;
  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t props_raw = 0, head_kind = 0;
  DCY_RETURN_NOT_OK(Get(buffer, &pos, &magic));
  if (magic != kMagic) return Status::Corruption("bad BAT magic");
  DCY_RETURN_NOT_OK(Get(buffer, &pos, &version));
  if (version != kVersion) return Status::Corruption("unsupported BAT version");
  DCY_RETURN_NOT_OK(Get(buffer, &pos, &props_raw));
  DCY_RETURN_NOT_OK(Get(buffer, &pos, &head_kind));

  ColumnPtr head;
  if (head_kind == static_cast<uint8_t>(HeadKind::kDense)) {
    uint64_t seqbase = 0, n = 0;
    DCY_RETURN_NOT_OK(Get(buffer, &pos, &seqbase));
    DCY_RETURN_NOT_OK(Get(buffer, &pos, &n));
    head = MakeDenseOid(seqbase, n);
  } else {
    DCY_ASSIGN_OR_RETURN(head, GetColumn(buffer, &pos));
  }
  DCY_ASSIGN_OR_RETURN(ColumnPtr tail, GetColumn(buffer, &pos));
  if (head->size() != tail->size()) return Status::Corruption("head/tail size mismatch");
  return BatPtr(std::make_shared<Bat>(std::move(head), std::move(tail),
                                      UnpackProps(props_raw)));
}

}  // namespace dcy::bat
