// BAT <-> wire-buffer serialization for ring transport and cold storage.
// The format is a self-describing little-endian layout with a CRC32 footer;
// the zero-copy RDMA path (src/rdma) hands the encoded buffer across nodes
// without re-encoding. Encoding is bulk: the exact frame size is computed up
// front, the buffer is sized once, and fixed-width columns land with a
// single memcpy (dense oid ranges encode as two words of metadata).
//
// One frame layout (version 2): every column carries an encoding byte
// selecting a codec — pass-through, dictionary (sorted dict + bit-packed
// codes for low-cardinality strings), or FOR (reference + bit-packed deltas
// for sorted integers) — plus the sender's memoized sortedness so receivers
// never rescan. With enc::WireCompressionEnabled() off every column is
// pass-through. Frames of the retired version 1 decode as Corruption.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "bat/bat.h"
#include "bat/encoding.h"
#include "common/status.h"

namespace dcy::bat {

/// Per-frame codec accounting, accumulated into the ring's bandwidth
/// counters (RingCluster::BandwidthMetrics).
struct CodecStats {
  size_t raw_bytes = 0;       ///< the same frame with every column pass-through
  size_t wire_bytes = 0;      ///< actual frame size
  uint32_t dict_columns = 0;
  uint32_t for_columns = 0;
  uint32_t plain_columns = 0;
};

/// \brief Plans the per-column codecs for one BAT once, then answers both
/// halves of the ring's pooled-frame handshake — Acquire(encoded_size())
/// followed by SerializeInto() — without re-running codec analysis.
class FrameEncoder {
 public:
  explicit FrameEncoder(const Bat& b);
  FrameEncoder(const FrameEncoder&) = delete;
  FrameEncoder& operator=(const FrameEncoder&) = delete;
  ~FrameEncoder();

  size_t encoded_size() const;
  void SerializeInto(std::string* out) const;
  const CodecStats& stats() const;

 private:
  struct Plan;
  std::unique_ptr<Plan> plan_;
};

/// Exact encoded frame size of `b` (header, both columns, CRC footer).
/// Convenience wrapper over FrameEncoder: deterministic, but plans codecs
/// afresh — pair EncodedSize/SerializeInto calls are fine, the ring hot
/// path uses FrameEncoder to plan once.
size_t EncodedSize(const Bat& b);

/// Encodes into `*out`, replacing its contents. The buffer is resized to
/// EncodedSize(b) exactly — callers reusing pooled frames pay no
/// reallocation once the frame has grown to the working-set BAT size.
void SerializeInto(const Bat& b, std::string* out);

/// Encodes a BAT (header, both columns, properties, CRC).
std::string Serialize(const Bat& b);

/// Decodes; verifies magic, version and CRC. Dictionary columns decode to
/// DictStrColumn (kernels run on the codes), FOR columns unpack to plain
/// fixed columns with sortedness pre-seeded.
Result<BatPtr> Deserialize(std::string_view buffer);

/// CRC32 (IEEE, table-driven) over a byte range.
uint32_t Crc32(const void* data, size_t n);

}  // namespace dcy::bat
