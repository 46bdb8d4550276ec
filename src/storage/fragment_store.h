// The per-node two-tier fragment store: every resident fragment occupies a
// ref-counted buffer frame under a hard byte budget; when admission would
// exceed it, the lowest-interest unpinned frames are spilled to the
// checksummed on-disk tier (spill_file.h) by a background eviction thread
// (asynchronous, batched writes) and promoted back when a pin faults on
// them. Modeled on a buffer manager's frame/eviction-provider split
// (ScaleStore's Buffermanager + PageProvider), collapsed to fragment
// granularity: fragments are immutable, so a "frame" is just the shared
// BatPtr plus pin count and tier bookkeeping — no latching or dirty state.
//
// Robustness contract:
//  - Admission beyond the budget is typed ResourceExhausted backpressure
//    carrying the numbers (requested, budget, resident, spill queue), never
//    bad_alloc. Pins on spilled fragments block with a deadline while the
//    eviction thread makes room, then fail typed.
//  - A damaged spill file (torn write, bit rot) decodes to Corruption, is
//    deleted, and the fragment is reported for re-fetch from the ring — a
//    corrupt image is never served.
//  - Recover() rebuilds the frame table from the disk tier after a crash,
//    admitting only checksum-valid files.
//
// Thread-safe: one mutex guards the frame table; file I/O (spill writes,
// fault-in reads) happens outside the lock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bat/bat.h"
#include "common/status.h"
#include "core/loi.h"
#include "core/types.h"
#include "storage/spill_file.h"

namespace dcy::storage {

struct FragmentStoreOptions {
  /// Hard byte budget for resident fragment payloads; 0 = unlimited (the
  /// store degenerates to a plain in-memory map).
  uint64_t budget_bytes = 0;
  /// Directory of the disk tier; "" disables spilling (over-budget
  /// admissions then fail as soon as nothing droppable remains).
  std::string spill_dir;
  /// Above `high` * budget the eviction thread proactively spills the
  /// coldest unpinned frames down to `low` * budget, so admissions usually
  /// find room without waiting on I/O.
  double spill_high_watermark = 0.90;
  double spill_low_watermark = 0.70;
  /// When false, evictions spill inline on the calling thread
  /// (deterministic; unit tests).
  bool async_spill = true;
};

/// \brief Counters and gauges of one store (or, summed, of a cluster).
struct MemoryMetrics {
  // Gauges.
  uint64_t budget_bytes = 0;
  uint64_t resident_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint64_t pinned_bytes = 0;
  uint64_t frames_resident = 0;
  uint64_t frames_spilled = 0;
  uint64_t spill_queue_depth = 0;
  uint64_t spill_queue_bytes = 0;
  // Lifetime counters.
  uint64_t admissions = 0;
  uint64_t admission_rejections = 0;  ///< typed ResourceExhausted returned
  uint64_t evictions = 0;             ///< payloads dropped from RAM
  uint64_t spills = 0;                ///< spill files written
  uint64_t spill_bytes = 0;
  uint64_t spill_failures = 0;  ///< write errors (payload stayed resident)
  uint64_t promotions = 0;      ///< fault-ins from the disk tier
  uint64_t promotion_bytes = 0;
  uint64_t pressure_waits = 0;  ///< admissions that blocked on spill I/O
  uint64_t pressure_sheds = 0;  ///< submissions shed under memory pressure
  uint64_t corrupt_spill_files = 0;
  uint64_t recovered_from_disk = 0;   ///< valid files re-admitted by Recover
  uint64_t refetched_from_ring = 0;   ///< re-homed after a corrupt/lost file

  /// Sums counters and gauges of `other` into this (cluster aggregation).
  void Add(const MemoryMetrics& other);
};

/// Frames are keyed by fragment id; the store is no catalog (the cluster's
/// write log keeps fragment names). A frame keeps its name only to stamp it
/// into its spill image.
class FragmentStore final {
 public:
  explicit FragmentStore(FragmentStoreOptions options);
  ~FragmentStore();

  FragmentStore(const FragmentStore&) = delete;
  FragmentStore& operator=(const FragmentStore&) = delete;

  /// Admits a fragment. `durable` frames (owned fragments) spill to disk
  /// under pressure; non-durable frames (ring-delivered cache entries) are
  /// simply dropped. `initial_pins` arrives pinned (the caller owns the
  /// matching Unpin calls). Waits up to `max_wait` for the eviction thread
  /// to make room; 0 fails fast with typed backpressure. AlreadyExists if
  /// the id is taken. A fold republishes its new base with Drop then Admit;
  /// readers of a written table resolve the write log's base, not this
  /// payload.
  Status Admit(core::BatId id, const std::string& name, bat::BatPtr bat, bool durable,
               uint32_t initial_pins = 0,
               std::chrono::milliseconds max_wait = std::chrono::milliseconds(0));

  /// Pins a fragment, faulting it in from the disk tier if spilled (counted
  /// as a promotion). Blocks up to `deadline` when the fault-in needs room;
  /// a pinned frame is never evicted. Corruption means the spill image was
  /// damaged — it has been deleted and the frame dropped; re-admit from the
  /// ring and retry.
  Result<bat::BatPtr> Pin(core::BatId id,
                          std::chrono::steady_clock::time_point deadline =
                              std::chrono::steady_clock::time_point::max());

  /// Pin without any chance of I/O or blocking: value if the frame is
  /// resident, FailedPrecondition if spilled, NotFound if absent. For
  /// callers on latency-critical threads (the ring service loop).
  Result<bat::BatPtr> TryPinResident(core::BatId id);

  /// Releases one pin. A no-op for unknown ids (the frame may have been
  /// force-dropped meanwhile).
  void Unpin(core::BatId id);

  /// Unpinned fetch, faulting a spilled frame in (the returned shared_ptr
  /// keeps the payload alive for the caller even if the frame is evicted
  /// later).
  Result<bat::BatPtr> GetById(core::BatId id);

  /// Resident-only fetch without touching interest or pins; never blocks.
  Result<bat::BatPtr> GetResident(core::BatId id);

  bool Contains(core::BatId id) const;
  bool IsSpilled(core::BatId id) const;

  /// Removes a frame and its spill file. Pinned frames are removed too
  /// (payloads are shared_ptr-backed, so holders stay valid); their
  /// outstanding Unpins become no-ops.
  void Drop(core::BatId id);

  /// Folds the ring-circulation LOI of a passing hop into the frame's
  /// eviction rank; unknown ids are ignored.
  void NoteRingLoi(core::BatId id, double loi);

  /// Counter hooks for the embedding runtime.
  void NoteRefetched();
  void NotePressureShed();

  /// True while spill I/O is not keeping up with demand: the resident set
  /// sits above the high watermark and the disk tier cannot (or can no
  /// longer) absorb the overhang. Callers shed load.
  bool UnderPressure() const;

  struct RecoveryReport {
    std::vector<SpillInfo> recovered;  ///< checksum-valid files re-admitted
    uint32_t corrupt_files = 0;        ///< damaged files detected + deleted
  };

  /// Scans the spill directory and re-admits every checksum-valid file as a
  /// spilled durable frame (payloads stay on disk until pinned). Damaged
  /// files are deleted and counted — the caller re-homes those fragments
  /// from the ring. Idempotent for already-known ids.
  RecoveryReport Recover();

  /// Simulates losing RAM in a crash: every frame, pin, and queued spill is
  /// forgotten; the disk tier is untouched (Recover() is the counterpart).
  void ForgetAllForCrash();

  MemoryMetrics Metrics() const;
  const FragmentStoreOptions& options() const { return options_; }

 private:
  struct Frame {
    core::BatId id = core::kInvalidBat;
    std::string name;  ///< stamped into the spill image
    bat::BatPtr bat;  ///< null while spilled
    uint64_t bytes = 0;
    uint32_t pins = 0;
    bool durable = false;
    bool on_disk = false;       ///< a valid spill file exists
    bool spill_queued = false;  ///< in the eviction thread's queue
    double ring_loi = 0.0;
  };

  double NowSeconds() const;
  std::string PathOf(const Frame& f) const;
  double RankLocked(const Frame& f, double now_s) const;
  Status ExhaustedLocked(uint64_t requested) const;
  void DropPayloadLocked(Frame* f);
  void EraseFrameLocked(Frame* f);
  void QueueSpillLocked(Frame* f);
  /// Frees or schedules enough space for `needed` more resident bytes;
  /// waits on the eviction thread up to `deadline` when only queued spills
  /// can provide it.
  Status MakeRoomLocked(std::unique_lock<std::mutex>& lock, uint64_t needed,
                        std::chrono::steady_clock::time_point deadline);
  /// Queues proactive spills when the resident set crosses the high
  /// watermark.
  void ScheduleWatermarkSpillsLocked();
  /// Writes every queued spill (batched), dropping payloads of still
  /// unpinned frames. Both the background thread and the synchronous
  /// (async_spill = false) path funnel through here.
  void DrainSpillQueueLocked(std::unique_lock<std::mutex>& lock);
  void SpillThreadLoop();
  Result<bat::BatPtr> PinInternal(core::BatId id,
                                  std::chrono::steady_clock::time_point deadline,
                                  bool take_pin);

  FragmentStoreOptions options_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_;  ///< signalled when resident bytes drop
  std::condition_variable work_cv_;   ///< wakes the eviction thread
  std::condition_variable fault_cv_;  ///< fault-in of some frame finished
  std::unordered_map<core::BatId, Frame> frames_;
  std::unordered_set<core::BatId> faulting_;  ///< fault-in I/O in flight
  std::deque<core::BatId> spill_queue_;
  uint64_t spill_queue_bytes_ = 0;
  uint64_t resident_bytes_ = 0;
  core::InterestTracker interest_;
  MemoryMetrics counters_;  ///< lifetime counters only; gauges derived
  bool stop_ = false;
  std::thread spill_thread_;
};

}  // namespace dcy::storage
