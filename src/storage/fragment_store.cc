#include "storage/fragment_store.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/logging.h"

namespace dcy::storage {

namespace fs = std::filesystem;

namespace {

/// Queued-but-unwritten spill bytes beyond which the store reports memory
/// pressure (spill I/O is not keeping up; callers shed load).
constexpr uint64_t kMaxSpillBacklogBytes = 64u << 20;

/// Longest a pin fault-in without an explicit deadline waits for room.
constexpr std::chrono::milliseconds kDefaultFaultWait{5000};

}  // namespace

void MemoryMetrics::Add(const MemoryMetrics& other) {
  budget_bytes += other.budget_bytes;
  resident_bytes += other.resident_bytes;
  spilled_bytes += other.spilled_bytes;
  pinned_bytes += other.pinned_bytes;
  frames_resident += other.frames_resident;
  frames_spilled += other.frames_spilled;
  spill_queue_depth += other.spill_queue_depth;
  spill_queue_bytes += other.spill_queue_bytes;
  admissions += other.admissions;
  admission_rejections += other.admission_rejections;
  evictions += other.evictions;
  spills += other.spills;
  spill_bytes += other.spill_bytes;
  spill_failures += other.spill_failures;
  promotions += other.promotions;
  promotion_bytes += other.promotion_bytes;
  pressure_waits += other.pressure_waits;
  pressure_sheds += other.pressure_sheds;
  corrupt_spill_files += other.corrupt_spill_files;
  recovered_from_disk += other.recovered_from_disk;
  refetched_from_ring += other.refetched_from_ring;
}

FragmentStore::FragmentStore(FragmentStoreOptions options)
    : options_(std::move(options)), epoch_(std::chrono::steady_clock::now()) {
  if (!options_.spill_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.spill_dir, ec);
    if (ec) {
      DCY_LOG(kWarn) << "fragment store: cannot create spill dir "
                    << options_.spill_dir << ": " << ec.message()
                    << "; disk tier disabled";
      options_.spill_dir.clear();
    }
  }
  if (options_.async_spill && !options_.spill_dir.empty()) {
    spill_thread_ = std::thread([this] { SpillThreadLoop(); });
  }
}

FragmentStore::~FragmentStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (spill_thread_.joinable()) spill_thread_.join();
}

double FragmentStore::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string FragmentStore::PathOf(const Frame& f) const {
  return options_.spill_dir + "/" + SpillFileName(f.id);
}

double FragmentStore::RankLocked(const Frame& f, double now_s) const {
  // Lower rank = colder = evicted first. Windowed local interest plus the
  // ring's circulating LOI: a fragment hot on the ring stays resident even
  // if this node has not touched it recently.
  return interest_.Score(f.id, now_s) + f.ring_loi;
}

Status FragmentStore::ExhaustedLocked(uint64_t requested) const {
  uint64_t pinned = 0;
  for (const auto& [id, f] : frames_) {
    if (f.bat != nullptr && f.pins > 0) pinned += f.bytes;
  }
  return Status::ResourceExhausted(
      "fragment store over budget: requested " + std::to_string(requested) +
      " bytes, budget " + std::to_string(options_.budget_bytes) + ", resident " +
      std::to_string(resident_bytes_) + " bytes in " +
      std::to_string(counters_.frames_resident) + " frames (" +
      std::to_string(pinned) + " pinned), spill queue " +
      std::to_string(spill_queue_.size()) + " frames / " +
      std::to_string(spill_queue_bytes_) + " bytes" +
      (options_.spill_dir.empty() ? ", disk tier disabled" : ""));
}

void FragmentStore::DropPayloadLocked(Frame* f) {
  DCY_CHECK(f->bat != nullptr);
  DCY_CHECK(f->pins == 0);
  f->bat.reset();
  resident_bytes_ -= f->bytes;
  --counters_.frames_resident;
  ++counters_.frames_spilled;
  ++counters_.evictions;
  space_cv_.notify_all();
}

void FragmentStore::EraseFrameLocked(Frame* f) {
  // A non-durable frame with no disk copy has no other home: evict it
  // entirely rather than leave a shell that could never be faulted back in.
  DCY_CHECK(f->bat != nullptr);
  DCY_CHECK(f->pins == 0);
  resident_bytes_ -= f->bytes;
  --counters_.frames_resident;
  ++counters_.evictions;
  interest_.Forget(f->id);
  frames_.erase(f->id);
  space_cv_.notify_all();
}

void FragmentStore::QueueSpillLocked(Frame* f) {
  DCY_CHECK(!f->spill_queued && !f->on_disk && f->durable);
  f->spill_queued = true;
  spill_queue_.push_back(f->id);
  spill_queue_bytes_ += f->bytes;
  work_cv_.notify_one();
}

Status FragmentStore::MakeRoomLocked(std::unique_lock<std::mutex>& lock,
                                     uint64_t needed,
                                     std::chrono::steady_clock::time_point deadline) {
  if (options_.budget_bytes == 0 || needed > options_.budget_bytes) {
    if (options_.budget_bytes != 0 && needed > options_.budget_bytes) {
      ++counters_.admission_rejections;
      return ExhaustedLocked(needed);
    }
    return Status::OK();  // unlimited
  }
  bool waited = false;
  while (resident_bytes_ + needed > options_.budget_bytes) {
    // Cheapest space first: drop payloads that need no I/O (non-durable
    // cache entries, and durable frames whose spill file already exists).
    // Collect candidates, coldest first.
    const double now_s = NowSeconds();
    Frame* coldest_free = nullptr;   // droppable without I/O
    Frame* coldest_dirty = nullptr;  // needs a spill write first
    double free_rank = 0.0, dirty_rank = 0.0;
    for (auto& [id, f] : frames_) {
      if (f.bat == nullptr || f.pins > 0) continue;
      const double rank = RankLocked(f, now_s);
      if (!f.durable || f.on_disk) {
        if (coldest_free == nullptr || rank < free_rank) {
          coldest_free = &f;
          free_rank = rank;
        }
      } else if (!f.spill_queued) {
        if (coldest_dirty == nullptr || rank < dirty_rank) {
          coldest_dirty = &f;
          dirty_rank = rank;
        }
      }
    }
    if (coldest_free != nullptr) {
      if (!coldest_free->durable && !coldest_free->on_disk) {
        EraseFrameLocked(coldest_free);
      } else {
        DropPayloadLocked(coldest_free);
      }
      continue;
    }
    if (coldest_dirty != nullptr && !options_.spill_dir.empty()) {
      QueueSpillLocked(coldest_dirty);
      if (!options_.async_spill) DrainSpillQueueLocked(lock);
      continue;
    }
    // Nothing left to evict directly. If spills are in flight, their
    // completion will free space; otherwise this is hard exhaustion.
    if (spill_queue_.empty() && options_.async_spill) {
      // Queued frames may still be mid-write inside the drain (queue popped
      // but payload not yet dropped); detect via spill_queued flags.
      bool in_flight = false;
      for (const auto& [id, f] : frames_) {
        if (f.spill_queued) {
          in_flight = true;
          break;
        }
      }
      if (!in_flight) {
        ++counters_.admission_rejections;
        return ExhaustedLocked(needed);
      }
    } else if (spill_queue_.empty()) {
      ++counters_.admission_rejections;
      return ExhaustedLocked(needed);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ++counters_.admission_rejections;
      return ExhaustedLocked(needed);
    }
    if (!waited) {
      waited = true;
      ++counters_.pressure_waits;
    }
    space_cv_.wait_until(lock, deadline);
    if (stop_) return Status::Aborted("fragment store shutting down");
  }
  return Status::OK();
}

void FragmentStore::ScheduleWatermarkSpillsLocked() {
  if (options_.budget_bytes == 0 || options_.spill_dir.empty()) return;
  const uint64_t high =
      static_cast<uint64_t>(options_.spill_high_watermark *
                            static_cast<double>(options_.budget_bytes));
  if (resident_bytes_ <= high) return;
  const uint64_t low = static_cast<uint64_t>(
      options_.spill_low_watermark * static_cast<double>(options_.budget_bytes));
  // Project the resident set after queued spills complete; queue the coldest
  // unpinned durable frames until that projection dips under the low mark.
  uint64_t projected = resident_bytes_ > spill_queue_bytes_
                           ? resident_bytes_ - spill_queue_bytes_
                           : 0;
  const double now_s = NowSeconds();
  while (projected > low) {
    Frame* coldest = nullptr;
    double coldest_rank = 0.0;
    for (auto& [id, f] : frames_) {
      if (f.bat == nullptr || f.pins > 0 || f.spill_queued) continue;
      if (!f.durable || f.on_disk) continue;  // MakeRoom drops these for free
      const double rank = RankLocked(f, now_s);
      if (coldest == nullptr || rank < coldest_rank) {
        coldest = &f;
        coldest_rank = rank;
      }
    }
    if (coldest == nullptr) break;
    QueueSpillLocked(coldest);
    projected = projected > coldest->bytes ? projected - coldest->bytes : 0;
  }
}

void FragmentStore::DrainSpillQueueLocked(std::unique_lock<std::mutex>& lock) {
  // Batch: take a snapshot of the queue, write every image outside the
  // lock, then commit the results. New work queued meanwhile is picked up
  // by the next drain.
  while (!spill_queue_.empty()) {
    struct Job {
      core::BatId id;
      std::string name;
      bat::BatPtr bat;
      std::string path;
    };
    std::vector<Job> batch;
    batch.reserve(spill_queue_.size());
    for (core::BatId id : spill_queue_) {
      auto it = frames_.find(id);
      if (it == frames_.end() || it->second.bat == nullptr) continue;
      batch.push_back({id, it->second.name, it->second.bat, PathOf(it->second)});
    }
    spill_queue_.clear();

    lock.unlock();
    struct Done {
      core::BatId id;
      Status status;
      uint64_t bytes;
    };
    std::vector<Done> done;
    done.reserve(batch.size());
    for (const Job& job : batch) {
      const std::string image = EncodeSpillFile(job.id, job.name, *job.bat);
      done.push_back({job.id, WriteSpillFile(job.path, image), image.size()});
    }
    lock.lock();

    for (const Done& d : done) {
      auto it = frames_.find(d.id);
      if (it == frames_.end()) {
        // Dropped while writing; remove the now-orphaned file.
        if (d.status.ok()) {
          std::error_code ec;
          fs::remove(options_.spill_dir + "/" + SpillFileName(d.id), ec);
        }
        continue;  // Drop() already released its queued bytes
      }
      Frame& f = it->second;
      f.spill_queued = false;
      spill_queue_bytes_ = spill_queue_bytes_ >= f.bytes ? spill_queue_bytes_ - f.bytes : 0;
      if (!d.status.ok()) {
        ++counters_.spill_failures;
        DCY_LOG(kWarn) << "fragment store: spill of bat " << d.id
                      << " failed: " << d.status.ToString();
        continue;
      }
      f.on_disk = true;
      ++counters_.spills;
      counters_.spill_bytes += d.bytes;
      if (f.bat != nullptr && f.pins == 0) DropPayloadLocked(&f);
    }
    space_cv_.notify_all();
  }
}

void FragmentStore::SpillThreadLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !spill_queue_.empty(); });
    if (stop_) return;
    DrainSpillQueueLocked(lock);
  }
}

Status FragmentStore::Admit(core::BatId id, const std::string& name, bat::BatPtr bat,
                            bool durable, uint32_t initial_pins,
                            std::chrono::milliseconds max_wait) {
  DCY_CHECK(bat != nullptr);
  const uint64_t bytes = bat->ByteSize();
  std::unique_lock<std::mutex> lock(mu_);
  if (frames_.count(id) != 0) {
    return Status::AlreadyExists("fragment " + std::to_string(id) +
                                 " already in the store");
  }
  const auto deadline = max_wait.count() <= 0
                            ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::now() + max_wait;
  Status room = MakeRoomLocked(lock, bytes, deadline);
  if (!room.ok()) return room;
  // Re-check: another thread may have admitted the same id while we waited.
  if (frames_.count(id) != 0) {
    return Status::AlreadyExists("fragment " + std::to_string(id) +
                                 " already in the store");
  }
  Frame f;
  f.id = id;
  f.name = name;
  f.bat = std::move(bat);
  f.bytes = bytes;
  f.pins = initial_pins;
  f.durable = durable;
  frames_.emplace(id, std::move(f));
  resident_bytes_ += bytes;
  ++counters_.frames_resident;
  ++counters_.admissions;
  interest_.Touch(id, NowSeconds());
  ScheduleWatermarkSpillsLocked();
  if (!options_.async_spill && !spill_queue_.empty()) DrainSpillQueueLocked(lock);
  return Status::OK();
}

Result<bat::BatPtr> FragmentStore::PinInternal(
    core::BatId id, std::chrono::steady_clock::time_point deadline, bool take_pin) {
  std::unique_lock<std::mutex> lock(mu_);
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    // An unbounded wait would wedge the caller if spill I/O stalls; cap it
    // so a typed, retryable error surfaces instead.
    deadline = std::chrono::steady_clock::now() + kDefaultFaultWait;
  }
  while (true) {
    auto it = frames_.find(id);
    if (it == frames_.end()) {
      return Status::NotFound("fragment " + std::to_string(id) + " not in the store");
    }
    Frame& f = it->second;
    interest_.Touch(id, NowSeconds());
    if (f.bat != nullptr) {
      if (take_pin) ++f.pins;
      return f.bat;
    }
    // Spilled. If another thread is already reading it, wait for that read.
    if (faulting_.count(id) != 0) {
      if (fault_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        return Status::TimedOut("pin of fragment " + std::to_string(id) +
                                " timed out waiting for a concurrent fault-in");
      }
      continue;
    }
    DCY_CHECK(f.on_disk);
    const std::string path = PathOf(f);
    const uint64_t bytes = f.bytes;
    faulting_.insert(id);
    lock.unlock();
    SpillInfo spill_info;
    auto read = ReadSpillFile(path, &spill_info);
    lock.lock();
    faulting_.erase(id);
    fault_cv_.notify_all();
    it = frames_.find(id);
    if (!read.ok()) {
      ++counters_.corrupt_spill_files;
      std::error_code ec;
      fs::remove(path, ec);
      if (it != frames_.end() && it->second.bat == nullptr) {
        ++counters_.evictions;  // frame leaves the store
        --counters_.frames_spilled;
        frames_.erase(it);
        interest_.Forget(id);
      }
      return Status::Corruption("spill image of fragment " + std::to_string(id) +
                                " is damaged (" + read.status().message() +
                                "); re-fetch it from the ring");
    }
    if (it == frames_.end()) {
      // Dropped while faulting in; hand the payload to this caller anyway —
      // pins on dropped frames are no-ops, the data itself is still valid.
      return *read;
    }
    Frame& g = it->second;
    if (g.bat != nullptr) continue;  // raced with a re-admission
    Status room = MakeRoomLocked(lock, bytes, deadline);
    if (!room.ok()) return room;
    it = frames_.find(id);
    if (it == frames_.end()) return *read;
    Frame& h = it->second;
    if (h.bat == nullptr) {
      h.bat = *read;
      resident_bytes_ += h.bytes;
      ++counters_.frames_resident;
      --counters_.frames_spilled;
      ++counters_.promotions;
      counters_.promotion_bytes += h.bytes;
    }
    if (take_pin) ++h.pins;
    return h.bat;
  }
}

Result<bat::BatPtr> FragmentStore::Pin(core::BatId id,
                                       std::chrono::steady_clock::time_point deadline) {
  return PinInternal(id, deadline, /*take_pin=*/true);
}

Result<bat::BatPtr> FragmentStore::TryPinResident(core::BatId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    return Status::NotFound("fragment " + std::to_string(id) + " not in the store");
  }
  Frame& f = it->second;
  if (f.bat == nullptr) {
    return Status::FailedPrecondition("fragment " + std::to_string(id) +
                                      " is spilled; pin must fault it in");
  }
  interest_.Touch(id, NowSeconds());
  ++f.pins;
  return f.bat;
}

void FragmentStore::Unpin(core::BatId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end()) return;
  Frame& f = it->second;
  if (f.pins == 0) return;
  if (--f.pins == 0) space_cv_.notify_all();
}

Result<bat::BatPtr> FragmentStore::GetById(core::BatId id) {
  return PinInternal(id, std::chrono::steady_clock::time_point::max(),
                     /*take_pin=*/false);
}

Result<bat::BatPtr> FragmentStore::GetResident(core::BatId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end() || it->second.bat == nullptr) {
    return Status::NotFound("fragment " + std::to_string(id) + " not resident");
  }
  return it->second.bat;
}

bool FragmentStore::Contains(core::BatId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.count(id) != 0;
}

bool FragmentStore::IsSpilled(core::BatId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  return it != frames_.end() && it->second.bat == nullptr;
}

void FragmentStore::Drop(core::BatId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end()) return;
  Frame& f = it->second;
  if (f.bat != nullptr) {
    resident_bytes_ -= f.bytes;
    --counters_.frames_resident;
  } else {
    --counters_.frames_spilled;
  }
  if (f.spill_queued) {
    spill_queue_.erase(std::remove(spill_queue_.begin(), spill_queue_.end(), id),
                       spill_queue_.end());
    spill_queue_bytes_ = spill_queue_bytes_ >= f.bytes ? spill_queue_bytes_ - f.bytes : 0;
  }
  if (f.on_disk && !options_.spill_dir.empty()) {
    std::error_code ec;
    fs::remove(PathOf(f), ec);
  }
  frames_.erase(it);
  interest_.Forget(id);
  space_cv_.notify_all();
}

void FragmentStore::NoteRingLoi(core::BatId id, double loi) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end()) return;
  it->second.ring_loi = loi;
}

void FragmentStore::NoteRefetched() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.refetched_from_ring;
}

void FragmentStore::NotePressureShed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.pressure_sheds;
}

bool FragmentStore::UnderPressure() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.budget_bytes == 0) return false;
  const uint64_t high =
      static_cast<uint64_t>(options_.spill_high_watermark *
                            static_cast<double>(options_.budget_bytes));
  if (resident_bytes_ <= high) return false;
  // Above the high mark: pressure if there is no disk tier to absorb the
  // overhang, or the spill backlog has grown past its bound.
  if (options_.spill_dir.empty()) return true;
  return spill_queue_bytes_ > kMaxSpillBacklogBytes;
}

FragmentStore::RecoveryReport FragmentStore::Recover() {
  RecoveryReport report;
  if (options_.spill_dir.empty()) return report;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(options_.spill_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".frag") continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    SpillInfo info;
    auto decoded = ReadSpillFile(path, &info);
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.corrupt_spill_files;
      ++report.corrupt_files;
      std::error_code rec;
      fs::remove(path, rec);
      DCY_LOG(kWarn) << "fragment store recovery: deleting damaged spill file "
                    << path << ": " << decoded.status().ToString();
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (frames_.count(info.id) != 0) continue;  // already known; keep as is
    Frame f;
    f.id = info.id;
    f.name = info.name;
    f.bytes = (*decoded)->ByteSize();
    f.durable = true;
    f.on_disk = true;  // payload stays on disk until first pin
    frames_.emplace(info.id, std::move(f));
    ++counters_.frames_spilled;
    ++counters_.recovered_from_disk;
    report.recovered.push_back(info);
  }
  return report;
}

void FragmentStore::ForgetAllForCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  frames_.clear();
  spill_queue_.clear();
  spill_queue_bytes_ = 0;
  resident_bytes_ = 0;
  counters_.frames_resident = 0;
  counters_.frames_spilled = 0;
  space_cv_.notify_all();
}

MemoryMetrics FragmentStore::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryMetrics m = counters_;
  m.budget_bytes = options_.budget_bytes;
  m.resident_bytes = resident_bytes_;
  m.spill_queue_depth = spill_queue_.size();
  m.spill_queue_bytes = spill_queue_bytes_;
  m.spilled_bytes = 0;
  m.pinned_bytes = 0;
  for (const auto& [id, f] : frames_) {
    if (f.bat == nullptr) m.spilled_bytes += f.bytes;
    if (f.bat != nullptr && f.pins > 0) m.pinned_bytes += f.bytes;
  }
  return m;
}

}  // namespace dcy::storage
