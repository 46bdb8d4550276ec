#include "storage/fragment_store.h"

#include <string>
#include <utility>

#include "common/logging.h"

namespace dcy::storage {

namespace {

/// Share of the budget the copies may fill before the store reports memory
/// pressure.
constexpr double kPressureFraction = 0.90;

}  // namespace

void MemoryMetrics::Add(const MemoryMetrics& other) {
  budget_bytes += other.budget_bytes;
  resident_bytes += other.resident_bytes;
  admissions += other.admissions;
  admission_rejections += other.admission_rejections;
  pressure_sheds += other.pressure_sheds;
}

Status FragmentStore::Admit(core::BatId id, bat::BatPtr bat) {
  DCY_CHECK(bat != nullptr);
  const uint64_t bytes = bat->ByteSize();
  std::lock_guard<std::mutex> lock(mu_);
  if (copies_.count(id) != 0) {
    return Status::AlreadyExists("fragment " + std::to_string(id) +
                                 " already in the store");
  }
  if (options_.budget_bytes != 0 && resident_bytes_ + bytes > options_.budget_bytes) {
    ++counters_.admission_rejections;
    return Status::ResourceExhausted(
        "fragment store over budget: requested " + std::to_string(bytes) +
        " bytes, budget " + std::to_string(options_.budget_bytes) + ", resident " +
        std::to_string(resident_bytes_) + " bytes in " + std::to_string(copies_.size()) +
        " pinned copies");
  }
  copies_.emplace(id, std::move(bat));
  resident_bytes_ += bytes;
  ++counters_.admissions;
  return Status::OK();
}

Result<bat::BatPtr> FragmentStore::Get(core::BatId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = copies_.find(id);
  if (it == copies_.end()) {
    return Status::NotFound("fragment " + std::to_string(id) + " not in the store");
  }
  return it->second;
}

bool FragmentStore::Contains(core::BatId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return copies_.count(id) != 0;
}

void FragmentStore::DropIf(const std::function<bool(core::BatId)>& released) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = copies_.begin(); it != copies_.end();) {
    if (released(it->first)) {
      resident_bytes_ -= it->second->ByteSize();
      it = copies_.erase(it);
    } else {
      ++it;
    }
  }
}

void FragmentStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  copies_.clear();
  resident_bytes_ = 0;
}

void FragmentStore::NotePressureShed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.pressure_sheds;
}

bool FragmentStore::UnderPressure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.budget_bytes != 0 &&
         static_cast<double>(resident_bytes_) >
             kPressureFraction * static_cast<double>(options_.budget_bytes);
}

MemoryMetrics FragmentStore::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryMetrics m = counters_;
  m.budget_bytes = options_.budget_bytes;
  m.resident_bytes = resident_bytes_;
  return m;
}

}  // namespace dcy::storage
