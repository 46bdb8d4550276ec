// The per-node cache of ring copies (paper §4.2.2): when a local query is
// blocked on a passing BAT, the node decodes the frame once and keeps the copy
// here until the protocol cache releases it, i.e. until every query holding
// it has unpinned. Owned fragments never enter the store: their one home is
// the cluster write log, which an owner loads from.
//
// Every copy is charged to a hard byte budget. A copy stays pinned while the
// protocol cache holds it, so nothing here is ever evictable: a copy that does
// not fit is refused with a typed ResourceExhausted carrying the numbers
// (requested, budget, resident), never bad_alloc, and the blocked pin fails
// retryable instead of hanging.
//
// Thread-safe: one mutex guards the copy table. The node's service thread
// admits and drops copies; metrics and pressure checks come from any thread.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "bat/bat.h"
#include "common/status.h"
#include "core/types.h"

namespace dcy::storage {

struct FragmentStoreOptions {
  /// Hard byte budget for the copies held; 0 = unlimited.
  uint64_t budget_bytes = 0;
};

/// \brief Counters and gauges of one store (or, summed, of a cluster).
struct MemoryMetrics {
  // Gauges.
  uint64_t budget_bytes = 0;
  uint64_t resident_bytes = 0;  ///< bytes of the copies held
  // Lifetime counters.
  uint64_t admissions = 0;            ///< copies charged to the budget
  uint64_t admission_rejections = 0;  ///< typed ResourceExhausted returned
  uint64_t pressure_sheds = 0;        ///< submissions shed under memory pressure
  /// Always 0: the store neither evicts nor reads disk. ringbench/ still
  /// reads these four; remove them when ringbench next changes.
  uint64_t evictions = 0;
  uint64_t promotions = 0;
  uint64_t promotion_bytes = 0;
  uint64_t pressure_waits = 0;

  /// Sums counters and gauges of `other` into this (cluster aggregation;
  /// the four always-0 fields are left alone).
  void Add(const MemoryMetrics& other);
};

/// Copies are keyed by fragment id; the store is no catalog (the cluster's
/// write log keeps fragment names).
class FragmentStore final {
 public:
  explicit FragmentStore(FragmentStoreOptions options) : options_(options) {}

  FragmentStore(const FragmentStore&) = delete;
  FragmentStore& operator=(const FragmentStore&) = delete;

  /// Charges `bat`, the copy of fragment `id`, to the budget and holds it.
  /// ResourceExhausted when it does not fit beside the copies held;
  /// AlreadyExists when a copy of `id` is held already.
  Status Admit(core::BatId id, bat::BatPtr bat);

  /// The copy held for `id`; NotFound otherwise.
  Result<bat::BatPtr> Get(core::BatId id) const;

  bool Contains(core::BatId id) const;

  /// Releases every copy whose id satisfies `released`, with its charge.
  /// Holders of a payload keep it (payloads are shared and immutable).
  void DropIf(const std::function<bool(core::BatId)>& released);

  /// Forgets every copy: a crash loses the node's memory.
  void Clear();

  /// Counter hook for the embedding runtime.
  void NotePressureShed();

  /// True while the copies held fill the budget past its high-water mark.
  /// They cannot be evicted, so callers shed new work.
  bool UnderPressure() const;

  MemoryMetrics Metrics() const;

 private:
  const FragmentStoreOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<core::BatId, bat::BatPtr> copies_;
  uint64_t resident_bytes_ = 0;
  MemoryMetrics counters_;  ///< lifetime counters only; gauges derived
};

}  // namespace dcy::storage
