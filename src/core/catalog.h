// The three catalog structures of the Data Cyclotron layer (paper §4.2,
// Figure 2):
//   S1 — BATs owned by the local data loader (cold on disk / pending / hot),
//   S2 — outstanding requests for all active queries, keyed by BAT id,
//   S3 — pins: BATs needed *urgently*, i.e. queries blocked in pin().
// Plus the local BAT cache that pin() consults before blocking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "core/types.h"

namespace dcy::core {

/// Lifecycle of an owned BAT with respect to the storage ring.
enum class OwnedState {
  kCold,     ///< on the owner's local disk, not circulating
  kPending,  ///< requested, but the load was postponed (ring full)
  kHot,      ///< circulating in the storage ring
};

const char* OwnedStateName(OwnedState s);

/// \brief S1 entry: one BAT administered by the local DC data loader.
struct OwnedBat {
  BatId id = kInvalidBat;
  uint64_t size = 0;
  OwnedState state = OwnedState::kCold;
  /// When the BAT was tagged pending (drives loadAll age priority).
  SimTime pending_since = 0;
  /// When the BAT last entered the ring.
  SimTime loaded_at = 0;
  /// Owner-side copy of the header bookkeeping while hot.
  double loi = 0.0;
  uint32_t cycles = 0;
  /// Last time the BAT completed a cycle at the owner (lost-BAT detection).
  SimTime last_cycle_at = 0;
  /// A request reached the owner while the BAT was hot. If the BAT's next
  /// return would unload it after a lap no node used, the owner serves that
  /// request instead (DcNode::OwnerHandleReturn). Cleared on every return
  /// and load.
  bool requested_while_hot = false;
  /// Total times this BAT entered the ring (paper Fig. 9b "loads").
  uint64_t loads = 0;
  uint64_t unloads = 0;
};

/// \brief S1: catalog of BATs owned by this node.
class OwnedCatalog {
 public:
  /// Registers a BAT with this node as owner. Returns false on duplicate.
  bool Add(BatId id, uint64_t size);
  /// Removes a BAT entirely (deletion). Returns false if absent.
  bool Remove(BatId id);

  bool Contains(BatId id) const { return bats_.count(id) > 0; }
  OwnedBat* Find(BatId id);
  const OwnedBat* Find(BatId id) const;

  size_t size() const { return bats_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }
  /// Bytes of owned BATs currently in OwnedState::kHot.
  uint64_t hot_bytes() const { return hot_bytes_; }

  /// Called by DcNode on every state transition to keep hot_bytes in sync.
  void NoteStateChange(OwnedBat* bat, OwnedState next);

  /// Pending BATs ordered oldest-first (the loadAll scan order, §4.2.3).
  std::vector<OwnedBat*> PendingOldestFirst();

  /// All currently hot (circulating) BATs, id order.
  std::vector<OwnedBat*> Hot();

  /// All owned BATs in id order (deterministic iteration for tests).
  std::vector<const OwnedBat*> All() const;

 private:
  std::map<BatId, OwnedBat> bats_;  // ordered => deterministic scans
  uint64_t total_bytes_ = 0;
  uint64_t hot_bytes_ = 0;
};

/// \brief S2 entry: the outstanding request for one BAT, shared by all local
/// queries interested in it. "A request is only removed if all its queries
/// pinned it" (§5.3).
struct RequestEntry {
  BatId bat_id = kInvalidBat;
  /// True once the request message was dispatched into the ring (or
  /// suppressed because the BAT passed first — Fig. 4 line 04).
  bool sent = false;
  /// True while this node's own request message is travelling towards the
  /// owner and the BAT has not passed since. Only a *live* request may
  /// absorb duplicates (Fig. 3 outcome 5): a stale entry absorbing for a
  /// BAT the owner has meanwhile unloaded would starve downstream nodes.
  bool in_flight = false;
  SimTime first_registered = 0;
  /// Last time a request message for this entry was dispatched (resend).
  SimTime last_dispatch = 0;
  /// Last time the BAT passed this node (0 = never seen).
  SimTime last_seen = 0;
  uint64_t dispatch_count = 0;

  struct PerQuery {
    bool pin_called = false;  ///< query reached its pin() for this BAT
    bool delivered = false;   ///< data handed to the query
    SimTime registered_at = 0;
    SimTime pin_called_at = 0;
  };
  std::map<QueryId, PerQuery> queries;  // ordered => deterministic delivery

  /// Fig. 4 `request_is_pinned_all`: every associated query got its data.
  bool AllDelivered() const;
  /// Fig. 4 `request_has_pin_calls`: at least one query is blocked in pin().
  bool HasBlockedPins() const;
};

/// \brief S2: outstanding requests keyed by BAT id.
class RequestTable {
 public:
  /// Finds or creates the entry for `bat`; new entries get timestamps `now`.
  RequestEntry* GetOrCreate(BatId bat, SimTime now);
  RequestEntry* Find(BatId bat);
  const RequestEntry* Find(BatId bat) const;
  bool Erase(BatId bat);
  bool Contains(BatId bat) const { return entries_.count(bat) > 0; }
  size_t size() const { return entries_.size(); }

  std::map<BatId, RequestEntry>& entries() { return entries_; }
  const std::map<BatId, RequestEntry>& entries() const { return entries_; }

 private:
  std::map<BatId, RequestEntry> entries_;
};

/// \brief S3: queries blocked in pin(), keyed by the BAT they wait for.
class PinTable {
 public:
  void Block(BatId bat, QueryId query);
  /// Removes and returns all queries blocked on `bat` (delivery).
  std::vector<QueryId> TakeBlocked(BatId bat);
  /// Removes one query from one BAT's wait list (unpin of a never-delivered
  /// pin, e.g. on query abort). Returns true if it was present.
  bool Unblock(BatId bat, QueryId query);
  bool HasBlocked(BatId bat) const;
  size_t blocked_count(BatId bat) const;
  size_t total_blocked() const { return total_; }

 private:
  std::unordered_map<BatId, std::vector<QueryId>> waiting_;
  size_t total_ = 0;
};

/// \brief The node-local cache pin() consults: BATs recently delivered and
/// still pinned by at least one query ("The pin() request checks the local
/// cache for availability", §4.2.1). Reference-counted; the memory-mapped
/// region is freed when the last unpin drops the count to zero.
class BatCache {
 public:
  /// Inserts (or refreshes) a cached BAT with `pins` initial references.
  void Insert(BatId bat, uint64_t size, uint32_t pins, SimTime now);
  /// If cached, takes one more reference and returns true (pin cache hit).
  bool AddPinIfPresent(BatId bat);
  /// Releases one reference; evicts at zero. Returns true if it was cached.
  bool ReleasePin(BatId bat);
  bool Contains(BatId bat) const { return entries_.count(bat) > 0; }
  uint64_t cached_bytes() const { return cached_bytes_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t size = 0;
    uint32_t pin_count = 0;
    SimTime inserted_at = 0;
  };
  std::unordered_map<BatId, Entry> entries_;
  uint64_t cached_bytes_ = 0;
};

}  // namespace dcy::core
