#include "core/dc_node.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dcy::core {

namespace {

/// A requested BAT not delivered within this many expected rotations
/// triggers a request re-send (§4.2.3 resend()).
constexpr double kResendFactor = 3.0;

/// The owner declares a hot BAT lost after this many expected rotations
/// without a completed cycle, returning it to cold state. Deliberately
/// sluggish: rotation times vary several-fold under saturation and a false
/// positive costs accounting churn, while a true loss only occurs on lossy
/// channels where a slow recovery is acceptable.
constexpr double kLostFactor = 20.0;

}  // namespace

DcNode::DcNode(DcNodeOptions options, DcEnv* env, LoitPolicy* loit, StatsSink* sink)
    : options_(options), env_(env), loit_(loit), sink_(sink) {
  DCY_CHECK(env_ != nullptr);
  DCY_CHECK(loit_ != nullptr);
}

bool DcNode::AddOwnedBat(BatId bat, uint64_t size) { return owned_.Add(bat, size); }

bool DcNode::RemoveOwnedBat(BatId bat) { return owned_.Remove(bat); }

// ---------------------------------------------------------------------------
// The three injected calls (§4.1).
// ---------------------------------------------------------------------------

void DcNode::Request(QueryId query, BatId bat) {
  ++metrics_.requests_registered;
  if (owned_.Contains(bat)) {
    // Owned locally: "retrieved from disk or local memory and put into the
    // DBMS space" (§4.2.1) — no ring involvement, pin() will succeed.
    return;
  }
  const bool existed = requests_.Contains(bat);
  RequestEntry* entry = requests_.GetOrCreate(bat, env_->Now());
  if (!existed && sink_ != nullptr) sink_->OnRequestEntryCreated(options_.node_id, bat);
  auto [it, inserted] = entry->queries.try_emplace(query);
  if (inserted) it->second.registered_at = env_->Now();
  if (!entry->sent) DispatchRequest(entry, /*resend=*/false);
  // Queries joining an already-served entry do not re-request here: if the
  // BAT is still hot it will pass again anyway (§5.3), and if it was
  // unloaded, the pin() path below re-requests as soon as it blocks.
}

bool DcNode::Pin(QueryId query, BatId bat) {
  ++metrics_.pins_total;
  const SimTime now = env_->Now();

  if (owned_.Contains(bat)) {
    ++metrics_.pins_local_hit;
    if (sink_ != nullptr) sink_->OnPinSatisfied(options_.node_id, query, bat, 0);
    return true;
  }

  RequestEntry* entry = requests_.Find(bat);
  if (entry == nullptr || entry->queries.count(query) == 0) {
    // pin() without a preceding request(): tolerate it (defensive; the
    // DcOptimizer always emits the request) by registering interest now.
    Request(query, bat);
    entry = requests_.Find(bat);
    DCY_CHECK(entry != nullptr);
  }
  RequestEntry::PerQuery& pq = entry->queries[query];
  pq.pin_called = true;
  pq.pin_called_at = now;

  if (pq.delivered) {
    ++metrics_.pins_local_hit;
    if (sink_ != nullptr) sink_->OnPinSatisfied(options_.node_id, query, bat, 0);
    return true;
  }
  if (cache_.AddPinIfPresent(bat)) {
    // "The pin() request checks the local cache for availability" (§4.2.1).
    pq.delivered = true;
    ++metrics_.pins_local_hit;
    if (sink_ != nullptr) {
      sink_->OnPinSatisfied(options_.node_id, query, bat, 0);
      sink_->OnRequestSatisfied(options_.node_id, bat, now - pq.registered_at);
    }
    return true;
  }

  pins_.Block(bat, query);
  ++metrics_.pins_blocked;
  // Urgency signal: re-request now rather than wait for the resend timeout.
  // A BAT seen recently may still be unloaded before it comes round again;
  // the maintenance tick re-tests this pin until it is served.
  if (ShouldResignal(*entry, now)) DispatchRequest(entry, /*resend=*/false);
  return false;
}

void DcNode::Unpin(QueryId query, BatId bat) {
  if (owned_.Contains(bat)) return;  // owned BATs are not cache-managed
  // Only a pin that was actually served holds a cache reference; an aborted
  // query unpinning a still-blocked pin must not steal another holder's.
  bool was_delivered = true;  // entry already retired => the pin was served
  if (RequestEntry* entry = requests_.Find(bat)) {
    auto it = entry->queries.find(query);
    if (it != entry->queries.end()) {
      was_delivered = it->second.delivered;
      // Mark it delivered so the entry can retire (the query is done with it).
      it->second.delivered = true;
    }
  }
  if (was_delivered) {
    // Release the memory-mapped region reference (§4.2.2).
    cache_.ReleasePin(bat);
  }
  // If the query aborted while still blocked, clear its S3 entry.
  pins_.Unblock(bat, query);
}

void DcNode::FailBat(BatId bat) {
  if (RequestEntry* entry = requests_.Find(bat)) {
    for (auto& [query, st] : entry->queries) {
      if (!st.delivered) {
        ++metrics_.queries_failed;
        env_->FailQuery(query, bat);
      }
    }
    pins_.TakeBlocked(bat);
    requests_.Erase(bat);
  }
}

// ---------------------------------------------------------------------------
// Request Propagation (Fig. 3).
// ---------------------------------------------------------------------------

void DcNode::OnRequestMsg(const RequestMsg& msg) {
  // First outcome: the request is back at its origin — the BAT does not
  // exist (anymore); the associated queries raise an exception.
  if (msg.origin == options_.node_id) {
    ++metrics_.requests_returned_origin;
    if (sink_ != nullptr) sink_->OnRequestReturnedToOrigin(options_.node_id, msg.bat_id);
    if (RequestEntry* entry = requests_.Find(msg.bat_id)) {
      for (auto& [query, st] : entry->queries) {
        if (!st.delivered) {
          ++metrics_.queries_failed;
          env_->FailQuery(query, msg.bat_id);
        }
      }
      pins_.TakeBlocked(msg.bat_id);
      requests_.Erase(msg.bat_id);
    }
    return;
  }

  // Second to fourth outcome: this node owns the BAT.
  if (OwnedBat* ob = owned_.Find(msg.bat_id)) {
    if (ob->state == OwnedState::kHot) {
      // Already circulating, so nothing to load. The paper drops the
      // request; we remember it in case the BAT's next return unloads it.
      ob->requested_while_hot = true;
      return;
    }
    if (CanLoadNow(ob->size)) {
      LoadOwnedBat(ob, /*from_pending=*/ob->state == OwnedState::kPending);
    } else if (ob->state != OwnedState::kPending) {
      TagPending(ob);  // ring full: wait for hot-set adjustment to free space
    }
    return;
  }

  // Fifth outcome: the same request is outstanding locally — absorb it.
  // Absorption is only safe while our own request is live (in flight): a
  // request that was already served does not guarantee the owner still has
  // the BAT in the ring, so we take over responsibility by re-dispatching
  // our own request in the absorbed one's stead (Fig. 3 lines 22-26).
  if (options_.combine_requests) {
    if (RequestEntry* entry = requests_.Find(msg.bat_id)) {
      ++metrics_.requests_absorbed;
      if (!entry->in_flight) DispatchRequest(entry, /*resend=*/false);
      return;
    }
  }

  // Sixth outcome: just forward it (origin preserved).
  ++metrics_.request_msgs_forwarded;
  env_->SendRequestMsg(msg);
}

// ---------------------------------------------------------------------------
// BAT Propagation (Fig. 4) and Hot-set Management (Fig. 5).
// ---------------------------------------------------------------------------

void DcNode::OnBatMsg(const BatHeader& header) {
  ++metrics_.bat_passes;
  if (header.owner == options_.node_id) {
    OwnerHandleReturn(header);
  } else {
    PropagateBat(header);
  }
}

void DcNode::OwnerHandleReturn(BatHeader header) {
  OwnedBat* ob = owned_.Find(header.bat_id);
  if (ob == nullptr) return;  // deleted while circulating: swallow it

  bool readopted = false;
  if (ob->state != OwnedState::kHot) {
    // It was presumed lost (or re-tagged) but is actually still circulating:
    // re-adopt it as hot.
    owned_.NoteStateChange(ob, OwnedState::kHot);
    readopted = true;
  }

  const SimTime now = env_->Now();
  const uint32_t cycles = header.cycles + 1;
  const SimTime rotation = now - ob->last_cycle_at;
  ob->last_cycle_at = now;
  // A rotation measured across a presumed-loss gap would poison the EMA the
  // lost-BAT timeout derives from; only clean cycles feed the estimate.
  if (rotation > 0 && !readopted) {
    rotation_estimate_ = rotation_estimate_ == 0
                             ? rotation
                             : (rotation_estimate_ * 4 + rotation) / 5;  // EMA 0.2
  }
  ++metrics_.cycles_completed;

  const double new_loi = ComputeNewLoi(header.loi, header.copies, header.hops, cycles);
  if (sink_ != nullptr) {
    sink_->OnCycleCompleted(options_.node_id, header.bat_id, cycles, rotation);
  }

  ob->loi = new_loi;
  ob->cycles = cycles;

  // A request that reached the owner during this cycle found the BAT hot and
  // loaded nothing. If no node used the BAT on this lap, that requester did
  // not get it either, and unloading now would leave it to the resend
  // timeout. Serve the request as if it arrived after the unload: keep
  // circulating if a fresh load would be admitted, else tag it pending. A
  // lap some node used may already have served the requester; then the LOIT
  // alone decides, and a still-blocked pin re-requests from its own tick.
  const bool unserved_request =
      std::exchange(ob->requested_while_hot, false) && header.copies == 0;
  if (new_loi < loit_->threshold()) {
    if (unserved_request && CanLoadNow(ob->size)) {
      ob->loi = 0.0;  // interest restarts, as for a fresh load
    } else {
      // Below the minimum level of interest: pull it out of the hot set.
      owned_.NoteStateChange(ob, OwnedState::kCold);
      ++ob->unloads;
      ++metrics_.bats_unloaded;
      if (sink_ != nullptr) {
        sink_->OnBatUnloaded(options_.node_id, header.bat_id, header.bat_size, cycles,
                             new_loi);
      }
      if (unserved_request) TagPending(ob);
      return;
    }
  }

  BatHeader fwd = header;
  fwd.loi = ob->loi;
  fwd.copies = 0;
  fwd.hops = 0;
  fwd.cycles = cycles;
  env_->SendBatMsg(fwd, /*is_load=*/false);
}

void DcNode::PropagateBat(BatHeader header) {
  ++header.hops;

  // A pin lives in S3 from pin() until unpin() (§4.2.1), so this node "uses"
  // the BAT if queries are blocked waiting for it *or* still hold it from an
  // earlier delivery (the cache reference count is exactly the held pins).
  const bool held = cache_.Contains(header.bat_id);
  uint32_t delivered = 0;
  if (RequestEntry* entry = requests_.Find(header.bat_id)) {
    entry->sent = true;  // Fig. 4 line 04: the BAT made it here
    entry->in_flight = false;  // our request was served
    entry->last_seen = env_->Now();
    if (entry->HasBlockedPins()) {
      delivered = DeliverToBlockedPins(header.bat_id, header.bat_size);
    }
    if (entry->AllDelivered()) {
      requests_.Erase(header.bat_id);  // Fig. 4 lines 09-10
    }
  }
  const bool used = held || delivered > 0;
  if (used) ++header.copies;  // Fig. 4 lines 06-07
  if (sink_ != nullptr) {
    sink_->OnBatTouched(options_.node_id, header.bat_id, delivered + (held ? 1 : 0));
  }

  env_->SendBatMsg(header, /*is_load=*/false);
}

uint32_t DcNode::DeliverToBlockedPins(BatId bat, uint64_t size) {
  const std::vector<QueryId> waiters = pins_.TakeBlocked(bat);
  if (waiters.empty()) return 0;
  const SimTime now = env_->Now();

  // The BAT is handed over "as a pointer to a memory mapped region"
  // (§4.2.2): one cached copy, one pin reference per waiting query.
  cache_.Insert(bat, size, static_cast<uint32_t>(waiters.size()), now);

  RequestEntry* entry = requests_.Find(bat);
  for (QueryId query : waiters) {
    if (entry != nullptr) {
      auto it = entry->queries.find(query);
      if (it != entry->queries.end()) {
        it->second.delivered = true;
        if (sink_ != nullptr) {
          sink_->OnRequestSatisfied(options_.node_id, bat, now - it->second.registered_at);
          sink_->OnPinSatisfied(options_.node_id, query, bat, now - it->second.pin_called_at);
        }
      }
    }
    ++metrics_.deliveries;
    env_->DeliverToQuery(query, bat);
  }
  return static_cast<uint32_t>(waiters.size());
}

// ---------------------------------------------------------------------------
// Timers.
// ---------------------------------------------------------------------------

void DcNode::OnLoadAllTimer() {
  // §4.2.3 loadAll(): "Every T msec, it starts the load for the oldest ones.
  // If a BAT does not fit in the BAT queue, it tries the next one and so on
  // until it fills up the queue. The leftovers stay for the next call."
  for (OwnedBat* ob : owned_.PendingOldestFirst()) {
    if (CanLoadNow(ob->size)) {
      LoadOwnedBat(ob, /*from_pending=*/true);
    } else if (!options_.pending_fit_check) {
      break;  // ablation: strict FIFO head-of-line blocking
    }
    // else: skip and try the next (smaller) one — the paper's behaviour.
  }
}

void DcNode::OnMaintenanceTimer() {
  const SimTime now = env_->Now();

  // Requester side: garbage-collect retired entries; re-request for blocked
  // pins whose BAT is overdue (the pin() urgency signal, re-tested every
  // tick); re-send requests whose BAT is overdue (§4.2.3 resend(),
  // "indicates a package loss"). The resend covers every entry with
  // undelivered queries, not only blocked pins: an entry whose request was
  // absorbed upstream must eventually re-signal, otherwise chains of
  // absorbing-but-stale entries can starve the whole ring of a BAT its owner
  // has unloaded. An entry is overdue only when neither a dispatch nor a BAT
  // sighting happened within the timeout, so hot BATs (seen every rotation)
  // never trigger it.
  auto& entries = requests_.entries();
  for (auto it = entries.begin(); it != entries.end();) {
    RequestEntry& entry = it->second;
    if (!entry.queries.empty() && entry.AllDelivered()) {
      it = entries.erase(it);
      continue;
    }
    if (entry.HasBlockedPins() && ShouldResignal(entry, now)) {
      DispatchRequest(&entry, /*resend=*/false);
    }
    const SimTime last_activity = std::max(entry.last_dispatch, entry.last_seen);
    if (options_.enable_resend && !entry.AllDelivered() &&
        now - last_activity >= ResendTimeout()) {
      DispatchRequest(&entry, /*resend=*/true);
    }
    ++it;
  }

  // Owner side: a hot BAT that has not completed a cycle for much longer
  // than the rotation estimate was dropped somewhere — return it to cold so
  // a future request can re-load it.
  for (OwnedBat* ob : owned_.Hot()) {
    if (now - ob->last_cycle_at >= LostTimeout()) {
      owned_.NoteStateChange(ob, OwnedState::kCold);
      ++metrics_.bats_presumed_lost;
      if (sink_ != nullptr) sink_->OnBatPresumedLost(options_.node_id, ob->id);
    }
  }
}

void DcNode::OnAdaptTimer() {
  const uint64_t cap = env_->BatQueueCapacityBytes();
  if (cap == 0) return;
  loit_->Update(static_cast<double>(env_->BatQueueLoadBytes()) / static_cast<double>(cap));
}

// ---------------------------------------------------------------------------
// Internals.
// ---------------------------------------------------------------------------

bool DcNode::CanLoadNow(uint64_t size) {
  const uint64_t cap = env_->BatQueueCapacityBytes();
  if (cap == 0) return true;
  const double limit = options_.load_admission_headroom * static_cast<double>(cap);
  return static_cast<double>(env_->BatQueueLoadBytes() + size) <= limit;
}

void DcNode::LoadOwnedBat(OwnedBat* ob, bool from_pending) {
  owned_.NoteStateChange(ob, OwnedState::kHot);
  const SimTime now = env_->Now();
  ob->loaded_at = now;
  ob->last_cycle_at = now;
  ob->loi = 0.0;
  ob->cycles = 0;
  ob->requested_while_hot = false;
  ++ob->loads;
  ++metrics_.bats_loaded;
  if (from_pending) ++metrics_.pending_loads;
  if (sink_ != nullptr) sink_->OnBatLoaded(options_.node_id, ob->id, ob->size);

  BatHeader header;
  header.owner = options_.node_id;
  header.bat_id = ob->id;
  header.bat_size = ob->size;
  env_->SendBatMsg(header, /*is_load=*/true);
}

void DcNode::TagPending(OwnedBat* ob) {
  owned_.NoteStateChange(ob, OwnedState::kPending);
  ob->pending_since = env_->Now();
  ++metrics_.bats_pending_tagged;
  if (sink_ != nullptr) sink_->OnBatPending(options_.node_id, ob->id);
}

void DcNode::DispatchRequest(RequestEntry* entry, bool resend) {
  entry->sent = true;
  entry->in_flight = true;
  entry->last_dispatch = env_->Now();
  ++entry->dispatch_count;
  ++metrics_.request_msgs_sent;
  if (resend) {
    ++metrics_.resends;
    if (entry->HasBlockedPins()) ++metrics_.resend_rescues;
  }
  if (sink_ != nullptr) sink_->OnRequestDispatched(options_.node_id, entry->bat_id, resend);
  env_->SendRequestMsg(RequestMsg{options_.node_id, entry->bat_id});
}

bool DcNode::ShouldResignal(const RequestEntry& entry, SimTime now) const {
  if (entry.in_flight) return false;
  const SimTime rot = rotation_estimate_ != 0 ? rotation_estimate_
                                              : options_.initial_rotation_estimate;
  const SimTime stale_after = static_cast<SimTime>(1.5 * static_cast<double>(rot));
  return entry.last_seen == 0 || now - entry.last_seen > stale_after;
}

SimTime DcNode::ResendTimeout() const {
  const SimTime rot = rotation_estimate_ != 0 ? rotation_estimate_
                                              : options_.initial_rotation_estimate;
  return std::max(options_.min_resend_timeout,
                  static_cast<SimTime>(kResendFactor * static_cast<double>(rot)));
}

SimTime DcNode::LostTimeout() const {
  const SimTime rot = std::max(rotation_estimate_, options_.initial_rotation_estimate);
  return std::max<SimTime>(options_.min_resend_timeout * 2,
                           static_cast<SimTime>(kLostFactor * static_cast<double>(rot)));
}

}  // namespace dcy::core
