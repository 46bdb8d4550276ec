// DcNode: the Data Cyclotron layer of one ring node (paper §4.2-§4.4).
//
// This is a *pure state machine*: all I/O (timers, network sends, query
// unblocking, buffer introspection) goes through the DcEnv interface, so the
// identical protocol code runs inside the discrete-event simulator
// (src/simdc) and inside the live multi-threaded runtime (src/runtime).
//
// Implemented algorithms, by paper figure:
//   Fig. 3  Request Propagation  -> OnRequestMsg()
//   Fig. 4  BAT Propagation      -> OnBatMsg() non-owner branch
//   Fig. 5  Hot-set management   -> OnBatMsg() owner branch
//   §4.2.3  loadAll()            -> OnLoadAllTimer()
//   §4.2.3  resend()             -> OnMaintenanceTimer()
//   §4.4/§5.2 LOIT adaptation    -> OnAdaptTimer() via LoitPolicy
//
// Two refinements leave resend() to loss recovery on a loss-free ring:
//   - the owner remembers a request that reaches a hot BAT and serves it at
//     the BAT's next return if that return would unload it after a lap no
//     node used (OwnerHandleReturn);
//   - every maintenance tick re-requests for blocked pins whose BAT is
//     overdue (ShouldResignal), not only the pin() call itself.
#pragma once

#include <memory>
#include <vector>

#include "common/units.h"
#include "core/catalog.h"
#include "core/loi.h"
#include "core/stats_sink.h"
#include "core/types.h"

namespace dcy::core {

/// \brief Environment a DcNode runs in; implemented by the simulator and by
/// the live runtime.
class DcEnv {
 public:
  virtual ~DcEnv() = default;

  /// Current time (virtual in the simulator, steady clock in the runtime).
  virtual SimTime Now() = 0;

  /// Dispatches a request message anti-clockwise (to the predecessor).
  virtual void SendRequestMsg(const RequestMsg& msg) = 0;

  /// Forwards / injects a BAT clockwise (to the successor). `is_load` is
  /// true when the owner injects it from cold storage (the embedder may
  /// model disk latency for loads).
  virtual void SendBatMsg(const BatHeader& header, bool is_load) = 0;

  /// Unblocks a query whose pin() was waiting for `bat`.
  virtual void DeliverToQuery(QueryId query, BatId bat) = 0;

  /// Reports that `bat` does not exist; the query must raise an exception
  /// (Fig. 3, first outcome).
  virtual void FailQuery(QueryId query, BatId bat) = 0;

  /// Local BAT-queue occupancy in bytes (network-layer data buffer).
  virtual uint64_t BatQueueLoadBytes() = 0;
  /// Local BAT-queue capacity in bytes.
  virtual uint64_t BatQueueCapacityBytes() = 0;
};

/// \brief Tunables of the protocol; defaults follow the paper where it
/// specifies values, and are conservative where it does not.
struct DcNodeOptions {
  NodeId node_id = 0;
  uint32_t ring_size = 0;  ///< number of nodes; 0 = unknown (disables heuristics)

  /// loadAll() period T (§4.2.3: "Every T msec"); paper leaves T open.
  SimTime load_all_period = FromMillis(50);

  /// Maintenance scan period (resend + lost-BAT + garbage collection).
  SimTime maintenance_period = FromMillis(250);

  /// LOIT adaptation period (§5.2 reacts to buffer load continuously; we
  /// evaluate on a short timer plus after every load/unload).
  SimTime adapt_period = FromMillis(100);

  /// Fallback expected rotation before any cycle was observed.
  SimTime initial_rotation_estimate = FromMillis(500);
  /// Lower bound of the resend timeout, so EMA noise cannot cause resend
  /// storms.
  SimTime min_resend_timeout = FromMillis(200);

  /// Admission: a load is allowed while queue_load + size <= headroom x
  /// capacity. 1.0 reproduces the paper's "ring is full" check.
  double load_admission_headroom = 1.0;

  /// Ablation switches (all true = paper behaviour).
  bool combine_requests = true;   ///< Fig. 3 outcome 5 (absorb duplicates)
  bool pending_fit_check = true;  ///< loadAll skips BATs that do not fit
  bool enable_resend = true;      ///< §4.2.3 resend()
};

/// \brief Aggregate per-node protocol counters (cheap, always on).
struct DcNodeMetrics {
  uint64_t requests_registered = 0;   ///< local request() calls
  uint64_t request_msgs_sent = 0;     ///< messages dispatched (incl. resends)
  uint64_t request_msgs_forwarded = 0;
  uint64_t requests_absorbed = 0;     ///< Fig. 3 outcome 5
  uint64_t requests_returned_origin = 0;
  uint64_t resends = 0;
  /// Resends that fired while their entry had a blocked pin: a query that
  /// waited out the resend timeout. On a loss-free ring only a delivery
  /// slower than that timeout leaves one.
  uint64_t resend_rescues = 0;
  uint64_t pins_total = 0;
  uint64_t pins_local_hit = 0;        ///< owned-BAT or cache hit
  uint64_t pins_blocked = 0;
  uint64_t deliveries = 0;
  uint64_t bat_passes = 0;            ///< BATs seen on the data channel
  uint64_t bats_loaded = 0;
  uint64_t bats_unloaded = 0;
  uint64_t bats_pending_tagged = 0;
  uint64_t pending_loads = 0;         ///< loads performed by loadAll()
  uint64_t cycles_completed = 0;
  uint64_t bats_presumed_lost = 0;
  uint64_t queries_failed = 0;
};

/// \brief One node's Data Cyclotron layer. Not thread-safe: the simulator is
/// single-threaded and the live runtime serializes per-node protocol work on
/// the node's service thread.
class DcNode {
 public:
  /// `env`, `loit` and (optional) `sink` must outlive the node.
  DcNode(DcNodeOptions options, DcEnv* env, LoitPolicy* loit, StatsSink* sink = nullptr);

  // ---- data loader (owner) interface -------------------------------------

  /// Registers a BAT owned by this node (initially cold on disk).
  bool AddOwnedBat(BatId bat, uint64_t size);
  /// Deletes an owned BAT; future requests for it will fail at the origin.
  bool RemoveOwnedBat(BatId bat);

  // ---- the three calls injected into query plans (§4.1) ------------------

  /// datacyclotron.request(): announces interest of `query` in `bat`.
  void Request(QueryId query, BatId bat);

  /// datacyclotron.pin(): returns true if the BAT is available right now
  /// (owned locally or cached); otherwise the query blocks — the embedder
  /// suspends it until DcEnv::DeliverToQuery fires.
  bool Pin(QueryId query, BatId bat);

  /// datacyclotron.unpin(): releases the query's reference on the BAT.
  void Unpin(QueryId query, BatId bat);

  /// Declares `bat` unobtainable (its owner died and the fragment was not
  /// re-homed): fails every undelivered query waiting on it and retires the
  /// request entry, exactly as a request returning to its origin would.
  void FailBat(BatId bat);

  // ---- network-facing entry points (§4.3) ---------------------------------

  /// A request message arrived from the successor (anti-clockwise flow).
  void OnRequestMsg(const RequestMsg& msg);
  /// A BAT arrived from the predecessor (clockwise flow).
  void OnBatMsg(const BatHeader& header);

  // ---- timers --------------------------------------------------------------

  /// §4.2.3 loadAll(): starts postponed loads, oldest first, best fit.
  void OnLoadAllTimer();
  /// resend() + lost-BAT detection + completed-entry garbage collection.
  void OnMaintenanceTimer();
  /// Feeds the LOIT policy with the current queue load fraction.
  void OnAdaptTimer();

  // ---- introspection --------------------------------------------------------

  NodeId node_id() const { return options_.node_id; }
  double loit() const { return loit_->threshold(); }
  const DcNodeMetrics& metrics() const { return metrics_; }
  const OwnedCatalog& owned() const { return owned_; }          // S1
  const RequestTable& requests() const { return requests_; }    // S2
  const PinTable& pins() const { return pins_; }                // S3
  const BatCache& cache() const { return cache_; }
  const DcNodeOptions& options() const { return options_; }
  /// Owner-side estimate of the current ring rotation time (EMA).
  SimTime rotation_estimate() const { return rotation_estimate_; }

 private:
  /// True if `size` more bytes fit into the local BAT queue (admission).
  bool CanLoadNow(uint64_t size);
  /// Loads an owned cold/pending BAT into the ring (Fig. 3 outcome 4).
  void LoadOwnedBat(OwnedBat* bat, bool from_pending);
  /// Postpones the load of a requested owned BAT (Fig. 3 outcome 3).
  void TagPending(OwnedBat* bat);
  /// Owner branch of OnBatMsg: Fig. 5 hot-set management.
  void OwnerHandleReturn(BatHeader header);
  /// Non-owner branch of OnBatMsg: Fig. 4 BAT propagation.
  void PropagateBat(BatHeader header);
  /// Dispatches this node's own request message for `entry`.
  void DispatchRequest(RequestEntry* entry, bool resend);
  /// True when a blocked pin on `entry` should re-request now: no request of
  /// ours is in flight and the BAT has not passed for over 1.5 rotations, so
  /// its owner has likely unloaded it.
  bool ShouldResignal(const RequestEntry& entry, SimTime now) const;
  /// Delivers `bat` to every query blocked on it; returns how many.
  uint32_t DeliverToBlockedPins(BatId bat, uint64_t size);
  SimTime ResendTimeout() const;
  SimTime LostTimeout() const;

  DcNodeOptions options_;
  DcEnv* env_;
  LoitPolicy* loit_;
  StatsSink* sink_;
  DcNodeMetrics metrics_;

  OwnedCatalog owned_;     // S1
  RequestTable requests_;  // S2
  PinTable pins_;          // S3
  BatCache cache_;

  /// EMA of observed rotation times at this owner.
  SimTime rotation_estimate_ = 0;
};

}  // namespace dcy::core
