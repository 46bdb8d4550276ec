// The live Data Cyclotron runtime: a ring of node threads moving real BAT
// payloads over the RDMA-emulating channels, running the *same* protocol
// state machine (core::DcNode) that the simulator validates, and executing
// real MAL plans rewritten by the DcOptimizer. Every plan is rewritten, so a
// query reads each BAT one way: pin on the ring, then resolve the pinned
// fragment through the write log into the query's snapshot view.
//
// Each node has the paper's layers: the network layer (runtime/ring_node.h)
// around the DcNode, and the DBMS layer (runtime/query_hooks.h) behind a FIFO
// admission queue (runtime/admission.h). The cluster owns the owner map,
// membership and recovery, the compactor and the plan cache.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/dc_node.h"
#include "net/reliable.h"
#include "rdma/fault.h"
#include "runtime/admission.h"
#include "runtime/session.h"
#include "sql/schema.h"
#include "storage/fragment_store.h"
#include "write/write_log.h"

namespace dcy::runtime {

class RingNode;

/// \brief Fault-tolerance tunables of the live ring.
struct ResilienceOptions {
  /// Hop-level retry/backoff of every directed neighbour link.
  net::ReliableOptions link;
  /// Neighbour heartbeat cadence on the control channel.
  SimTime heartbeat_period = FromMillis(25);
  /// Silence from a neighbour for `heartbeat_miss_threshold` periods makes
  /// a node report it as suspect (crash detection latency ~= product).
  uint32_t heartbeat_miss_threshold = 8;
  /// On a confirmed node death, re-register its fragments on the next alive
  /// node (the heir) so the data survives the owner. When off, pins on the
  /// dead node's fragments fail with Unavailable instead.
  bool auto_rehome = true;
};

/// \brief A complete in-process ring.
class RingCluster {
 public:
  struct Options {
    uint32_t num_nodes = 3;
    /// Protocol timers sized for a live ring, which rotates in milliseconds
    /// (core::DcNodeOptions keeps the simulator's defaults). node_id and
    /// ring_size are filled per node.
    core::DcNodeOptions node = [] {
      core::DcNodeOptions o;
      o.load_all_period = FromMillis(2);
      o.maintenance_period = FromMillis(10);
      o.adapt_period = FromMillis(10);
      o.initial_rotation_estimate = FromMillis(5);
      return o;
    }();
    /// No effect: there is no disk tier. ringbench/ still sets it; remove it
    /// when ringbench next changes.
    std::string spill_dir;
    /// Max instructions of one plan executing concurrently (dataflow width).
    /// Plans run as tasks on the process-wide exec::Executor — no threads
    /// are created per query.
    size_t plan_workers = 4;
    /// Per-node query admission: at most `admission.max_concurrent` queries
    /// execute on a node at once; bursts queue FIFO up to
    /// `admission.max_queued`, beyond which Submit() is rejected.
    AdmissionOptions admission;
    /// Prepared-plan cache bound (oldest-inserted evicted beyond it), so
    /// ad-hoc query texts cannot grow the cache without limit.
    size_t plan_cache_capacity = 1024;
    /// Hop reliability, heartbeats, and recovery behaviour.
    ResilienceOptions resilience;
    /// Per-node budget of the copies of ring BATs that local queries hold
    /// (storage/fragment_store.h). Owned fragments live in the write log and
    /// are not charged.
    storage::FragmentStoreOptions memory;
    /// Optional deterministic fault injection applied to every channel of
    /// the ring (drop/delay/duplicate/corrupt per the injector's schedule).
    /// Not owned; must outlive the cluster. nullptr = fault-free fabric.
    rdma::FaultInjector* fault = nullptr;
    /// Background compaction of pending write deltas into new base
    /// fragments (write/write_log.h). One cluster compactor thread folds
    /// each table for the node owning its first fragment, whose liveness
    /// guards the fold's commit.
    write::CompactionOptions compaction;
  };

  /// Shared plan-cache counters: `misses` counts actual parse + DcOptimize
  /// compilations, so a plan prepared once and executed N times shows
  /// exactly one miss however many sessions reuse it.
  struct PlanCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
  };

  explicit RingCluster(Options options);
  ~RingCluster();

  RingCluster(const RingCluster&) = delete;
  RingCluster& operator=(const RingCluster&) = delete;

  /// Registers a persistent BAT on `owner` (before or after Start). The
  /// qualified name must be "schema.table.column" (validated); duplicate
  /// registrations are rejected with AlreadyExists.
  Status LoadBat(core::NodeId owner, const std::string& name, bat::BatPtr bat);

  /// Starts the node service threads and query runners.
  void Start();
  /// Stops and joins everything (idempotent; also run by the destructor).
  /// Queued queries fail with Aborted; running ones are cancelled.
  void Stop();

  // ---- the session-based query API (runtime/session.h) --------------------

  /// Opens a client session against `node`.
  Result<Session> OpenSession(core::NodeId node);

  /// Compile + DcOptimize `text` once; repeated Prepare calls for the same
  /// text (in the same language) return the cached PreparedQuery (shared
  /// across sessions). SQL is compiled against the schema of the BATs
  /// registered so far via LoadBat; `options.language` defaults to
  /// auto-detection. Pass `use_cache = false` to force a fresh compilation
  /// (benchmarking). Every plan is DC-optimized: its sql.bind calls become
  /// request/pin/unpin, so all reads go through the ring and the write log.
  Result<PreparedQueryPtr> Prepare(const std::string& text,
                                   const PrepareOptions& options = {});

  /// Asynchronous submission against `node` (see Session::Submit).
  Result<QueryHandle> Submit(core::NodeId node, const PreparedQueryPtr& prepared,
                             const SubmitOptions& options = {});

  /// SQL schema derived from the BATs registered via LoadBat (the write
  /// log's tail value types, keyed by qualified name). Snapshot: BATs
  /// loaded later are not reflected in previously returned schemas.
  sql::Schema SqlSchema() const {
    return sql::Schema::FromQualifiedColumns(write_log_.ColumnTypes());
  }

  // ---- writes: versioned fragments resolved through the write log ---------

  /// The cluster write log: the fragment directory (name, tail type and
  /// durable payload of every fragment), commit authority for INSERT/DELETE,
  /// versioned fragment views, and the fold machinery. A commit reaches
  /// readers only through it: the ring carries base fragments, and every pin
  /// resolves its fragment here at the query's snapshot. Tests, tools and
  /// benches read it directly (FindFragment, Metrics, TableVersions, pinned
  /// reader snapshots via AcquireSnapshot/ReleaseSnapshot); queries go
  /// through SQL/MAL.
  write::WriteLog& write_log() { return write_log_; }
  const write::WriteLog& write_log() const { return write_log_; }

  // ---- fault tolerance ------------------------------------------------------

  /// Kills `node` abruptly: running queries fail with Unavailable, its
  /// channels close, its service thread exits. The surviving ring detects
  /// the silence via heartbeats, splices the node out, and (with
  /// auto_rehome) hands its fragments to the heir. Refuses to crash the last
  /// alive node.
  Status CrashNode(core::NodeId node);

  /// Brings a crashed node back: fresh protocol state, reopened channels,
  /// re-registered owned fragments (those not re-homed meanwhile), and a
  /// re-splice into the ring between its current alive neighbours. The
  /// node counts as alive only once all of that is done.
  Status RestartNode(core::NodeId node);

  /// False once CrashNode(node) ran, true again after RestartNode(node).
  bool IsNodeAlive(core::NodeId node) const;

  /// True while at least one node is crashed (admission sheds load early).
  bool degraded() const { return dead_count_.load(std::memory_order_relaxed) > 0; }

  /// \brief Aggregated fault-tolerance counters across all nodes. The
  /// inherited hop-level reliability counters are summed over every
  /// directed link.
  struct ResilienceMetrics : net::ReliableMetrics {
    /// Full payload passes that decided a data-frame verdict. A node hashes
    /// each payload object once and reuses its CRC for later arrivals of the
    /// same object; an owner's own frames are hashed when encoded, not here.
    uint64_t payload_hashes = 0;
    uint64_t acks_sent = 0;
    // Node liveness.
    uint64_t heartbeats_sent = 0;
    uint64_t heartbeats_received = 0;
    uint64_t heartbeats_missed = 0;
    // Degradation bookkeeping.
    uint64_t orphan_frames_dropped = 0;  ///< dead-owner frames aged out
    uint64_t frames_adopted = 0;         ///< dead-owner frames re-homed in flight
    uint64_t decode_failures = 0;
    // Cluster-level recovery.
    uint64_t nodes_crashed = 0;
    uint64_t nodes_restarted = 0;
    uint64_t ring_resplices = 0;
    uint64_t suspicions = 0;
    uint64_t false_suspicions = 0;
    uint64_t rehomed_fragments = 0;
    uint64_t unavailable_failures = 0;  ///< pins failed with Unavailable
    uint64_t shed_degraded = 0;         ///< submissions shed while degraded
    /// Crash -> ring re-splice latency of the most recent recovery.
    double last_recovery_seconds = 0.0;
  };
  ResilienceMetrics Resilience() const;

  /// \brief Wire-compression accounting summed over all nodes: what the
  /// ring actually shipped vs the all-pass-through frames it would have.
  /// An owner encodes each payload object of a fragment once and ships the
  /// memoized frame on every later load, so `frames_encoded` counts encodes
  /// while the byte and codec-column counters count loads.
  struct BandwidthMetrics {
    uint64_t frames_encoded = 0;  ///< BAT frames serialized for the ring
    uint64_t raw_bytes = 0;       ///< loaded frames with every column pass-through
    uint64_t wire_bytes = 0;      ///< loaded frame bytes
    uint64_t hops = 0;            ///< payload-bearing data-frame sends
    uint64_t hop_bytes = 0;       ///< payload bytes summed over those sends
    // Per-column codec choices across all loaded frames.
    uint64_t dict_columns = 0;
    uint64_t for_columns = 0;
    uint64_t plain_columns = 0;
    /// Gauge: bytes of the encoded frames owners keep for their next loads.
    uint64_t memo_bytes = 0;

    /// Sums every counter of `other` into this (cluster aggregation).
    void Add(const BandwidthMetrics& other);
  };
  BandwidthMetrics Bandwidth() const;

  /// Memory gauges and counters of one node's store of ring copies.
  storage::MemoryMetrics NodeMemory(core::NodeId node) const;
  /// The same, summed over every node.
  storage::MemoryMetrics Memory() const;

  uint32_t num_nodes() const { return options_.num_nodes; }
  /// Protocol metrics of a node (snapshot; service thread keeps mutating).
  core::DcNodeMetrics NodeMetrics(core::NodeId node) const;
  /// Admission-queue metrics of a node (snapshot).
  AdmissionMetrics NodeAdmissionMetrics(core::NodeId node) const;
  /// Outstanding S2 request entries at a node (snapshot; tests use this to
  /// assert cancelled queries do not leak fragment requests).
  size_t OutstandingRequestEntries(core::NodeId node) const;
  PlanCacheStats plan_cache_stats() const;
  /// Total payload bytes moved clockwise so far.
  uint64_t TotalDataBytesMoved() const;
  const Options& options() const { return options_; }

 private:
  friend class RingNode;

  /// A node's heartbeat watchdog fired: `reporter` has heard nothing from
  /// `suspect`. Consults the membership oracle (was the node actually
  /// crashed?), splices a confirmed-dead node out of the ring, and hands
  /// its fragments to the heir (or fails them).
  void ReportSuspect(core::NodeId reporter, core::NodeId suspect);

  /// Re-homes or fails every fragment owned by the dead `suspect`.
  void HandleDeadFragments(core::NodeId suspect, core::NodeId heir);

  /// The typed error a pin on `bat` should fail with right now:
  /// Unavailable when its registered owner is down, NotFound otherwise.
  Status FragmentFailureStatus(core::BatId bat);

  /// The owner map's entry for `bat` (kInvalidNode when unregistered).
  core::NodeId OwnerOf(core::BatId bat) const;

  /// The byte size of `bat`'s base in the write log (0 when unregistered):
  /// what an owner announces to its protocol state.
  uint64_t BaseBytes(core::BatId bat) const;

  /// The nearest spliced-in node after `from` (before it when not
  /// `clockwise`) in the original ring order; `from` when there is none.
  /// Callers hold ring_mu_.
  core::NodeId AliveNeighbourLocked(core::NodeId from, bool clockwise) const;

  /// One compactor sweep: folds every threshold-crossed table whose first
  /// fragment's owner is alive, guarded by that owner's liveness. Owners
  /// load the new bases from the log.
  void CompactionPass();
  /// Body of the cluster's background compactor thread.
  void CompactorLoop();

  Options options_;
  std::vector<std::unique_ptr<RingNode>> nodes_;
  /// The node owning each fragment (paper §4.2: one owner per BAT), the
  /// cluster's only fragment state beside the write log. Re-homing moves
  /// entries to the heir.
  mutable std::mutex owners_mu_;
  std::unordered_map<core::BatId, core::NodeId> owners_;

  // ---- ring membership (guarded by ring_mu_ unless noted) -------------------
  mutable std::mutex ring_mu_;
  std::vector<bool> spliced_in_;                    ///< part of the ring walk
  std::unique_ptr<std::atomic<bool>[]> alive_;      ///< lock-free liveness
  std::atomic<uint32_t> dead_count_{0};
  std::atomic<uint64_t> unavailable_failures_{0};
  /// Membership and recovery counters (crashes, restarts, suspicions,
  /// re-splices, re-homes, last recovery time); nodes add the rest.
  ResilienceMetrics recovery_;
  std::chrono::steady_clock::time_point crashed_at_{};
  std::atomic<core::BatId> next_bat_{1};
  std::atomic<core::QueryId> next_query_{1};
  std::atomic<bool> started_{false};

  mutable std::mutex plan_cache_mu_;
  std::unordered_map<std::string, PreparedQueryPtr> plan_cache_;
  std::deque<std::string> plan_cache_order_;  ///< insertion order (eviction)
  PlanCacheStats plan_cache_stats_;

  // ---- the write subsystem --------------------------------------------------
  /// Cluster-level commit log and fragment directory (thread-safe on its own
  /// mutex). No node keeps or forwards a commit; every pin resolves its
  /// fragment's deltas here.
  write::WriteLog write_log_;
  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool compactor_stop_ = false;  ///< guarded by compact_mu_
  /// The background compactor, owned by the cluster (never by a node:
  /// CrashNode must not join it). Started in Start(), joined in Stop().
  std::thread compactor_;
};

}  // namespace dcy::runtime
