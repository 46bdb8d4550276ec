// The live Data Cyclotron runtime: a ring of node threads moving real BAT
// payloads over the RDMA-emulating channels, running the *same* protocol
// state machine (core::DcNode) that the simulator validates, and executing
// real MAL plans rewritten by the DcOptimizer. Every plan is rewritten, so a
// query reads each BAT one way: pin on the ring, then resolve the pinned
// fragment through the write log into the query's snapshot view.
//
// Threading model: each node runs one service thread that owns its DcNode
// (single-writer, as in the simulator). Queries enter through the session
// API (runtime/session.h): Submit() places them in the node's FIFO
// admission queue and a fixed pool of per-node query runners (created once
// at Start) executes at most AdmissionOptions::max_concurrent of them at a
// time, each blocking in pin() on a future until the fragment flows by —
// exactly the paper's §4.1 execution contract, bounded per node.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/admission.h"
#include "core/dc_node.h"
#include "exec/executor.h"
#include "mal/interpreter.h"
#include "net/reliable.h"
#include "opt/dc_optimizer.h"
#include "rdma/channel.h"
#include "rdma/fault.h"
#include "runtime/session.h"
#include "sql/schema.h"
#include "storage/fragment_store.h"
#include "write/write_log.h"

namespace dcy::runtime {

/// \brief Fault-tolerance tunables of the live ring.
struct ResilienceOptions {
  /// Hop-level retry/backoff of every directed neighbour link.
  net::ReliableOptions link;
  /// Neighbour heartbeat cadence on the control channel.
  SimTime heartbeat_period = FromMillis(25);
  /// Silence from a neighbour for `heartbeat_miss_threshold` periods makes
  /// a node report it as suspect (crash detection latency ~= product).
  uint32_t heartbeat_miss_threshold = 8;
  bool enable_heartbeats = true;
  /// On a confirmed node death, re-register its fragments on the next alive
  /// node (the heir) so the data survives the owner. When off, pins on the
  /// dead node's fragments fail with Unavailable instead.
  bool auto_rehome = true;
  /// Seed for the per-link backoff jitter streams.
  uint64_t seed = 0xDC0FA17u;
};

/// \brief A complete in-process ring.
class RingCluster {
 public:
  /// One ring member (opaque; owned by the cluster).
  class Node;

  struct Options {
    uint32_t num_nodes = 3;
    rdma::TransferMode mode = rdma::TransferMode::kZeroCopy;
    /// Logical BAT-queue capacity per node (admission + LOIT input).
    uint64_t bat_queue_capacity = 64 * kMB;
    bool adaptive_loit = true;
    double static_loit = 0.1;
    core::AdaptiveLoit::Options adaptive;
    core::DcNodeOptions node;  // node_id/ring_size filled per node
    /// Spill directory root ("" keeps all cold data in memory).
    std::string spill_dir;
    /// Max instructions of one plan executing concurrently (dataflow width).
    /// Plans run as tasks on the process-wide exec::Executor — no threads
    /// are created per query.
    size_t plan_workers = 4;
    /// Morsel-parallel kernel policy (workers / morsel_rows / threshold /
    /// join_partitions for the radix-partitioned hash build), applied
    /// process-wide at Start(). Concurrent query sessions share the
    /// executor's fixed pool instead of oversubscribing the machine.
    exec::ExecPolicy exec_policy;
    /// Per-node query admission: at most `admission.max_concurrent` queries
    /// execute on a node at once; bursts queue FIFO up to
    /// `admission.max_queued`, beyond which Submit() is rejected.
    core::AdmissionOptions admission;
    /// Prepared-plan cache bound (oldest-inserted evicted beyond it), so
    /// ad-hoc query texts cannot grow the cache without limit.
    size_t plan_cache_capacity = 1024;
    /// Hop reliability, heartbeats, and recovery behaviour.
    ResilienceOptions resilience;
    /// Per-node memory budget and two-tier spill behaviour. `spill_dir` in
    /// here is derived per node from Options::spill_dir (when a budget is
    /// set and Options::spill_dir is empty, the cluster creates a private
    /// temp directory and removes it on destruction).
    storage::FragmentStoreOptions memory;
    /// Optional deterministic fault injection applied to every channel of
    /// the ring (drop/delay/duplicate/corrupt per the injector's schedule).
    /// Not owned; must outlive the cluster. nullptr = fault-free fabric.
    rdma::FaultInjector* fault = nullptr;
    /// Background compaction of pending write deltas into new base
    /// fragments (write/write_log.h). One compactor thread per node; a
    /// table is folded by the node owning its first fragment.
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

  /// Directory lookup: the BAT id registered for "schema.table.column".
  Result<core::BatId> FindFragment(const std::string& name) const;

  /// SQL schema derived from the BATs registered via LoadBat (tail value
  /// types, keyed by qualified name). Snapshot: BATs loaded later are not
  /// reflected in previously returned schemas.
  sql::Schema SqlSchema() const;

  // ---- writes (ISSUE-9: versioned fragments + circulating deltas) ----------

  /// The cluster write log: commit authority for INSERT/DELETE, versioned
  /// fragment views, and the fold machinery. Exposed for tests and tools
  /// (SetFoldHookForTest, TableVersions); queries go through SQL/MAL.
  write::WriteLog& write_log() { return write_log_; }
  const write::WriteLog& write_log() const { return write_log_; }

  /// Write-subsystem counters (deltas published/merged/folded, ring
  /// circulation, compactions).
  write::WriteMetrics Writes() const { return write_log_.Metrics(); }
  /// Per-table base/current versions and pending-delta gauges (dcsql
  /// \tables).
  std::vector<write::TableVersionInfo> TableVersions() const {
    return write_log_.TableVersions();
  }

  /// Pins the current commit version as a reader snapshot: folds never pass
  /// it, so SubmitOptions::snapshot_version can replay reads at this version
  /// indefinitely. Balance with UnpinWriteSnapshot.
  uint64_t PinWriteSnapshot() { return write_log_.AcquireSnapshot(); }
  void UnpinWriteSnapshot(uint64_t v) { write_log_.ReleaseSnapshot(v); }
  uint64_t CurrentWriteVersion() const { return write_log_.CurrentVersion(); }

  // ---- fault tolerance ------------------------------------------------------

  /// Kills `node` abruptly: running queries fail with Unavailable, its
  /// channels close, its service thread exits. The surviving ring detects
  /// the silence via heartbeats, splices the node out, and (with
  /// auto_rehome) re-materializes its fragments on the heir. Refuses to
  /// crash the last alive node.
  Status CrashNode(core::NodeId node);

  /// Brings a crashed node back: fresh protocol state, reopened channels,
  /// re-registered owned fragments (those not re-homed meanwhile), and a
  /// re-splice into the ring between its current alive neighbours.
  Status RestartNode(core::NodeId node);

  /// False once CrashNode(node) ran, true again after RestartNode(node).
  bool IsNodeAlive(core::NodeId node) const;

  /// True while at least one node is crashed (admission sheds load early).
  bool degraded() const { return dead_count_.load(std::memory_order_relaxed) > 0; }

  /// \brief Aggregated fault-tolerance counters across all nodes.
  struct ResilienceMetrics {
    // Hop-level reliability (summed over every directed link).
    uint64_t retransmits = 0;
    uint64_t frames_abandoned = 0;
    uint64_t link_resets = 0;
    uint64_t frames_corrupted = 0;   ///< CRC mismatches caught at receivers
    uint64_t frames_duplicate = 0;
    uint64_t frames_gap = 0;
    uint64_t frames_stale = 0;
    uint64_t frames_invalid = 0;
    uint64_t nacks_sent = 0;
    uint64_t acks_sent = 0;
    // Node liveness.
    uint64_t heartbeats_sent = 0;
    uint64_t heartbeats_received = 0;
    uint64_t heartbeats_missed = 0;
    // Degradation bookkeeping.
    uint64_t forwards_without_payload = 0;
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
  struct BandwidthMetrics {
    uint64_t frames_encoded = 0;  ///< BAT frames serialized for the ring
    uint64_t raw_bytes = 0;       ///< same frames with every column pass-through
    uint64_t wire_bytes = 0;      ///< frame bytes actually produced
    uint64_t hops = 0;            ///< payload-bearing data-frame sends
    uint64_t hop_bytes = 0;       ///< payload bytes summed over those sends
    // Per-column codec choices across all encoded frames.
    uint64_t dict_columns = 0;
    uint64_t for_columns = 0;
    uint64_t plain_columns = 0;
  };
  BandwidthMetrics Bandwidth() const;

  /// Memory gauges and two-tier counters of one node's fragment store.
  storage::MemoryMetrics NodeMemory(core::NodeId node) const;
  /// The same, summed over every node.
  storage::MemoryMetrics Memory() const;

  uint32_t num_nodes() const { return options_.num_nodes; }
  /// Protocol metrics of a node (snapshot; service thread keeps mutating).
  core::DcNodeMetrics NodeMetrics(core::NodeId node) const;
  /// Admission-queue metrics of a node (snapshot).
  core::AdmissionMetrics NodeAdmissionMetrics(core::NodeId node) const;
  /// Outstanding S2 request entries at a node (snapshot; tests use this to
  /// assert cancelled queries do not leak fragment requests).
  size_t OutstandingRequestEntries(core::NodeId node) const;
  PlanCacheStats plan_cache_stats() const;
  /// Total payload bytes moved clockwise so far.
  uint64_t TotalDataBytesMoved() const;
  const Options& options() const { return options_; }

 private:
  friend class Node;
  friend class Session;

  /// Runs one admitted query on its node (called by the node's runners).
  Result<QueryResult> RunQuery(Node* node, const PreparedQuery& plan,
                               internal::QueryState* state, const SubmitOptions& options);

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

  /// Re-materializes `bat` into `node`'s store from the cluster fragment
  /// registry (the ring's durable copy) after a corrupt or lost spill
  /// image. NotFound when the registry has no such fragment.
  Status RefetchFragment(core::BatId bat, Node* node);

  /// Neighbour walk over the original ring order, skipping spliced-out
  /// nodes. Callers hold ring_mu_.
  core::NodeId NextAliveLocked(core::NodeId from) const;
  core::NodeId PrevAliveLocked(core::NodeId from) const;

  /// One compactor sweep on behalf of `node`: folds every threshold-crossed
  /// table whose first fragment `node` owns, then republishes the rebased
  /// fragments under the new base version.
  void CompactionPass(core::NodeId node);
  /// Body of a node's background compactor thread.
  void CompactorLoop(core::NodeId node);

  Options options_;
  /// True when the cluster created a private temp spill root (removed on
  /// destruction).
  bool owns_spill_dir_ = false;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Global name -> fragment directory (guarded by directory_mu_).
  mutable std::mutex directory_mu_;
  std::unordered_map<std::string, core::BatId> directory_;
  std::unordered_map<core::BatId, uint64_t> sizes_;
  /// Cluster-level fragment registry: everything needed to re-materialize a
  /// fragment when its owner dies (guarded by directory_mu_).
  struct FragmentInfo {
    std::string name;
    core::NodeId owner = 0;
    uint64_t size = 0;
    bat::BatPtr loader;  ///< the persistent payload, for re-homing
  };
  std::unordered_map<core::BatId, FragmentInfo> fragments_;

  // ---- ring membership (guarded by ring_mu_ unless noted) -------------------
  mutable std::mutex ring_mu_;
  std::vector<bool> spliced_in_;                    ///< part of the ring walk
  std::unique_ptr<std::atomic<bool>[]> alive_;      ///< lock-free liveness
  std::atomic<uint32_t> dead_count_{0};
  std::atomic<uint64_t> unavailable_failures_{0};
  uint64_t nodes_crashed_ = 0;
  uint64_t nodes_restarted_ = 0;
  uint64_t resplices_ = 0;
  uint64_t suspicions_ = 0;
  uint64_t false_suspicions_ = 0;
  uint64_t rehomed_fragments_ = 0;
  double last_recovery_seconds_ = 0.0;
  std::chrono::steady_clock::time_point crashed_at_{};
  /// Tail value type per qualified name (guarded by directory_mu_); feeds
  /// the SQL front end's schema so SELECTs resolve against loaded BATs.
  std::map<std::string, bat::ValType> column_types_;
  std::atomic<core::BatId> next_bat_{1};
  std::atomic<core::QueryId> next_query_{1};
  std::atomic<bool> started_{false};

  mutable std::mutex plan_cache_mu_;
  std::unordered_map<std::string, PreparedQueryPtr> plan_cache_;
  std::deque<std::string> plan_cache_order_;  ///< insertion order (eviction)
  PlanCacheStats plan_cache_stats_;

  // ---- the write subsystem --------------------------------------------------
  /// Cluster-level commit log (thread-safe on its own mutex). Nodes only
  /// forward circulating delta frames; every read resolves its deltas here.
  write::WriteLog write_log_;
  /// Background compactors, one per node, owned by the cluster (never by
  /// the node threads: CrashNode must not join them). Started in Start(),
  /// joined in Stop().
  std::vector<std::thread> compactors_;
  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool compactors_stop_ = false;  ///< guarded by compact_mu_
};

}  // namespace dcy::runtime
