#include "runtime/ring_cluster.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "opt/dc_optimizer.h"
#include "runtime/ring_node.h"
#include "sql/compiler.h"

namespace dcy::runtime {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The "schema.table.column" contract of LoadBat: exactly three non-empty
/// dot-separated parts.
Status ValidateQualifiedName(const std::string& name) {
  const size_t d1 = name.find('.');
  const size_t d2 = d1 == std::string::npos ? std::string::npos : name.find('.', d1 + 1);
  const bool three_parts = d1 != std::string::npos && d2 != std::string::npos &&
                           name.find('.', d2 + 1) == std::string::npos;
  const bool nonempty = three_parts && d1 > 0 && d2 > d1 + 1 && d2 + 1 < name.size();
  if (!nonempty) {
    return Status::InvalidArgument("BAT name must be \"schema.table.column\", got \"" +
                                   name + "\"");
  }
  return Status::OK();
}

}  // namespace

RingCluster::RingCluster(Options options) : options_(options) {
  DCY_CHECK(options_.num_nodes >= 2);
  nodes_.reserve(options_.num_nodes);
  spliced_in_.assign(options_.num_nodes, true);
  alive_ = std::make_unique<std::atomic<bool>[]>(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    alive_[i].store(true, std::memory_order_relaxed);
    nodes_.push_back(std::make_unique<RingNode>(this, i));
  }
  const uint32_t n = options_.num_nodes;
  for (uint32_t i = 0; i < n; ++i) {
    nodes_[i]->SetNeighbour(RingNode::kSuccessor, nodes_[(i + 1) % n].get());
    nodes_[i]->SetNeighbour(RingNode::kPredecessor, nodes_[(i + n - 1) % n].get());
  }
}

RingCluster::~RingCluster() { Stop(); }

Status RingCluster::LoadBat(core::NodeId owner, const std::string& name, bat::BatPtr bat) {
  if (owner >= options_.num_nodes) return Status::InvalidArgument("bad owner node");
  if (bat == nullptr) return Status::InvalidArgument("null BAT for " + name);
  if (!IsNodeAlive(owner)) {
    return Status::Unavailable("owner node " + std::to_string(owner) + " is down");
  }
  DCY_RETURN_NOT_OK(ValidateQualifiedName(name));
  const core::BatId id = next_bat_.fetch_add(1);
  const uint64_t size = bat->ByteSize();
  // The write log records the fragment (version 0 base), its only home. It
  // rejects a duplicate name and a column whose row count disagrees with
  // its table's other columns.
  const size_t last_dot = name.rfind('.');
  DCY_RETURN_NOT_OK(write_log_.RegisterFragment(
      id, name.substr(0, last_dot), name.substr(last_dot + 1), std::move(bat)));
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    owners_[id] = owner;
  }
  if (started_.load()) {
    nodes_[owner]->PostSync([&] { nodes_[owner]->dc().AddOwnedBat(id, size); });
  } else {
    nodes_[owner]->dc().AddOwnedBat(id, size);
  }
  return Status::OK();
}

core::NodeId RingCluster::OwnerOf(core::BatId bat) const {
  std::lock_guard<std::mutex> lock(owners_mu_);
  auto it = owners_.find(bat);
  return it == owners_.end() ? core::kInvalidNode : it->second;
}

void RingCluster::Start() {
  if (started_.exchange(true)) return;
  for (auto& node : nodes_) node->Start();
  // The compactor is owned by the cluster — CrashNode kills a node's threads
  // without touching it, so a fold in flight for a dying node is abandoned
  // by its commit guard, never by a join.
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compactor_stop_ = false;
  }
  compactor_ = std::thread([this] { CompactorLoop(); });
}

void RingCluster::Stop() {
  if (!started_.exchange(false)) return;
  // The compactor first: a fold reads the liveness of nodes torn down
  // below.
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compactor_stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  // Runner pools next (running queries unwind through the still-live
  // service threads), then the protocol layer. Crashed nodes are already
  // quiescent; both calls are no-ops for them.
  for (auto& node : nodes_) {
    if (!node->crashed()) node->StopQueries(Status::Aborted("cluster stopping"));
  }
  for (auto& node : nodes_) {
    if (!node->crashed()) node->Stop();
  }
}

void RingCluster::CompactorLoop() {
  const auto interval =
      std::chrono::nanoseconds(std::max<SimTime>(1, options_.compaction.interval));
  std::unique_lock<std::mutex> lock(compact_mu_);
  while (!compact_cv_.wait_for(lock, interval, [this] { return compactor_stop_; })) {
    lock.unlock();
    CompactionPass();
    lock.lock();
  }
}

void RingCluster::CompactionPass() {
  const auto ready = write_log_.TablesReadyToFold(options_.compaction);
  for (const auto& [table, first_fragment] : ready) {
    // A table is folded for the node owning its first fragment; while that
    // node is down the table waits, and after a re-homing its heir's
    // liveness guards the fold instead.
    const core::NodeId folder = OwnerOf(first_fragment);
    if (!IsNodeAlive(folder)) continue;
    auto folded =
        write_log_.FoldTable(table, [this, folder] { return IsNodeAlive(folder); });
    // Aborted: the folder died mid-fold (the guard rejected the commit and
    // the log stands untouched). Retried at a later pass. Otherwise the log
    // holds the new bases, and each owner's next load encodes its new base.
    if (!folded.ok() || folded->rebased.empty()) continue;
    DCY_LOG(kInfo) << "node " << folder << " folded " << folded->deltas_folded
                   << " delta(s) of " << table << " into base version "
                   << folded->new_version;
  }
}

// ---- fault tolerance -------------------------------------------------------

bool RingCluster::IsNodeAlive(core::NodeId node) const {
  return node < options_.num_nodes && alive_[node].load(std::memory_order_acquire);
}

core::NodeId RingCluster::AliveNeighbourLocked(core::NodeId from, bool clockwise) const {
  const uint32_t n = options_.num_nodes;
  for (uint32_t step = 1; step < n; ++step) {
    const core::NodeId next = (from + (clockwise ? step : n - step)) % n;
    if (spliced_in_[next]) return next;
  }
  return from;
}

Status RingCluster::CrashNode(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");
  RingNode* victim = nodes_[node].get();
  if (victim->crashed()) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is already crashed");
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (dead_count_.load(std::memory_order_relaxed) + 1 >= options_.num_nodes) {
      return Status::FailedPrecondition("refusing to crash the last alive node");
    }
    ++recovery_.nodes_crashed;
    crashed_at_ = std::chrono::steady_clock::now();
  }
  alive_[node].store(false, std::memory_order_release);
  dead_count_.fetch_add(1, std::memory_order_relaxed);
  victim->Crash();
  return Status::OK();
}

void RingCluster::ReportSuspect(core::NodeId reporter, core::NodeId suspect) {
  if (suspect >= options_.num_nodes || reporter == suspect) return;
  RingNode* pred = nullptr;
  RingNode* succ = nullptr;
  core::NodeId heir = suspect;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    ++recovery_.suspicions;
    // Membership oracle: a suspicion only sticks if the node really is
    // down. A live-but-slow neighbour (GC pause, overload) is counted as a
    // false suspicion and the ring stays intact — this reproduction does
    // not attempt distributed consensus on membership.
    if (!nodes_[suspect]->crashed()) {
      ++recovery_.false_suspicions;
      return;
    }
    if (!spliced_in_[suspect]) return;  // another reporter already handled it
    spliced_in_[suspect] = false;
    ++recovery_.ring_resplices;
    recovery_.last_recovery_seconds = SecondsSince(crashed_at_);
    const core::NodeId p = AliveNeighbourLocked(suspect, false);
    const core::NodeId s = AliveNeighbourLocked(suspect, true);
    if (p == suspect || s == suspect) return;  // nothing left to splice
    pred = nodes_[p].get();
    succ = nodes_[s].get();
    heir = s;
  }
  DCY_LOG(kInfo) << "node " << reporter << " detected node " << suspect
                 << " dead; splicing " << pred->id() << " -> " << succ->id();
  // Bypass the corpse: the predecessor's data now flows to the successor
  // and the successor's requests to the predecessor, each on a new epoch.
  pred->Adopt(RingNode::kSuccessor, succ);
  succ->Adopt(RingNode::kPredecessor, pred);
  HandleDeadFragments(suspect, heir);
}

void RingCluster::HandleDeadFragments(core::NodeId suspect, core::NodeId heir) {
  const bool rehome = options_.resilience.auto_rehome;
  std::vector<core::BatId> orphaned;
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    for (auto& [id, owner] : owners_) {
      if (owner != suspect) continue;
      if (rehome) owner = heir;
      orphaned.push_back(id);
    }
  }
  if (orphaned.empty()) return;
  if (!rehome) {
    // Without re-homing the fragments are gone: every node fails its
    // waiting queries with a typed Unavailable instead of letting pins hang.
    for (const core::BatId id : orphaned) {
      for (auto& n : nodes_) {
        if (n->crashed()) continue;
        RingNode* node = n.get();
        node->Post([node, id] { node->dc().FailBat(id); });
      }
    }
    return;
  }
  // The heir loads each inherited fragment from the write log, like any
  // owner.
  RingNode* heir_node = nodes_[heir].get();
  for (const core::BatId id : orphaned) {
    const uint64_t bytes = BaseBytes(id);
    heir_node->Post([heir_node, id, bytes] { heir_node->dc().AddOwnedBat(id, bytes); });
  }
  std::lock_guard<std::mutex> lock(ring_mu_);
  recovery_.rehomed_fragments += orphaned.size();
  DCY_LOG(kInfo) << orphaned.size() << " fragment(s) of dead node " << suspect
                 << " re-homed to node " << heir;
}

uint64_t RingCluster::BaseBytes(core::BatId bat) const {
  const auto record = write_log_.Fragment(bat);
  return record.ok() ? record->base->ByteSize() : 0;
}

Status RingCluster::FragmentFailureStatus(core::BatId bat) {
  const core::NodeId owner = OwnerOf(bat);
  if (owner != core::kInvalidNode && !IsNodeAlive(owner)) {
    unavailable_failures_.fetch_add(1, std::memory_order_relaxed);
    const auto record = write_log_.Fragment(bat);
    const std::string name = record.ok() ? record->name : "?";
    return Status::Unavailable("fragment \"" + name + "\" (BAT " + std::to_string(bat) +
                               ") is on crashed node " + std::to_string(owner));
  }
  return Status::NotFound("BAT " + std::to_string(bat) + " does not exist");
}

Status RingCluster::RestartNode(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");
  RingNode* comer = nodes_[node].get();
  if (!comer->crashed()) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is not crashed");
  }
  RingNode* pred = nullptr;
  RingNode* succ = nullptr;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    spliced_in_[node] = true;
    ++recovery_.nodes_restarted;
    pred = nodes_[AliveNeighbourLocked(node, false)].get();
    succ = nodes_[AliveNeighbourLocked(node, true)].get();
  }
  comer->Restart(succ, pred);
  // Re-introduce the node's surviving fragments (those not re-homed while
  // it was down) to its fresh protocol state; it loads them from the write
  // log, which the crash did not touch.
  std::vector<std::pair<core::BatId, uint64_t>> owned;
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    for (const auto& [id, owner] : owners_) {
      if (owner == node) owned.emplace_back(id, 0);
    }
  }
  for (auto& [id, size] : owned) size = BaseBytes(id);
  comer->PostSync([&] {
    for (const auto& [id, size] : owned) comer->dc().AddOwnedBat(id, size);
  });
  // Close the ring around the newcomer (fresh epochs towards it).
  if (pred != comer) pred->Adopt(RingNode::kSuccessor, comer);
  if (succ != comer) succ->Adopt(RingNode::kPredecessor, comer);
  // Publish liveness last. Until the newcomer owns its fragments again and
  // both neighbours have run their adoption tasks (the empty PostSyncs wait
  // for them), a request that finds no owner must fail its pins with a
  // retryable Unavailable (FragmentFailureStatus), not with NotFound.
  pred->PostSync([] {});
  succ->PostSync([] {});
  alive_[node].store(true, std::memory_order_release);
  dead_count_.fetch_sub(1, std::memory_order_relaxed);
  DCY_LOG(kInfo) << "node " << node << " restarted and re-spliced between "
                 << pred->id() << " and " << succ->id();
  return Status::OK();
}

RingCluster::ResilienceMetrics RingCluster::Resilience() const {
  ResilienceMetrics out;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    out = recovery_;
  }
  for (const auto& node : nodes_) {
    RingNode* n = node.get();
    n->PostSync([n, &out] { n->SnapshotResilience(&out); });
    out.shed_degraded += n->admission_metrics().shed_degraded;
  }
  out.unavailable_failures = unavailable_failures_.load(std::memory_order_relaxed);
  return out;
}

void RingCluster::BandwidthMetrics::Add(const BandwidthMetrics& other) {
  frames_encoded += other.frames_encoded;
  raw_bytes += other.raw_bytes;
  wire_bytes += other.wire_bytes;
  hops += other.hops;
  hop_bytes += other.hop_bytes;
  dict_columns += other.dict_columns;
  for_columns += other.for_columns;
  plain_columns += other.plain_columns;
  memo_bytes += other.memo_bytes;
}

RingCluster::BandwidthMetrics RingCluster::Bandwidth() const {
  BandwidthMetrics out;
  for (const auto& node : nodes_) {
    RingNode* n = node.get();
    n->PostSync([n, &out] { out.Add(n->wire()); });
  }
  return out;
}

storage::MemoryMetrics RingCluster::NodeMemory(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  return nodes_[node]->memory();
}

storage::MemoryMetrics RingCluster::Memory() const {
  storage::MemoryMetrics total;
  for (const auto& node : nodes_) total.Add(node->memory());
  return total;
}

// ---- session API ----------------------------------------------------------

Result<Session> RingCluster::OpenSession(core::NodeId node) {
  if (node >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  return Session(this, node);
}

Result<PreparedQueryPtr> RingCluster::Prepare(const std::string& text,
                                              const PrepareOptions& options) {
  Language language = options.language;
  if (language == Language::kAuto) {
    language = sql::LooksLikeSql(text) ? Language::kSQL : Language::kMAL;
  }
  // The dialect is part of the key: the same text prepared as SQL and as MAL
  // compiles to different programs, so the two must occupy distinct slots.
  const char* dialect = language == Language::kSQL ? "sql" : "mal";
  const std::string key = opt::PlanCacheKey(text, dialect);
  bool use_cache = options.use_cache;
  if (use_cache) {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      // The 64-bit key is not trusted alone: a hit must carry the same
      // source text, or a hash collision would silently run the wrong plan.
      if (it->second->text() == text) {
        ++plan_cache_stats_.hits;
        return it->second;
      }
      use_cache = false;  // collision: compile fresh, leave the entry alone
    }
  }
  Result<mal::Program> compiled =
      language == Language::kSQL
          ? sql::Compile(text, SqlSchema(), options.parse_error)
          : mal::ParseProgram(text, options.parse_error);
  if (!compiled.ok()) return compiled.status();
  DCY_ASSIGN_OR_RETURN(mal::Program program, opt::DcOptimize(*compiled));
  auto prepared = std::make_shared<const PreparedQuery>(text, key, std::move(program));
  if (use_cache) {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    ++plan_cache_stats_.misses;  // one parse + DcOptimize actually ran
    auto [it, inserted] = plan_cache_.emplace(key, prepared);
    if (inserted) {
      plan_cache_order_.push_back(key);
      // Bounded cache: ad-hoc texts (literals inlined instead of params)
      // must not grow the cache without limit; evict oldest-inserted first.
      while (plan_cache_.size() > std::max<size_t>(1, options_.plan_cache_capacity)) {
        plan_cache_.erase(plan_cache_order_.front());
        plan_cache_order_.pop_front();
      }
    }
    plan_cache_stats_.entries = plan_cache_.size();
    if (!inserted) return it->second;  // lost a prepare race; share the first
  }
  return prepared;
}

Result<QueryHandle> RingCluster::Submit(core::NodeId node_id,
                                        const PreparedQueryPtr& prepared,
                                        const SubmitOptions& options) {
  if (node_id >= options_.num_nodes) return Status::InvalidArgument("bad node id");
  if (prepared == nullptr) return Status::InvalidArgument("null prepared query");
  if (!started_.load()) return Status::FailedPrecondition("cluster not started");

  auto state = std::make_shared<internal::QueryState>();
  state->id = next_query_.fetch_add(1);
  state->submitted_at = std::chrono::steady_clock::now();
  if (options.timeout.count() > 0) {
    state->cancel.set_deadline(state->submitted_at + options.timeout);
  }
  RingNode* node = nodes_[node_id].get();
  state->wake_pins = [node, id = state->id] { node->AbortQueryWaiters(id); };
  DCY_RETURN_NOT_OK(node->Submit({state, prepared, options}));
  return QueryHandle(state);
}

core::DcNodeMetrics RingCluster::NodeMetrics(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  core::DcNodeMetrics snapshot;
  nodes_[node]->PostSync([&] { snapshot = nodes_[node]->dc().metrics(); });
  return snapshot;
}

AdmissionMetrics RingCluster::NodeAdmissionMetrics(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  return nodes_[node]->admission_metrics();
}

size_t RingCluster::OutstandingRequestEntries(core::NodeId node) const {
  DCY_CHECK(node < nodes_.size());
  size_t count = 0;
  nodes_[node]->PostSync([&] { count = nodes_[node]->dc().requests().size(); });
  return count;
}

RingCluster::PlanCacheStats RingCluster::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  return plan_cache_stats_;
}

uint64_t RingCluster::TotalDataBytesMoved() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->data_bytes_in();
  }
  return total;
}

}  // namespace dcy::runtime
