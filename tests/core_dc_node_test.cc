// Protocol unit tests for DcNode against a scripted environment: every
// outcome of Request Propagation (Fig. 3), BAT Propagation (Fig. 4),
// hot-set management (Fig. 5), loadAll(), resend(), and lost-BAT recovery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dc_node.h"

namespace dcy::core {
namespace {

/// Scripted DcEnv recording every action the protocol takes.
class FakeEnv : public DcEnv {
 public:
  SimTime Now() override { return now; }
  void SendRequestMsg(const RequestMsg& msg) override { requests.push_back(msg); }
  void SendBatMsg(const BatHeader& header, bool is_load) override {
    bats.emplace_back(header, is_load);
    queue_load += header.bat_size;  // sending occupies the local BAT queue
  }
  void DeliverToQuery(QueryId query, BatId bat) override {
    deliveries.emplace_back(query, bat);
  }
  void FailQuery(QueryId query, BatId bat) override { failures.emplace_back(query, bat); }
  uint64_t BatQueueLoadBytes() override { return queue_load; }
  uint64_t BatQueueCapacityBytes() override { return queue_capacity; }

  SimTime now = 0;
  uint64_t queue_load = 0;
  uint64_t queue_capacity = 1000;
  std::vector<RequestMsg> requests;
  std::vector<std::pair<BatHeader, bool>> bats;
  std::vector<std::pair<QueryId, BatId>> deliveries;
  std::vector<std::pair<QueryId, BatId>> failures;
};

class DcNodeTest : public ::testing::Test {
 protected:
  DcNodeTest() { Recreate(DcNodeOptions{}); }

  void Recreate(DcNodeOptions opts) {
    opts.node_id = 3;
    opts.ring_size = 10;
    loit_ = std::make_unique<StaticLoit>(loit_value_);
    node_ = std::make_unique<DcNode>(opts, &env_, loit_.get());
  }

  void SetLoit(double v) {
    loit_value_ = v;
    Recreate(DcNodeOptions{});
  }

  BatHeader MakeHeader(BatId bat, NodeId owner, uint64_t size = 100) {
    BatHeader h;
    h.owner = owner;
    h.bat_id = bat;
    h.bat_size = size;
    return h;
  }

  FakeEnv env_;
  double loit_value_ = 0.5;
  std::unique_ptr<StaticLoit> loit_;
  std::unique_ptr<DcNode> node_;
};

// ---- request() / pin() / unpin() (§4.1-§4.2.1) ----------------------------

TEST_F(DcNodeTest, RequestForRemoteBatDispatchesOnce) {
  node_->Request(1, 42);
  ASSERT_EQ(env_.requests.size(), 1u);
  EXPECT_EQ(env_.requests[0].origin, 3u);
  EXPECT_EQ(env_.requests[0].bat_id, 42u);

  node_->Request(2, 42);  // second query joins the same entry
  EXPECT_EQ(env_.requests.size(), 1u);
  EXPECT_EQ(node_->requests().Find(42)->queries.size(), 2u);
}

TEST_F(DcNodeTest, RequestForOwnedBatStaysLocal) {
  node_->AddOwnedBat(7, 100);
  node_->Request(1, 7);
  EXPECT_TRUE(env_.requests.empty());
  EXPECT_FALSE(node_->requests().Contains(7));
  EXPECT_TRUE(node_->Pin(1, 7));  // served from disk/local memory
}

TEST_F(DcNodeTest, PinBlocksUntilBatPasses) {
  node_->Request(1, 42);
  EXPECT_FALSE(node_->Pin(1, 42));
  EXPECT_TRUE(node_->pins().HasBlocked(42));
  EXPECT_EQ(node_->metrics().pins_blocked, 1u);

  env_.now = 500;
  node_->OnBatMsg(MakeHeader(42, /*owner=*/0));
  ASSERT_EQ(env_.deliveries.size(), 1u);
  EXPECT_EQ(env_.deliveries[0], (std::pair<QueryId, BatId>{1, 42}));
  EXPECT_FALSE(node_->pins().HasBlocked(42));
}

TEST_F(DcNodeTest, PinHitsCacheWhileAnotherQueryHoldsIt) {
  node_->Request(1, 42);
  node_->Pin(1, 42);
  node_->OnBatMsg(MakeHeader(42, 0));  // delivers to query 1, caches the BAT

  node_->Request(2, 42);
  EXPECT_TRUE(node_->Pin(2, 42));  // cache hit: no blocking
  EXPECT_EQ(node_->metrics().pins_local_hit, 1u);

  node_->Unpin(1, 42);
  node_->Unpin(2, 42);
  EXPECT_FALSE(node_->cache().Contains(42));  // last unpin frees the region
}

TEST_F(DcNodeTest, PinWithoutRequestIsTolerated) {
  EXPECT_FALSE(node_->Pin(1, 42));
  EXPECT_EQ(env_.requests.size(), 1u);  // implicit request dispatched
  EXPECT_TRUE(node_->pins().HasBlocked(42));
}

TEST_F(DcNodeTest, UnpinOfBlockedQueryCleansState) {
  node_->Request(1, 42);
  node_->Pin(1, 42);
  node_->Unpin(1, 42);  // aborting query
  EXPECT_FALSE(node_->pins().HasBlocked(42));
  // Entry is retired by the next BAT pass or maintenance GC.
  node_->OnMaintenanceTimer();
  EXPECT_FALSE(node_->requests().Contains(42));
}

// ---- Request Propagation (Fig. 3) -----------------------------------------

TEST_F(DcNodeTest, Outcome1_ReturnedToOriginFailsQueries) {
  node_->Request(1, 42);
  node_->Pin(1, 42);
  node_->OnRequestMsg(RequestMsg{3, 42});  // back at origin (we are node 3)
  ASSERT_EQ(env_.failures.size(), 1u);
  EXPECT_EQ(env_.failures[0], (std::pair<QueryId, BatId>{1, 42}));
  EXPECT_FALSE(node_->requests().Contains(42));
  EXPECT_FALSE(node_->pins().HasBlocked(42));
  EXPECT_EQ(node_->metrics().requests_returned_origin, 1u);
}

TEST_F(DcNodeTest, Outcome2_OwnerIgnoresRequestForHotBat) {
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});  // loads it (outcome 4)
  ASSERT_EQ(env_.bats.size(), 1u);
  // Already hot: nothing to load now. The owner only remembers the request
  // for the BAT's next return (OwnerKeepsBatRequestedWhileHotInsteadOfUnloading).
  node_->OnRequestMsg(RequestMsg{6, 7});
  EXPECT_EQ(env_.bats.size(), 1u);
  EXPECT_TRUE(env_.requests.empty());  // not forwarded either
}

TEST_F(DcNodeTest, Outcome3_FullRingTagsPending) {
  node_->AddOwnedBat(7, 100);
  env_.queue_load = 950;  // 950 + 100 > 1000
  env_.now = 123;
  node_->OnRequestMsg(RequestMsg{5, 7});
  EXPECT_TRUE(env_.bats.empty());
  const OwnedBat* ob = node_->owned().Find(7);
  EXPECT_EQ(ob->state, OwnedState::kPending);
  EXPECT_EQ(ob->pending_since, 123);
  EXPECT_EQ(node_->metrics().bats_pending_tagged, 1u);
  // A second request while pending does not retag (pending_since kept).
  env_.now = 456;
  node_->OnRequestMsg(RequestMsg{6, 7});
  EXPECT_EQ(node_->owned().Find(7)->pending_since, 123);
  EXPECT_EQ(node_->metrics().bats_pending_tagged, 1u);
}

TEST_F(DcNodeTest, Outcome4_OwnerLoadsWhenRingHasRoom) {
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});
  ASSERT_EQ(env_.bats.size(), 1u);
  const auto& [header, is_load] = env_.bats[0];
  EXPECT_TRUE(is_load);
  EXPECT_EQ(header.owner, 3u);
  EXPECT_EQ(header.bat_id, 7u);
  EXPECT_EQ(header.bat_size, 100u);
  EXPECT_EQ(header.loi, 0.0);
  EXPECT_EQ(header.cycles, 0u);
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kHot);
  EXPECT_EQ(node_->owned().Find(7)->loads, 1u);
}

TEST_F(DcNodeTest, Outcome5_DuplicateRequestAbsorbed) {
  node_->Request(1, 42);  // we already want BAT 42
  env_.requests.clear();
  node_->OnRequestMsg(RequestMsg{8, 42});  // someone else's request arrives
  EXPECT_TRUE(env_.requests.empty());      // absorbed: not forwarded
  EXPECT_EQ(node_->metrics().requests_absorbed, 1u);
}

TEST_F(DcNodeTest, Outcome5_DisabledByAblationSwitch) {
  DcNodeOptions opts;
  opts.combine_requests = false;
  Recreate(opts);
  node_->Request(1, 42);
  env_.requests.clear();
  node_->OnRequestMsg(RequestMsg{8, 42});
  ASSERT_EQ(env_.requests.size(), 1u);  // forwarded despite local interest
  EXPECT_EQ(env_.requests[0].origin, 8u);
}

TEST_F(DcNodeTest, Outcome6_UnrelatedRequestForwarded) {
  node_->OnRequestMsg(RequestMsg{8, 99});
  ASSERT_EQ(env_.requests.size(), 1u);
  EXPECT_EQ(env_.requests[0].origin, 8u);  // origin preserved
  EXPECT_EQ(env_.requests[0].bat_id, 99u);
  EXPECT_EQ(node_->metrics().request_msgs_forwarded, 1u);
}

// ---- BAT Propagation (Fig. 4) ----------------------------------------------

TEST_F(DcNodeTest, PropagationIncrementsHops) {
  node_->OnBatMsg(MakeHeader(42, 0));
  ASSERT_EQ(env_.bats.size(), 1u);
  EXPECT_EQ(env_.bats[0].first.hops, 1u);
  EXPECT_EQ(env_.bats[0].first.copies, 0u);  // nobody here wanted it
  EXPECT_FALSE(env_.bats[0].second);
}

TEST_F(DcNodeTest, PropagationIncrementsCopiesOnlyWithPinCalls) {
  node_->Request(1, 42);  // interest but no pin yet
  node_->OnBatMsg(MakeHeader(42, 0));
  EXPECT_EQ(env_.bats[0].first.copies, 0u);  // Fig. 4: needs pin calls
  EXPECT_TRUE(env_.deliveries.empty());

  node_->Request(2, 43);
  node_->Pin(2, 43);  // blocked pin
  node_->OnBatMsg(MakeHeader(43, 0));
  EXPECT_EQ(env_.bats[1].first.copies, 1u);
  EXPECT_EQ(env_.deliveries.size(), 1u);
}

TEST_F(DcNodeTest, HeldPinsCountAsCopiesUntilUnpin) {
  // A pin lives in S3 from pin() to unpin() (§4.2.1): while a query holds
  // the BAT, each pass renews the node's interest.
  node_->Request(1, 42);
  node_->Pin(1, 42);
  node_->OnBatMsg(MakeHeader(42, 0));  // delivers; query 1 now holds it
  EXPECT_EQ(env_.bats[0].first.copies, 1u);

  node_->OnBatMsg(MakeHeader(42, 0));  // still held: counts again
  EXPECT_EQ(env_.bats[1].first.copies, 1u);

  node_->Unpin(1, 42);
  node_->OnBatMsg(MakeHeader(42, 0));  // released: no interest anymore
  EXPECT_EQ(env_.bats[2].first.copies, 0u);
}

TEST_F(DcNodeTest, EntryRetiredOnlyWhenAllQueriesPinned) {
  node_->Request(1, 42);
  node_->Request(2, 42);
  node_->Pin(1, 42);  // query 2 has not pinned yet
  node_->OnBatMsg(MakeHeader(42, 0));
  // Query 1 got data; query 2 still outstanding => entry must survive
  // ("A request is only removed if all its queries pinned it", §5.3).
  EXPECT_TRUE(node_->requests().Contains(42));

  EXPECT_TRUE(node_->Pin(2, 42));  // cache hit (query 1 still holds it)
  node_->OnBatMsg(MakeHeader(42, 0));
  EXPECT_FALSE(node_->requests().Contains(42));  // now everyone is served
}

TEST_F(DcNodeTest, MarksRequestSentWhenBatPasses) {
  node_->Request(1, 42);
  node_->requests().Find(42);
  node_->OnBatMsg(MakeHeader(42, 0));
  EXPECT_TRUE(node_->requests().Find(42)->sent);
}

// ---- Hot-set management (Fig. 5) -------------------------------------------

TEST_F(DcNodeTest, OwnerUnloadsBelowThreshold) {
  SetLoit(0.5);
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});  // load
  env_.bats.clear();

  // The BAT returns having interested 2 of 9 nodes: newLOI = 0/1 + 2/9 < 0.5.
  BatHeader h = MakeHeader(7, 3);
  h.copies = 2;
  h.hops = 9;
  h.cycles = 0;
  env_.now = 1000;
  node_->OnBatMsg(h);
  EXPECT_TRUE(env_.bats.empty());  // not forwarded
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kCold);
  EXPECT_EQ(node_->metrics().bats_unloaded, 1u);
}

TEST_F(DcNodeTest, OwnerKeepsBatRequestedWhileHotInsteadOfUnloading) {
  SetLoit(0.5);
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});  // load
  node_->OnRequestMsg(RequestMsg{6, 7});  // arrives while the BAT is hot
  env_.bats.clear();

  // No node used the lap (newLOI 0/9 < 0.5), so node 6 did not get it
  // either; unloading would leave node 6 waiting for its resend. The ring
  // has room, so it keeps circulating with its interest restarted, as a
  // fresh load would.
  BatHeader h = MakeHeader(7, 3);
  h.hops = 9;
  env_.now = 1000;
  node_->OnBatMsg(h);
  ASSERT_EQ(env_.bats.size(), 1u);
  EXPECT_FALSE(env_.bats[0].second);  // forwarded, not reloaded
  EXPECT_DOUBLE_EQ(env_.bats[0].first.loi, 0.0);
  EXPECT_EQ(env_.bats[0].first.cycles, 1u);
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kHot);
  EXPECT_EQ(node_->metrics().bats_unloaded, 0u);

  // The request was served; the next low return unloads as usual.
  h = env_.bats[0].first;
  h.hops = 9;
  env_.bats.clear();
  node_->OnBatMsg(h);
  EXPECT_TRUE(env_.bats.empty());
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kCold);
  EXPECT_EQ(node_->metrics().bats_unloaded, 1u);
}

TEST_F(DcNodeTest, OwnerTagsBatRequestedWhileHotPendingWhenRingIsFull) {
  SetLoit(0.5);
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});  // load
  node_->OnRequestMsg(RequestMsg{6, 7});  // arrives while the BAT is hot
  env_.bats.clear();

  // Same return, but a fresh load would not pass admission: unload it and
  // keep the request as a pending load, as if it arrived after the unload.
  env_.queue_load = 950;
  env_.now = 1000;
  BatHeader h = MakeHeader(7, 3);
  h.hops = 9;
  node_->OnBatMsg(h);
  EXPECT_TRUE(env_.bats.empty());
  const OwnedBat* ob = node_->owned().Find(7);
  EXPECT_EQ(ob->state, OwnedState::kPending);
  EXPECT_EQ(ob->pending_since, 1000);
  EXPECT_EQ(node_->metrics().bats_unloaded, 1u);
  EXPECT_EQ(node_->metrics().bats_pending_tagged, 1u);

  node_->OnLoadAllTimer();  // still full
  EXPECT_TRUE(env_.bats.empty());
  env_.queue_load = 0;
  node_->OnLoadAllTimer();  // room again: loadAll() loads it
  ASSERT_EQ(env_.bats.size(), 1u);
  EXPECT_TRUE(env_.bats[0].second);
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kHot);
  EXPECT_EQ(node_->metrics().pending_loads, 1u);
}

TEST_F(DcNodeTest, OwnerUnloadsBatRequestedWhileHotAfterAUsedLap) {
  SetLoit(0.5);
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});  // load
  node_->OnRequestMsg(RequestMsg{6, 7});  // arrives while the BAT is hot
  env_.bats.clear();

  // Two nodes used the lap (newLOI 2/9 < 0.5), and node 6 may be one of
  // them: its request raced the BAT that served it. The LOIT decides alone.
  BatHeader h = MakeHeader(7, 3);
  h.copies = 2;
  h.hops = 9;
  node_->OnBatMsg(h);
  EXPECT_TRUE(env_.bats.empty());
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kCold);
  EXPECT_EQ(node_->metrics().bats_unloaded, 1u);
  EXPECT_EQ(node_->metrics().bats_pending_tagged, 0u);
}

TEST_F(DcNodeTest, OwnerForwardsAboveThresholdWithResetCounters) {
  SetLoit(0.5);
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});
  env_.bats.clear();

  BatHeader h = MakeHeader(7, 3);
  h.copies = 9;
  h.hops = 9;
  h.cycles = 0;
  node_->OnBatMsg(h);
  ASSERT_EQ(env_.bats.size(), 1u);
  const BatHeader& fwd = env_.bats[0].first;
  EXPECT_DOUBLE_EQ(fwd.loi, 1.0);  // 0/1 + 9/9
  EXPECT_EQ(fwd.copies, 0u);       // reset each cycle
  EXPECT_EQ(fwd.hops, 0u);
  EXPECT_EQ(fwd.cycles, 1u);
  EXPECT_EQ(node_->owned().Find(7)->cycles, 1u);
  EXPECT_EQ(node_->metrics().cycles_completed, 1u);
}

TEST_F(DcNodeTest, AgedUnusedBatEventuallyDropped) {
  SetLoit(0.1);
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});
  env_.bats.clear();

  // Popular first cycle, then unused: LOI decays below 0.1 within a few
  // cycles even at the lowest threshold.
  BatHeader h = MakeHeader(7, 3);
  h.copies = 9;
  h.hops = 9;
  int cycles_survived = 0;
  for (int i = 0; i < 10; ++i) {
    env_.bats.clear();
    node_->OnBatMsg(h);
    if (env_.bats.empty()) break;  // unloaded
    ++cycles_survived;
    h = env_.bats[0].first;
    h.hops = 9;
    h.copies = 0;  // no further interest
  }
  EXPECT_GE(cycles_survived, 1);
  EXPECT_LE(cycles_survived, 5);
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kCold);
}

TEST_F(DcNodeTest, DeletedBatIsSwallowedByOwner) {
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});
  env_.bats.clear();
  node_->RemoveOwnedBat(7);
  node_->OnBatMsg(MakeHeader(7, 3));
  EXPECT_TRUE(env_.bats.empty());  // swallowed, not forwarded
}

// ---- loadAll() (§4.2.3) -----------------------------------------------------

TEST_F(DcNodeTest, LoadAllLoadsOldestFirstAndSkipsNonFitting) {
  node_->AddOwnedBat(1, 400);
  node_->AddOwnedBat(2, 700);
  node_->AddOwnedBat(3, 300);
  env_.queue_load = 1000;  // force pending
  env_.now = 10;
  node_->OnRequestMsg(RequestMsg{5, 2});  // big, oldest
  env_.now = 20;
  node_->OnRequestMsg(RequestMsg{5, 1});
  env_.now = 30;
  node_->OnRequestMsg(RequestMsg{5, 3});

  // Room opens up, but only 800 bytes: BAT 2 (700) fits; then BAT 1 no
  // longer fits behind it; BAT 3 does not fit either.
  env_.queue_load = 200;
  env_.bats.clear();
  node_->OnLoadAllTimer();
  ASSERT_EQ(env_.bats.size(), 1u);
  EXPECT_EQ(env_.bats[0].first.bat_id, 2u);
  EXPECT_EQ(node_->owned().Find(1)->state, OwnedState::kPending);
  EXPECT_EQ(node_->owned().Find(3)->state, OwnedState::kPending);
  EXPECT_EQ(node_->metrics().pending_loads, 1u);
}

TEST_F(DcNodeTest, LoadAllSkipsBigAndLoadsSmall) {
  node_->AddOwnedBat(1, 900);
  node_->AddOwnedBat(2, 100);
  env_.queue_load = 1000;
  env_.now = 10;
  node_->OnRequestMsg(RequestMsg{5, 1});  // oldest: big
  env_.now = 20;
  node_->OnRequestMsg(RequestMsg{5, 2});

  env_.queue_load = 850;  // only 150 free: the small one fits
  env_.bats.clear();
  node_->OnLoadAllTimer();
  ASSERT_EQ(env_.bats.size(), 1u);
  EXPECT_EQ(env_.bats[0].first.bat_id, 2u);  // skipped the non-fitting head
}

TEST_F(DcNodeTest, LoadAllFifoAblationBlocksBehindHead) {
  DcNodeOptions opts;
  opts.pending_fit_check = false;
  Recreate(opts);
  node_->AddOwnedBat(1, 900);
  node_->AddOwnedBat(2, 100);
  env_.queue_load = 1000;
  env_.now = 10;
  node_->OnRequestMsg(RequestMsg{5, 1});
  env_.now = 20;
  node_->OnRequestMsg(RequestMsg{5, 2});

  env_.queue_load = 850;
  env_.bats.clear();
  node_->OnLoadAllTimer();
  EXPECT_TRUE(env_.bats.empty());  // strict FIFO: head does not fit, stop
}

// ---- resend() and lost-BAT recovery (§4.2.3) --------------------------------

TEST_F(DcNodeTest, ResendAfterTimeout) {
  node_->Request(1, 42);
  node_->Pin(1, 42);
  EXPECT_EQ(env_.requests.size(), 1u);

  env_.now = FromMillis(100);
  node_->OnMaintenanceTimer();  // too early
  EXPECT_EQ(env_.requests.size(), 1u);

  env_.now = FromSeconds(10);
  node_->OnMaintenanceTimer();
  EXPECT_EQ(env_.requests.size(), 2u);  // re-sent
  EXPECT_EQ(node_->metrics().resends, 1u);
}

TEST_F(DcNodeTest, ResendSkipsRecentlySeenOrDispatchedEntries) {
  node_->Request(1, 42);  // dispatched at t=0
  env_.now = FromMillis(100);
  node_->OnBatMsg(MakeHeader(42, 0));  // passes (query 1 not pinned yet)
  ASSERT_TRUE(node_->requests().Contains(42));

  // Seen 100 ms ago, dispatched 1 s ago: not overdue.
  env_.now = FromSeconds(1);
  node_->OnMaintenanceTimer();
  EXPECT_EQ(env_.requests.size(), 1u);

  // Much later the entry is still unserved (the owner may have unloaded the
  // BAT): the resend must fire even though no pin is blocked, otherwise a
  // stale absorbing entry could starve downstream requesters.
  env_.now = FromSeconds(10);
  node_->OnMaintenanceTimer();
  EXPECT_EQ(env_.requests.size(), 2u);
}

TEST_F(DcNodeTest, StaleAbsorbingEntryRedispatchesOwnRequest) {
  node_->Request(1, 42);
  ASSERT_EQ(env_.requests.size(), 1u);
  node_->OnBatMsg(MakeHeader(42, 0));  // our request was served; not in flight

  // A foreign request arrives; our entry absorbs it, but because our own
  // request is no longer live we must re-signal the owner ourselves.
  node_->OnRequestMsg(RequestMsg{8, 42});
  ASSERT_EQ(env_.requests.size(), 2u);
  EXPECT_EQ(env_.requests[1].origin, 3u);  // our own request, not a forward
  EXPECT_EQ(node_->metrics().requests_absorbed, 1u);

  // While it is in flight, further duplicates are absorbed silently.
  node_->OnRequestMsg(RequestMsg{9, 42});
  EXPECT_EQ(env_.requests.size(), 2u);
  EXPECT_EQ(node_->metrics().requests_absorbed, 2u);
}

TEST_F(DcNodeTest, BlockedPinOnStaleEntryRequestsImmediately) {
  node_->Request(1, 42);
  node_->Request(2, 42);
  node_->Pin(1, 42);
  env_.now = FromMillis(100);
  node_->OnBatMsg(MakeHeader(42, 0));  // serves query 1; entry stays for 2
  node_->Unpin(1, 42);                 // cache emptied
  ASSERT_TRUE(node_->requests().Contains(42));
  ASSERT_EQ(env_.requests.size(), 1u);

  // Query 2 pins long after the last sighting: the BAT is probably gone
  // from the ring; pin() re-requests without waiting for the resend timer.
  env_.now = FromSeconds(30);
  EXPECT_FALSE(node_->Pin(2, 42));
  EXPECT_EQ(env_.requests.size(), 2u);
}

TEST_F(DcNodeTest, BlockedPinAfterRecentPassResignalsOnFirstOverdueTick) {
  // No cycle observed yet: the rotation estimate is the 500 ms default, so
  // the BAT is overdue 750 ms after it last passed.
  node_->Request(1, 42);
  ASSERT_EQ(env_.requests.size(), 1u);
  env_.now = FromMillis(100);
  node_->OnBatMsg(MakeHeader(42, 0));  // passes before query 1 pins it

  // The pin comes soon after the pass: the BAT may still come round, so
  // nothing is sent yet, and a tick within 1.5 rotations stays quiet.
  env_.now = FromMillis(200);
  EXPECT_FALSE(node_->Pin(1, 42));
  env_.now = FromMillis(850);
  node_->OnMaintenanceTimer();
  EXPECT_EQ(env_.requests.size(), 1u);

  // The first tick past 1.5 rotations re-requests it, as a first dispatch,
  // not a resend.
  env_.now = FromMillis(851);
  node_->OnMaintenanceTimer();
  ASSERT_EQ(env_.requests.size(), 2u);
  EXPECT_EQ(env_.requests[1].origin, 3u);
  EXPECT_EQ(env_.requests[1].bat_id, 42u);
  EXPECT_EQ(node_->metrics().resends, 0u);

  // While that request is in flight, later ticks send nothing more (the
  // resend timeout, 3 rotations, is left to loss recovery).
  for (SimTime t = FromMillis(900); t < FromMillis(2300); t += FromMillis(100)) {
    env_.now = t;
    node_->OnMaintenanceTimer();
  }
  EXPECT_EQ(env_.requests.size(), 2u);
  EXPECT_EQ(node_->metrics().resends, 0u);
  EXPECT_EQ(node_->metrics().resend_rescues, 0u);
}

TEST_F(DcNodeTest, ResendOfBlockedPinCountsAsRescue) {
  node_->Request(1, 42);
  node_->Request(2, 43);
  node_->Pin(1, 42);  // blocked
  env_.now = FromSeconds(10);
  node_->OnMaintenanceTimer();  // both requests overdue: both re-sent
  EXPECT_EQ(node_->metrics().resends, 2u);
  EXPECT_EQ(node_->metrics().resend_rescues, 1u);  // only 42 had a waiter
}

TEST_F(DcNodeTest, ResendDisabledByOption) {
  DcNodeOptions opts;
  opts.enable_resend = false;
  Recreate(opts);
  node_->Request(1, 42);
  node_->Pin(1, 42);
  env_.now = FromSeconds(60);
  node_->OnMaintenanceTimer();
  EXPECT_EQ(env_.requests.size(), 1u);
}

TEST_F(DcNodeTest, OwnerPresumesHotBatLostAfterTimeout) {
  node_->AddOwnedBat(7, 100);
  node_->OnRequestMsg(RequestMsg{5, 7});
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kHot);

  env_.now = FromSeconds(60);
  node_->OnMaintenanceTimer();
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kCold);
  EXPECT_EQ(node_->metrics().bats_presumed_lost, 1u);

  // If it shows up after all, the owner re-adopts it; hot-set management
  // then keeps it because it still carries interest.
  BatHeader back = MakeHeader(7, 3);
  back.copies = 9;
  back.hops = 9;
  node_->OnBatMsg(back);
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kHot);

  // A re-adopted BAT returning with no interest is immediately cooled down.
  env_.now = FromSeconds(120);
  node_->OnMaintenanceTimer();
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kCold);
  BatHeader stale = MakeHeader(7, 3);
  stale.cycles = 1;
  node_->OnBatMsg(stale);  // copies 0 / hops 0 -> LOI below threshold
  EXPECT_EQ(node_->owned().Find(7)->state, OwnedState::kCold);
}

TEST_F(DcNodeTest, MaintenanceGarbageCollectsServedEntries) {
  node_->Request(1, 42);
  node_->Pin(1, 42);
  node_->OnBatMsg(MakeHeader(42, 0));
  // Entry retired during the pass itself (all queries pinned).
  EXPECT_FALSE(node_->requests().Contains(42));

  // Entry whose only query got data via cache is GC'ed by maintenance.
  node_->Request(2, 42);
  node_->Pin(2, 42);  // cache hit: delivered without a pass
  EXPECT_TRUE(node_->requests().Contains(42));
  node_->OnMaintenanceTimer();
  EXPECT_FALSE(node_->requests().Contains(42));
}

// ---- LOIT adaptation --------------------------------------------------------

TEST(DcNodeAdaptTest, FeedsQueueFractionToPolicy) {
  FakeEnv env;
  env.queue_capacity = 1000;
  AdaptiveLoit loit(AdaptiveLoit::Options{});
  DcNodeOptions opts;
  opts.node_id = 0;
  opts.ring_size = 4;
  DcNode node(opts, &env, &loit);

  env.queue_load = 900;  // 90% > 80% watermark
  node.OnAdaptTimer();
  EXPECT_DOUBLE_EQ(node.loit(), 0.6);
  node.OnAdaptTimer();
  EXPECT_DOUBLE_EQ(node.loit(), 1.1);
  env.queue_load = 100;  // 10% < 40% watermark
  node.OnAdaptTimer();
  node.OnAdaptTimer();
  EXPECT_DOUBLE_EQ(node.loit(), 0.1);
}

}  // namespace
}  // namespace dcy::core
