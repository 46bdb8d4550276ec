// Unit tests of the fault-tolerance building blocks (ISSUE-7):
//   - rdma::FaultInjector: deterministic seeded schedules, rule windows,
//     firing budgets, link matching.
//   - rdma::Channel under injected faults: drop, duplicate, delay, corrupt.
//   - net::ReliableSender / ReliableReceiver: sequencing, cumulative ACK,
//     NACK-triggered go-back-N retransmission, the RFC 6298 head-only
//     retransmission timer (Karn's rule, backoff), epoch resets.
//   - bat decode fuzz: every single-byte flip and every truncation of a
//     serialized BAT frame must surface Status::Corruption — never crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/column.h"
#include "bat/serialize.h"
#include "net/reliable.h"
#include "rdma/channel.h"
#include "rdma/fault.h"

namespace dcy {
namespace {

using rdma::FaultDecision;
using rdma::FaultInjector;
using rdma::FaultLink;

// ---------------------------------------------------------------------------
// FaultInjector: determinism and rule matching.
// ---------------------------------------------------------------------------

std::vector<FaultDecision> Draw(FaultInjector* inj, uint32_t src, uint32_t dst,
                                uint32_t channel, int n) {
  std::vector<FaultDecision> out;
  for (int i = 0; i < n; ++i) out.push_back(inj->Decide(src, dst, channel));
  return out;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector a(42), b(42);
  for (FaultInjector* inj : {&a, &b}) {
    inj->AddRule(FaultInjector::Drop({0, 1, rdma::kFaultChannelData}, 0.3));
    inj->AddRule(FaultInjector::Corrupt({0, 1, rdma::kFaultChannelData}, 0.2));
  }
  const auto da = Draw(&a, 0, 1, rdma::kFaultChannelData, 200);
  const auto db = Draw(&b, 0, 1, rdma::kFaultChannelData, 200);
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(da[i].drop, db[i].drop);
    EXPECT_EQ(da[i].corrupt, db[i].corrupt);
    EXPECT_EQ(da[i].corrupt_seed, db[i].corrupt_seed);
    if (!da[i].clean()) ++fired;
  }
  // A 30% + 20% schedule over 200 frames fires essentially always.
  EXPECT_GT(fired, 20);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(1), b(2);
  a.AddRule(FaultInjector::Drop({0, 1, 0}, 0.5));
  b.AddRule(FaultInjector::Drop({0, 1, 0}, 0.5));
  const auto da = Draw(&a, 0, 1, 0, 256);
  const auto db = Draw(&b, 0, 1, 0, 256);
  int differs = 0;
  for (int i = 0; i < 256; ++i) differs += da[i].drop != db[i].drop;
  EXPECT_GT(differs, 0);
}

TEST(FaultInjectorTest, LinksHaveIndependentStreams) {
  // The same rule on two links must not fire in lockstep: each link draws
  // from its own SplitMix64(seed ^ key) stream.
  FaultInjector inj(7);
  inj.AddRule(FaultInjector::Drop({rdma::kAnyEndpoint, rdma::kAnyEndpoint, 0}, 0.5));
  const auto a = Draw(&inj, 0, 1, 0, 256);
  const auto b = Draw(&inj, 1, 2, 0, 256);
  int differs = 0;
  for (int i = 0; i < 256; ++i) differs += a[i].drop != b[i].drop;
  EXPECT_GT(differs, 0);
}

TEST(FaultInjectorTest, RuleMatchesOnlyItsLink) {
  FaultInjector inj(3);
  inj.AddRule(FaultInjector::Drop({0, 1, rdma::kFaultChannelData}, 1.0));
  EXPECT_TRUE(inj.Decide(0, 1, rdma::kFaultChannelData).drop);
  EXPECT_FALSE(inj.Decide(1, 0, rdma::kFaultChannelData).drop);   // reverse direction
  EXPECT_FALSE(inj.Decide(0, 1, rdma::kFaultChannelCtrl).drop);   // other channel
  EXPECT_FALSE(inj.Decide(0, 2, rdma::kFaultChannelData).drop);   // other dst
}

TEST(FaultInjectorTest, PartitionWindowIsHalfOpen) {
  FaultInjector inj(5);
  inj.AddRule(FaultInjector::Partition({0, 1, 0}, 2, 5));
  std::vector<bool> dropped;
  for (int i = 0; i < 8; ++i) dropped.push_back(inj.Decide(0, 1, 0).drop);
  EXPECT_EQ(dropped, (std::vector<bool>{false, false, true, true, true, false, false,
                                        false}));
  EXPECT_EQ(inj.FramesSeen(0, 1, 0), 8u);
}

TEST(FaultInjectorTest, MaxCountBudgetsTheRule) {
  FaultInjector inj(5);
  auto rule = FaultInjector::Drop({0, 1, 0}, 1.0);
  rule.max_count = 3;
  inj.AddRule(rule);
  int fired = 0;
  for (int i = 0; i < 50; ++i) fired += inj.Decide(0, 1, 0).drop;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.counters().dropped.load(), 3u);
}

TEST(FaultInjectorTest, DropDominatesStackedRules) {
  FaultInjector inj(9);
  inj.AddRule(FaultInjector::Drop({0, 1, 0}, 1.0));
  inj.AddRule(FaultInjector::Duplicate({0, 1, 0}, 1.0));
  const FaultDecision d = inj.Decide(0, 1, 0);
  EXPECT_TRUE(d.drop);
  EXPECT_TRUE(d.duplicate);  // recorded, but the channel drops first
}

TEST(FaultInjectorTest, ClearRulesKeepsStreamPosition) {
  FaultInjector inj(11);
  inj.AddRule(FaultInjector::Drop({0, 1, 0}, 1.0));
  (void)inj.Decide(0, 1, 0);
  inj.ClearRules();
  EXPECT_TRUE(inj.Decide(0, 1, 0).clean());
  EXPECT_EQ(inj.FramesSeen(0, 1, 0), 2u);
}

// ---------------------------------------------------------------------------
// Channel integration: the injector's verdicts change delivery.
// ---------------------------------------------------------------------------

rdma::Channel::Options SmallChannel() {
  rdma::Channel::Options o;
  o.capacity_bytes = 1 << 20;
  return o;
}

TEST(ChannelFaultTest, DroppedFrameVanishesButSendSucceeds) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Drop({0, 1, 0}, 1.0));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, /*dst=*/1, /*channel_class=*/0);
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer("payload"), 0));
  EXPECT_FALSE(ch.TryReceive().has_value());
  EXPECT_EQ(inj.counters().dropped.load(), 1u);
}

TEST(ChannelFaultTest, DuplicateDeliversTwice) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Duplicate({0, 1, 0}, 1.0));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, 1, 0);
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer("payload"), 0));
  auto first = ch.TryReceive();
  auto second = ch.TryReceive();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first->payload, *second->payload);
  EXPECT_FALSE(ch.TryReceive().has_value());
}

TEST(ChannelFaultTest, DelayedFrameArrivesAfterItsDue) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Delay({0, 1, 0}, 1.0, FromMillis(30)));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, 1, 0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer("late"), 0));
  EXPECT_FALSE(ch.TryReceive().has_value());  // still held back
  auto msg = ch.Receive();                    // blocks until the due time
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(*msg->payload, "late");
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 25);
}

TEST(ChannelFaultTest, CorruptFlipsExactlyOnePayloadBit) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Corrupt({0, 1, 0}, 1.0));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, 1, 0);
  const std::string original(256, 'x');
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer(original), 0));
  auto msg = ch.TryReceive();
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->payload->size(), original.size());
  int bit_diffs = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>((*msg->payload)[i] ^ original[i]);
    while (diff != 0) {
      bit_diffs += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bit_diffs, 1);
  // The header stays intact when a payload is present.
  EXPECT_EQ(msg->meta.view(), "hdr");
}

TEST(ChannelFaultTest, CorruptHitsMetaWhenPayloadEmpty) {
  FaultInjector inj(1);
  inj.AddRule(FaultInjector::Corrupt({0, 1, 0}, 1.0));
  rdma::Channel ch(SmallChannel());
  ch.SetFaultInjector(&inj, 1, 0);
  const std::string original = "control-msg-bytes";
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob(original), nullptr, 0));
  auto msg = ch.TryReceive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_NE(msg->meta.view(), original);
  EXPECT_EQ(msg->meta.size(), original.size());
}

TEST(ChannelFaultTest, SenderWithoutInjectorIsUnaffected) {
  rdma::Channel ch(SmallChannel());
  EXPECT_TRUE(ch.Send(7, rdma::MetaBlob("hdr"), rdma::MakeBuffer("clean"), 0));
  auto msg = ch.TryReceive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(*msg->payload, "clean");
}

// ---------------------------------------------------------------------------
// ReliableSender / ReliableReceiver.
// ---------------------------------------------------------------------------

net::ReliableOptions FastLink() {
  net::ReliableOptions o;
  o.initial_backoff = FromMillis(1);
  o.max_backoff = FromMillis(4);
  o.max_attempts = 3;
  o.max_unacked = 8;
  return o;
}

TEST(ReliableSenderTest, HeadersSequenceWithinAnEpoch) {
  net::ReliableSender s;
  s.Init(2, FastLink());
  const auto h0 = s.NextHeader(0xAB);
  const auto h1 = s.NextHeader(0xCD);
  EXPECT_EQ(h0.sender, 2u);
  EXPECT_EQ(h0.seq, 0u);
  EXPECT_EQ(h1.seq, 1u);
  EXPECT_EQ(h0.epoch, h1.epoch);
  EXPECT_EQ(h0.magic, net::kFrameMagic);
}

TEST(ReliableSenderTest, CumulativeAckShrinksTheWindow) {
  net::ReliableSender s;
  s.Init(0, FastLink());
  for (int i = 0; i < 4; ++i) {
    const auto h = s.NextHeader(0);
    s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, /*now=*/0);
  }
  EXPECT_EQ(s.window_size(), 4u);
  s.OnAck(s.epoch(), 2, 0);
  EXPECT_EQ(s.window_size(), 1u);
  s.OnAck(s.epoch(), 3, 0);
  EXPECT_EQ(s.window_size(), 0u);
}

TEST(ReliableSenderTest, StaleEpochAckIsIgnored) {
  net::ReliableSender s;
  s.Init(0, FastLink());
  const auto h = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  s.OnAck(s.epoch() + 1, 0, 0);
  EXPECT_EQ(s.window_size(), 1u);
}

TEST(ReliableSenderTest, NackRetransmitsFromTheExpectedSeq) {
  net::ReliableSender s;
  s.Init(0, FastLink());
  for (int i = 0; i < 3; ++i) {
    const auto h = s.NextHeader(0);
    s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  }
  // Peer expected seq 1: seq 0 implicitly ACKed, 1..2 due immediately.
  s.OnNack(s.epoch(), 1, /*now=*/100);
  const auto* retx = s.CollectRetransmits(100);
  ASSERT_NE(retx, nullptr);
  ASSERT_EQ(retx->size(), 2u);
  EXPECT_EQ((*retx)[0].seq, 1u);
  EXPECT_EQ((*retx)[1].seq, 2u);
  EXPECT_EQ(s.metrics().retransmits, 2u);
}

TEST(ReliableSenderTest, RetransmitWaitsOutTheBackoff) {
  net::ReliableSender s;
  s.Init(0, FastLink());
  const auto h = s.NextHeader(0);
  s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, /*now=*/0);
  // Unacked but the (1ms) timer has not expired yet.
  EXPECT_EQ(s.CollectRetransmits(FromMicros(100)), nullptr);
  EXPECT_NE(s.CollectRetransmits(FromMillis(2)), nullptr);
}

TEST(ReliableSenderTest, ExhaustedAttemptsResetTheLink) {
  net::ReliableSender s;
  s.Init(0, FastLink());  // max_attempts = 3
  const auto h = s.NextHeader(0);
  const uint32_t epoch0 = s.epoch();
  s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  SimTime now = 0;
  int rounds = 0;
  while (s.epoch() == epoch0 && rounds < 10) {
    now += FromMillis(50);
    (void)s.CollectRetransmits(now);
    ++rounds;
  }
  EXPECT_EQ(s.epoch(), epoch0 + 1);
  EXPECT_EQ(s.window_size(), 0u);
  EXPECT_EQ(s.next_seq(), 0u);
  EXPECT_EQ(s.metrics().frames_abandoned, 1u);
  EXPECT_EQ(s.metrics().link_resets, 1u);
}

TEST(ReliableSenderTest, WindowOverflowResetsInsteadOfGrowingForever) {
  net::ReliableSender s;
  s.Init(0, FastLink());  // max_unacked = 8
  for (int i = 0; i < 9; ++i) {
    const auto h = s.NextHeader(0);
    s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, 0);
  }
  EXPECT_EQ(s.metrics().link_resets, 1u);
  EXPECT_LE(s.window_size(), 8u);
}

// Sends one payload-less frame at `at`; returns its seq.
uint64_t SendOne(net::ReliableSender* s, SimTime at) {
  const auto h = s->NextHeader(0);
  s->Track(1, rdma::MetaBlob("m"), nullptr, h.seq, at);
  return h.seq;
}

// FastLink with room above the floor for a measured timeout and for a run of
// consecutive timeouts.
net::ReliableOptions WideLink() {
  net::ReliableOptions o = FastLink();
  o.max_backoff = FromMillis(100);
  o.max_attempts = 10;
  return o;
}

TEST(ReliableSenderTest, TimeoutTracksTheMeasuredRoundTrip) {
  net::ReliableSender s;
  s.Init(0, WideLink());
  EXPECT_EQ(s.rto(), FromMillis(1));  // initial_backoff until the first sample
  SimTime now = 0;
  for (int i = 0; i < 4; ++i) {
    const uint64_t seq = SendOne(&s, now);
    now += FromMillis(10);
    s.OnAck(s.epoch(), seq, now);
  }
  // Four 10 ms samples: SRTT = 10 ms, RTTVAR = 5 ms * (3/4)^3.
  const SimTime rto = FromMillis(10) + 4 * FromMicros(2109.375);
  EXPECT_EQ(s.rto(), rto);
  SendOne(&s, now);
  EXPECT_EQ(s.CollectRetransmits(now + FromMillis(5)), nullptr);
  EXPECT_EQ(s.CollectRetransmits(now + rto - 1), nullptr);
  EXPECT_NE(s.CollectRetransmits(now + rto), nullptr);
}

TEST(ReliableSenderTest, AckCoveringAResentFrameIsNoRoundTripSample) {
  net::ReliableSender s;
  s.Init(0, WideLink());
  uint64_t seq = SendOne(&s, 0);
  s.OnAck(s.epoch(), seq, FromMillis(10));
  ASSERT_EQ(s.rto(), FromMillis(30));  // SRTT 10 ms + 4 * RTTVAR 5 ms
  // The next frame times out and is re-sent; which copy a late ACK answers
  // is ambiguous, so it leaves the estimate alone and the backoff in place.
  seq = SendOne(&s, FromMillis(10));
  ASSERT_NE(s.CollectRetransmits(FromMillis(40)), nullptr);
  s.OnAck(s.epoch(), seq, FromMillis(90));
  EXPECT_EQ(s.rto(), FromMillis(60));
  // A fresh 10 ms sample lands as if the 80 ms ACK had never been seen:
  // SRTT 10 ms, RTTVAR 3.75 ms.
  seq = SendOne(&s, FromMillis(90));
  s.OnAck(s.epoch(), seq, FromMillis(100));
  EXPECT_EQ(s.rto(), FromMillis(25));
}

TEST(ReliableSenderTest, TimeoutResendsTheHeadButNackGoesBackN) {
  net::ReliableSender s;
  s.Init(0, FastLink());
  for (int i = 0; i < 3; ++i) SendOne(&s, 0);
  const auto* retx = s.CollectRetransmits(FromMillis(1));
  ASSERT_NE(retx, nullptr);
  ASSERT_EQ(retx->size(), 1u);
  EXPECT_EQ((*retx)[0].seq, 0u);
  // The peer expected seq 1: go-back-N from there, not just the head.
  s.OnNack(s.epoch(), 1, FromMillis(1));
  retx = s.CollectRetransmits(FromMillis(1));
  ASSERT_NE(retx, nullptr);
  ASSERT_EQ(retx->size(), 2u);
  EXPECT_EQ((*retx)[0].seq, 1u);
  EXPECT_EQ((*retx)[1].seq, 2u);
  EXPECT_EQ(s.metrics().retransmits, 3u);
  // A delayed NACK below the head is stale and re-sends nothing.
  s.OnNack(s.epoch(), 0, FromMillis(1));
  EXPECT_EQ(s.CollectRetransmits(FromMillis(1)), nullptr);
}

TEST(ReliableSenderTest, BackoffDoublesPerTimeoutAndResetsOnAFreshSample) {
  net::ReliableOptions o = WideLink();
  o.max_backoff = FromMillis(8);
  net::ReliableSender s;
  s.Init(0, o);
  SendOne(&s, 0);
  SendOne(&s, 0);
  SimTime due = FromMillis(1);
  for (const double gap_ms : {2, 4, 8, 8}) {  // doubled, then capped
    EXPECT_EQ(s.CollectRetransmits(due - 1), nullptr);
    ASSERT_NE(s.CollectRetransmits(due), nullptr);
    EXPECT_EQ(s.rto(), FromMillis(gap_ms));
    due += FromMillis(gap_ms);
  }
  // ACKing the re-sent head makes progress but gives no sample, so the next
  // head is timed with the backed-off value (Karn's algorithm).
  SimTime now = due - 1;
  s.OnAck(s.epoch(), 0, now);
  EXPECT_EQ(s.rto(), FromMillis(8));
  EXPECT_EQ(s.CollectRetransmits(now + FromMillis(8) - 1), nullptr);
  const auto* retx = s.CollectRetransmits(now + FromMillis(8));
  ASSERT_NE(retx, nullptr);
  ASSERT_EQ(retx->size(), 1u);
  EXPECT_EQ((*retx)[0].seq, 1u);
  now += FromMillis(8);
  s.OnAck(s.epoch(), 1, now);
  // The first frame that was never re-sent resets it: a 2 ms sample gives
  // SRTT 2 ms + 4 * RTTVAR 1 ms.
  const uint64_t seq = SendOne(&s, now);
  s.OnAck(s.epoch(), seq, now + FromMillis(2));
  EXPECT_EQ(s.rto(), FromMillis(6));
}

net::FrameHeader Frame(uint32_t sender, uint32_t epoch, uint64_t seq) {
  net::FrameHeader h;
  h.sender = sender;
  h.epoch = epoch;
  h.seq = seq;
  return h;
}

TEST(ReliableReceiverTest, InOrderFramesDeliver) {
  net::ReliableReceiver r;
  for (uint64_t seq = 0; seq < 3; ++seq) {
    const auto out = r.OnFrame(Frame(1, 0, seq), true);
    EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kDeliver);
    EXPECT_FALSE(out.send_nack);
  }
  uint32_t epoch = 0;
  uint64_t seq = 0;
  ASSERT_TRUE(r.CumulativeAck(1, &epoch, &seq));
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(seq, 2u);
}

TEST(ReliableReceiverTest, GapNacksOnceUntilProgress) {
  net::ReliableReceiver r;
  (void)r.OnFrame(Frame(1, 0, 0), true);
  auto out = r.OnFrame(Frame(1, 0, 5), true);  // 1..4 missing
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kGap);
  EXPECT_TRUE(out.send_nack);
  EXPECT_EQ(out.nack_seq, 1u);
  // The same gap again: dropped, no second NACK (dedupe).
  out = r.OnFrame(Frame(1, 0, 6), true);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kGap);
  EXPECT_FALSE(out.send_nack);
  // Progress re-arms the NACK.
  EXPECT_EQ(r.OnFrame(Frame(1, 0, 1), true).verdict,
            net::ReliableReceiver::Verdict::kDeliver);
  out = r.OnFrame(Frame(1, 0, 7), true);
  EXPECT_TRUE(out.send_nack);
  EXPECT_EQ(out.nack_seq, 2u);
}

TEST(ReliableReceiverTest, DuplicateAndStaleAndInvalidDropSilently) {
  net::ReliableReceiver r;
  (void)r.OnFrame(Frame(1, 1, 0), true);  // adopts epoch 1
  EXPECT_EQ(r.OnFrame(Frame(1, 1, 0), true).verdict,
            net::ReliableReceiver::Verdict::kDuplicate);
  EXPECT_EQ(r.OnFrame(Frame(1, 0, 3), true).verdict,
            net::ReliableReceiver::Verdict::kStale);
  net::FrameHeader bad = Frame(1, 1, 1);
  bad.magic = 0xBAD;
  EXPECT_EQ(r.OnFrame(bad, true).verdict, net::ReliableReceiver::Verdict::kInvalid);
  EXPECT_EQ(r.metrics().frames_duplicate, 1u);
  EXPECT_EQ(r.metrics().frames_stale, 1u);
  EXPECT_EQ(r.metrics().frames_invalid, 1u);
}

TEST(ReliableReceiverTest, CorruptFrameNacksItsOwnSeq) {
  net::ReliableReceiver r;
  const auto out = r.OnFrame(Frame(1, 0, 0), /*crc_ok=*/false);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kCorrupt);
  EXPECT_TRUE(out.send_nack);
  EXPECT_EQ(out.nack_seq, 0u);
  EXPECT_EQ(r.metrics().frames_corrupted, 1u);
  // The retransmission then delivers.
  EXPECT_EQ(r.OnFrame(Frame(1, 0, 0), true).verdict,
            net::ReliableReceiver::Verdict::kDeliver);
}

TEST(ReliableReceiverTest, HigherEpochAdoptsFresh) {
  net::ReliableReceiver r;
  (void)r.OnFrame(Frame(1, 0, 0), true);
  (void)r.OnFrame(Frame(1, 0, 1), true);
  // The sender reset: epoch 1 restarts at seq 0 and must deliver.
  const auto out = r.OnFrame(Frame(1, 1, 0), true);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kDeliver);
  uint32_t epoch = 0;
  uint64_t seq = 0;
  ASSERT_TRUE(r.CumulativeAck(1, &epoch, &seq));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(seq, 0u);
}

TEST(ReliableReceiverTest, CorruptFrameCannotSteerTheEpoch) {
  // A flipped bit in the epoch field must not be adopted as a sender reset:
  // nothing in a corrupt frame is trustworthy, and adopting a huge bogus
  // epoch would make every genuine frame "stale" — a permanent link wedge.
  net::ReliableReceiver r;
  (void)r.OnFrame(Frame(1, 0, 0), true);
  const auto out = r.OnFrame(Frame(1, 0x40000000u, 1), /*crc_ok=*/false);
  EXPECT_EQ(out.verdict, net::ReliableReceiver::Verdict::kCorrupt);
  // The genuine epoch-0 stream still delivers.
  EXPECT_EQ(r.OnFrame(Frame(1, 0, 1), true).verdict,
            net::ReliableReceiver::Verdict::kDeliver);
  uint32_t epoch = 99;
  uint64_t seq = 0;
  ASSERT_TRUE(r.CumulativeAck(1, &epoch, &seq));
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(seq, 1u);
}

TEST(ReliableEnvelopeTest, AnyEnvelopeBitFlipFailsVerification) {
  // NextHeader folds EnvelopeCrc(sender, epoch, seq) into payload_crc; the
  // receiver XORs it back out over the *received* fields. Flip any bit of
  // any identity field and verification must fail.
  net::ReliableSender s;
  s.Init(1, FastLink());
  const uint32_t content_crc = 0xFEEDFACE;
  const net::FrameHeader h = s.NextHeader(content_crc);
  ASSERT_EQ(h.payload_crc ^ net::EnvelopeCrc(h), content_crc);
  const auto verify = [&](const net::FrameHeader& got) {
    return (got.payload_crc ^ net::EnvelopeCrc(got)) == content_crc;
  };
  for (int bit = 0; bit < 32; ++bit) {
    net::FrameHeader flipped = h;
    flipped.sender ^= 1u << bit;
    EXPECT_FALSE(verify(flipped)) << "sender bit " << bit;
    flipped = h;
    flipped.epoch ^= 1u << bit;
    EXPECT_FALSE(verify(flipped)) << "epoch bit " << bit;
  }
  for (int bit = 0; bit < 64; ++bit) {
    net::FrameHeader flipped = h;
    flipped.seq ^= 1ull << bit;
    EXPECT_FALSE(verify(flipped)) << "seq bit " << bit;
  }
}

TEST(ReliableEnvelopeTest, AnyCtrlBitFlipFailsItsChecksum) {
  net::CtrlMsg c;
  c.sender = 2;
  c.channel = rdma::kFaultChannelData;
  c.kind = static_cast<uint32_t>(net::CtrlKind::kAck);
  c.epoch = 3;
  c.seq = 41;
  c.crc = net::CtrlCrc(c);
  EXPECT_EQ(c.crc, net::CtrlCrc(c));
  const auto check = [](net::CtrlMsg m) { return m.crc == net::CtrlCrc(m); };
  for (int bit = 0; bit < 32; ++bit) {
    net::CtrlMsg f = c;
    f.sender ^= 1u << bit;
    EXPECT_FALSE(check(f)) << "sender bit " << bit;
    f = c;
    f.channel ^= 1u << bit;
    EXPECT_FALSE(check(f)) << "channel bit " << bit;
    f = c;
    f.kind ^= 1u << bit;
    EXPECT_FALSE(check(f)) << "kind bit " << bit;
    f = c;
    f.epoch ^= 1u << bit;
    EXPECT_FALSE(check(f)) << "epoch bit " << bit;
  }
  for (int bit = 0; bit < 64; ++bit) {
    net::CtrlMsg f = c;
    f.seq ^= 1ull << bit;
    EXPECT_FALSE(check(f)) << "seq bit " << bit;
  }
}

TEST(ReliableLoopTest, LossyLinkConvergesViaNackAndRetransmit) {
  // Sender -> receiver over an imaginary wire that loses every third frame;
  // the NACK/retransmit loop must still deliver 0..N-1 in order.
  net::ReliableSender s;
  s.Init(0, FastLink());
  net::ReliableReceiver r;
  std::vector<uint64_t> delivered;
  SimTime now = 0;
  int sent = 0;
  for (uint64_t i = 0; i < 6; ++i) {
    const auto h = s.NextHeader(0);
    s.Track(1, rdma::MetaBlob("m"), nullptr, h.seq, now);
    if (++sent % 3 == 0) continue;  // lost on the wire
    const auto out = r.OnFrame(h, true);
    if (out.verdict == net::ReliableReceiver::Verdict::kDeliver) {
      delivered.push_back(h.seq);
    }
    if (out.send_nack) s.OnNack(out.nack_epoch, out.nack_seq, now);
  }
  for (int round = 0; round < 20 && delivered.size() < 6; ++round) {
    now += FromMillis(5);
    const auto* retx = s.CollectRetransmits(now);
    if (retx == nullptr) continue;
    uint64_t acked = 0;
    bool have_ack = false;
    for (const auto& st : *retx) {
      const auto out = r.OnFrame(Frame(0, s.epoch(), st.seq), true);
      if (out.verdict == net::ReliableReceiver::Verdict::kDeliver) {
        delivered.push_back(st.seq);
        acked = st.seq;
        have_ack = true;
      }
    }
    if (have_ack) s.OnAck(s.epoch(), acked, now);
  }
  EXPECT_EQ(delivered, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.window_size(), 0u);
}

TEST(ReliableLoopTest, LostLastFrameConvergesOnTheTimer) {
  // The last frame of a burst is lost and nothing follows it, so no gap can
  // draw a NACK: only the retransmission timer recovers it.
  net::ReliableSender s;
  s.Init(0, FastLink());
  net::ReliableReceiver r;
  std::vector<uint64_t> delivered;
  const auto deliver = [&](uint64_t seq) {
    if (r.OnFrame(Frame(0, s.epoch(), seq), true).verdict ==
        net::ReliableReceiver::Verdict::kDeliver) {
      delivered.push_back(seq);
    }
  };
  const auto ack = [&](SimTime now) {
    uint32_t epoch = 0;
    uint64_t seq = 0;
    if (r.CumulativeAck(0, &epoch, &seq)) s.OnAck(epoch, seq, now);
  };
  SimTime now = 0;
  for (int i = 0; i < 3; ++i) {
    const uint64_t seq = SendOne(&s, now);
    if (i < 2) deliver(seq);  // seq 2 is lost on the wire
  }
  now += FromMillis(1);
  ack(now);
  for (int round = 0; round < 20 && delivered.size() < 3; ++round) {
    now += FromMillis(1);
    const auto* retx = s.CollectRetransmits(now);
    if (retx == nullptr) continue;
    for (const auto& st : *retx) deliver(st.seq);
    ack(now);
  }
  EXPECT_EQ(delivered, (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(s.window_size(), 0u);
  EXPECT_EQ(s.metrics().retransmits, 1u);
  EXPECT_EQ(r.metrics().nacks_sent, 0u);
}

// ---------------------------------------------------------------------------
// Decode fuzz: corruption and truncation must fail typed, never crash.
// ---------------------------------------------------------------------------

bat::BatPtr FuzzTargetBat() {
  return bat::Bat::MakeColumn(bat::MakeIntColumn({1, 2, 3, 5, 8, 13, 21, 34}));
}

TEST(DecodeFuzzTest, EveryByteFlipIsCorruption) {
  const std::string frame = bat::Serialize(*FuzzTargetBat());
  for (size_t i = 0; i < frame.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80}) {
      std::string mutated = frame;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      auto decoded = bat::Deserialize(mutated);
      ASSERT_FALSE(decoded.ok()) << "flip at byte " << i << " decoded cleanly";
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << decoded.status().ToString();
    }
  }
}

TEST(DecodeFuzzTest, EveryTruncationIsCorruption) {
  const std::string frame = bat::Serialize(*FuzzTargetBat());
  for (size_t len = 0; len < frame.size(); ++len) {
    auto decoded = bat::Deserialize(std::string_view(frame).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded cleanly";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(DecodeFuzzTest, StringColumnSurvivesTheSameFuzz) {
  const auto b = bat::Bat::MakeColumn(
      bat::MakeStrColumn({"alpha", "beta", "", "a longer string payload"}));
  const std::string frame = bat::Serialize(*b);
  // Byte flips across the whole frame, single-bit, both edges of each byte.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string mutated = frame;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    auto decoded = bat::Deserialize(mutated);
    ASSERT_FALSE(decoded.ok()) << "flip at byte " << i;
  }
  // Round-trip still intact.
  auto decoded = bat::Deserialize(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->size(), 4u);
}

}  // namespace
}  // namespace dcy
