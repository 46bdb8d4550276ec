// Tests for the RDMA-emulating channel: ordering, blocking, close
// semantics, and the per-mode copy cost model behind Figure 1.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "rdma/channel.h"

namespace dcy::rdma {
namespace {

Channel::Options Opts(TransferMode mode) {
  Channel::Options o;
  o.mode = mode;
  o.capacity_bytes = 1 << 20;
  o.segment_bytes = 1024;
  return o;
}

TEST(ChannelTest, InOrderDelivery) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  for (int i = 0; i < 10; ++i) {
    ch.Send(static_cast<uint32_t>(i), MakeBuffer(std::to_string(i)));
  }
  for (int i = 0; i < 10; ++i) {
    auto m = ch.TryReceive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->opcode, static_cast<uint32_t>(i));
    EXPECT_EQ(*m->payload, std::to_string(i));
  }
  EXPECT_FALSE(ch.TryReceive().has_value());
}

TEST(ChannelTest, MetaTravelsWithPayload) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  ch.Send(7, MetaBlob("header-bytes"), MakeBuffer("bulk"));
  auto m = ch.Receive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->meta, "header-bytes");
  EXPECT_EQ(*m->payload, "bulk");
}

TEST(ChannelTest, ZeroCopySharesTheBuffer) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  Buffer original = MakeBuffer(std::string(4096, 'x'));
  ch.Send(1, original);
  auto m = ch.TryReceive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload.get(), original.get());  // same registered region
  EXPECT_EQ(ch.stats().bytes_copied.load(), 0u);
}

TEST(ChannelTest, NicOffloadCopiesOnce) {
  Channel ch(Opts(TransferMode::kNicOffload));
  Buffer original = MakeBuffer(std::string(4096, 'x'));
  ch.Send(1, original);
  auto m = ch.TryReceive();
  ASSERT_TRUE(m.has_value());
  EXPECT_NE(m->payload.get(), original.get());
  EXPECT_EQ(*m->payload, *original);
  EXPECT_EQ(ch.stats().bytes_copied.load(), 4096u);
}

TEST(ChannelTest, LegacyCopiesTwiceAndYields) {
  Channel ch(Opts(TransferMode::kLegacy));
  Buffer original = MakeBuffer(std::string(4096, 'x'));
  ch.Send(1, original);
  auto m = ch.TryReceive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->payload, *original);
  EXPECT_EQ(ch.stats().bytes_copied.load(), 2u * 4096u);
  EXPECT_EQ(ch.stats().yields.load(), 4u);  // 4096 / 1024 segments
}

TEST(ChannelTest, QueuedBytesTrackOccupancy) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  ch.Send(1, MakeBuffer(std::string(100, 'a')));
  ch.Send(1, MakeBuffer(std::string(50, 'b')));
  EXPECT_EQ(ch.queued_bytes(), 150u);
  ch.TryReceive();
  EXPECT_EQ(ch.queued_bytes(), 50u);
}

TEST(ChannelTest, ReceiveBlocksUntilSend) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Send(42, MakeBuffer("late"));
  });
  auto m = ch.Receive();  // blocks
  producer.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->opcode, 42u);
}

TEST(ChannelTest, CloseWakesReceivers) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Close();
  });
  auto m = ch.Receive();
  closer.join();
  EXPECT_FALSE(m.has_value());
  EXPECT_FALSE(ch.Send(1, MakeBuffer("after close")));
}

TEST(ChannelTest, BackpressureBlocksSender) {
  auto opts = Opts(TransferMode::kZeroCopy);
  opts.capacity_bytes = 100;
  Channel ch(opts);
  ch.Send(1, MakeBuffer(std::string(100, 'x')));  // fills the channel
  std::atomic<bool> second_sent{false};
  std::thread sender([&] {
    ch.Send(2, MakeBuffer(std::string(100, 'y')));  // must wait
    second_sent.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_sent.load());
  ch.TryReceive();  // frees capacity
  sender.join();
  EXPECT_TRUE(second_sent.load());
}

TEST(BufferPoolTest, ReusesFramesAndClearsThem) {
  BufferPool pool(4);
  auto f1 = pool.Acquire(64);
  std::string* raw = f1.get();
  f1->assign("hello");
  f1.reset();  // parks the frame in the freelist
  EXPECT_EQ(pool.idle_frames(), 1u);
  auto f2 = pool.Acquire();
  EXPECT_EQ(f2.get(), raw);  // same storage handed back out
  EXPECT_TRUE(f2->empty());  // cleared on acquire
  EXPECT_EQ(pool.allocations(), 1u);
}

TEST(BufferPoolTest, FreelistIsBounded) {
  BufferPool pool(1);
  auto a = pool.Acquire();
  auto b = pool.Acquire();
  EXPECT_EQ(pool.allocations(), 2u);
  a.reset();
  b.reset();
  EXPECT_EQ(pool.idle_frames(), 1u);  // surplus frame freed, not parked
}

TEST(BufferPoolTest, OversizedFramesAreNotParked) {
  BufferPool pool(4, /*max_frame_bytes=*/1024);
  auto f = pool.Acquire();
  f->assign(std::string(4096, 'x'));  // balloons past the byte bound
  f.reset();
  EXPECT_EQ(pool.idle_frames(), 0u);  // freed, not pinned in the freelist
}

TEST(BufferPoolTest, FramesOutliveThePool) {
  Buffer in_flight;
  {
    BufferPool pool(2);
    auto f = pool.Acquire();
    f->assign("still alive");
    in_flight = std::move(f);
  }
  EXPECT_EQ(*in_flight, "still alive");  // deleter frees, no dangling pool
}

TEST(MetaBlobTest, RoundTripsHeaderStructs) {
  struct Header {
    uint32_t owner;
    uint64_t size;
    double loi;
  };
  const Header h{3, 1 << 20, 0.75};
  MetaBlob blob = MetaBlob::Of(h);
  EXPECT_EQ(blob.size(), sizeof(Header));
  const auto back = blob.As<Header>();
  EXPECT_EQ(back.owner, h.owner);
  EXPECT_EQ(back.size, h.size);
  EXPECT_EQ(back.loi, h.loi);
  EXPECT_EQ(MetaBlob(std::string_view("abc")).view(), "abc");
  EXPECT_TRUE(MetaBlob().empty());
}

TEST(ChannelTest, CopyModesReusePooledReceiveFrames) {
  Channel ch(Opts(TransferMode::kNicOffload));
  for (int i = 0; i < 5; ++i) {
    ch.Send(1, MakeBuffer(std::string(2048, 'x')));
    // The temporary releases the receive frame back to the channel pool.
    ASSERT_TRUE(ch.TryReceive().has_value());
  }
  // Steady state: one receive frame cycles through the pool.
  EXPECT_EQ(ch.pool().allocations(), 1u);
}

TEST(ChannelTest, TryReceiveAllDrainsTheBacklogInOrder) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  for (int i = 0; i < 5; ++i) {
    ch.Send(static_cast<uint32_t>(i), MakeBuffer(std::to_string(i)));
  }
  std::vector<Message> out;
  EXPECT_EQ(ch.TryReceiveAll(&out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].opcode, static_cast<uint32_t>(i));
    EXPECT_EQ(*out[static_cast<size_t>(i)].payload, std::to_string(i));
  }
  EXPECT_EQ(ch.queued_bytes(), 0u);
  EXPECT_EQ(ch.TryReceiveAll(&out), 0u);  // empty queue: no-op
  EXPECT_EQ(out.size(), 5u);              // and the batch is appended, not replaced
}

TEST(ChannelTest, ReceiveAllBlocksUntilTrafficThenDrains) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int i = 0; i < 3; ++i) ch.Send(1, MakeBuffer("m"));
  });
  std::vector<Message> out;
  size_t total = 0;
  while (total < 3) total += ch.ReceiveAll(&out);  // first call blocks
  producer.join();
  EXPECT_EQ(total, 3u);
  ch.Close();
  out.clear();
  EXPECT_EQ(ch.ReceiveAll(&out), 0u);  // closed and drained
}

TEST(ChannelTest, TryReceiveAllWakesBlockedSenders) {
  auto opts = Opts(TransferMode::kZeroCopy);
  opts.capacity_bytes = 100;
  Channel ch(opts);
  ch.Send(1, MakeBuffer(std::string(100, 'x')));  // fills the channel
  std::atomic<int> sent{0};
  std::vector<std::thread> senders;
  for (int i = 0; i < 2; ++i) {
    senders.emplace_back([&] {
      ch.Send(2, MakeBuffer(std::string(40, 'y')));  // must wait
      sent.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sent.load(), 0);
  std::vector<Message> out;
  EXPECT_EQ(ch.TryReceiveAll(&out), 1u);  // frees the whole backlog at once
  for (auto& t : senders) t.join();
  EXPECT_EQ(sent.load(), 2);
}

TEST(ChannelTest, ManyProducersOneConsumer) {
  Channel ch(Opts(TransferMode::kZeroCopy));
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ch.Send(static_cast<uint32_t>(p), MakeBuffer("m"));
      }
    });
  }
  int received = 0;
  while (received < 4 * kPerProducer) {
    if (ch.Receive().has_value()) ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ch.stats().messages.load(), 800u);
}

}  // namespace
}  // namespace dcy::rdma
