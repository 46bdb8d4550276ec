// Tests for the process-wide work-stealing executor: up-front thread
// creation, cross-worker stealing, the blocking-task escape hatch, and the
// exactly-once shutdown contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "exec/executor.h"

namespace dcy::exec {
namespace {

TEST(ExecutorTest, ThreadsAreCreatedOnceUpFront) {
  Executor e(3);
  EXPECT_EQ(e.workers(), 3u);
  // 3 primaries + 3 parked reserves, all from the constructor.
  EXPECT_EQ(e.metrics().threads_created, 6u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    e.Submit([&] { ran.fetch_add(1); });
  }
  while (ran.load() < 50) std::this_thread::yield();
  EXPECT_EQ(e.metrics().threads_created, 6u);  // steady state: zero spawns
  EXPECT_GE(e.metrics().tasks_executed, 50u);
}

TEST(ExecutorTest, SiblingsStealFromABusyWorkersDeque) {
  // State outlives the executor (declared first): the executor's destructor
  // joins every worker before these are torn down.
  std::atomic<int> children_done{0};
  std::promise<void> parent_release;
  std::shared_future<void> released = parent_release.get_future().share();
  std::promise<void> flooded;
  Executor e(4);
  const auto before = e.metrics();
  // One task floods its own deque with children, then camps on its thread;
  // the children can only finish if siblings steal them.
  e.Submit([&, released] {  // shared_future copied: thread-safe waiting
    for (int i = 0; i < 64; ++i) {
      e.Submit([&] { children_done.fetch_add(1); });
    }
    flooded.set_value();
    released.wait();  // occupy this worker until the children are stolen
  });
  flooded.get_future().wait();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (children_done.load() < 64 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(children_done.load(), 64);
  EXPECT_GT(e.metrics().tasks_stolen, before.tasks_stolen);
  parent_release.set_value();
}

TEST(ExecutorTest, BlockingScopeLetsReservesRunTheBacklog) {
  // State outlives the executor (declared first): its destructor joins the
  // workers before any of this is torn down.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> blocked_entered{0};
  std::atomic<int> ran{0};
  Executor e(2);
  // Park both primaries inside blocking sections.
  for (int i = 0; i < 2; ++i) {
    e.Submit([&, released] {  // shared_future copied: thread-safe waiting
      Executor::BlockingScope scope(e);
      blocked_entered.fetch_add(1);
      released.wait();
    });
  }
  while (blocked_entered.load() < 2) std::this_thread::yield();
  // Runnable work must still flow: the reserves take over.
  for (int i = 0; i < 16; ++i) {
    e.Submit([&] { ran.fetch_add(1); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 16) << "runnable tasks starved behind blocked ones";
  EXPECT_GE(e.metrics().blocking_sections, 2u);
  release.set_value();
}

TEST(ExecutorTest, DestructorRunsEveryQueuedTaskExactlyOnce) {
  std::atomic<int> ran{0};
  {
    Executor e(2);
    for (int i = 0; i < 200; ++i) {
      e.Submit([&] { ran.fetch_add(1); });
    }
    // Destruct immediately: whatever is still queued must run, not drop.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ExecutorTest, ShutdownRacesWithConcurrentSubmitters) {
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> ran{0};
    {
      Executor e(2);
      std::vector<std::thread> submitters;
      for (int t = 0; t < 3; ++t) {
        submitters.emplace_back([&] {
          for (int i = 0; i < 50; ++i) {
            e.Submit([&] { ran.fetch_add(1); });
          }
        });
      }
      for (auto& t : submitters) t.join();
    }
    ASSERT_EQ(ran.load(), 150) << "round " << round;
  }
}

TEST(ExecutorTest, DefaultExecutorIsSharedAndAlive) {
  Executor& a = Executor::Default();
  Executor& b = Executor::Default();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.workers(), 1u);
  std::promise<void> done;
  a.Submit([&] { done.set_value(); });
  done.get_future().wait();
}

}  // namespace
}  // namespace dcy::exec
