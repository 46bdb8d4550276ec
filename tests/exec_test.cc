// Tests for the process-wide FIFO task pool: up-front thread creation,
// progress while most threads block, and the exactly-once shutdown contract.
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
  // The pool's own 3 threads, all from the constructor.
  EXPECT_EQ(e.metrics().threads_created, 3u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    e.Submit([&] { ran.fetch_add(1); });
  }
  while (ran.load() < 50) std::this_thread::yield();
  EXPECT_EQ(e.metrics().threads_created, 3u);  // steady state: zero spawns
  EXPECT_GE(e.metrics().tasks_executed, 50u);
}

TEST(ExecutorTest, OneFreeThreadRunsTheBacklog) {
  // State outlives the executor (declared first): its destructor joins the
  // workers before any of this is torn down.
  constexpr int kThreads = 4;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> parked{0};
  std::atomic<int> ran{0};
  Executor e(kThreads);
  // Park all threads but one, the way pins park tasks on the ring.
  for (int i = 0; i < kThreads - 1; ++i) {
    e.Submit([&, released] {  // shared_future copied: thread-safe waiting
      parked.fetch_add(1);
      released.wait();
    });
  }
  while (parked.load() < kThreads - 1) std::this_thread::yield();
  // Runnable work must still flow through the one free thread.
  for (int i = 0; i < 16; ++i) {
    e.Submit([&] { ran.fetch_add(1); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 16) << "runnable tasks starved behind blocked ones";
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
