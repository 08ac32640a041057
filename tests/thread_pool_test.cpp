#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <vector>

namespace mate {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int order = 0;
  pool.Submit([&] { EXPECT_EQ(order++, 0); });
  // Inline mode completed before Submit returned.
  EXPECT_EQ(order, 1);
  pool.Wait();
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  const size_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < n; ++i) {
      pool.Submit([&hits, i] { hits[i].fetch_add(1); });
    }
    pool.Wait();
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, WaitThenReuse) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 50);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // No Wait(): the destructor must drain before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

// A parallel for over [0, n): one Submit per index, then Wait — the
// fan-out batch discovery runs on the session pool.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  for (size_t i = 0; i < n; ++i) pool->Submit([&fn, i] { fn(i); });
  pool->Wait();
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  const size_t n = 300;
  std::vector<std::atomic<int>> hits(n);
  ThreadPool pool(4);
  ParallelFor(&pool, n, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForEmptyAndSerial) {
  ThreadPool wide(4);
  ParallelFor(&wide, 0, [](size_t) { FAIL(); });  // Wait on nothing returns
  std::vector<int> order;
  // A serial pool preserves submission order (inline execution).
  ThreadPool serial(1);
  ParallelFor(&serial, 5, [&order](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, StealingKeepsWorkersBusyWithUnevenTasks) {
  // One long task on one queue, many short ones: total work must finish
  // even though round-robin parks short tasks behind long ones.
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done, i] {
        if (i % 16 == 0) {
          volatile uint64_t x = 0;
          for (int spin = 0; spin < 2000000; ++spin) x = x + spin;
        }
        done.fetch_add(1);
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(done.load(), 64);
}

// ---- Latch (the readiness primitive behind phased Session::Open) ------

TEST(LatchTest, TryWaitTracksTheCount) {
  Latch latch(2);
  EXPECT_FALSE(latch.TryWait());
  latch.CountDown();
  EXPECT_FALSE(latch.TryWait());
  latch.CountDown();
  EXPECT_TRUE(latch.TryWait());
  latch.CountDown();  // saturates at zero, no underflow
  EXPECT_TRUE(latch.TryWait());
  latch.Wait();  // returns immediately at zero
}

TEST(LatchTest, ZeroCountIsImmediatelyOpen) {
  Latch latch(0);
  EXPECT_TRUE(latch.TryWait());
  latch.Wait();
}

TEST(LatchTest, WaitersObserveWritesMadeBeforeCountDown) {
  // The Session readiness pattern: a loader publishes a value, counts the
  // latch down, and many waiters read the value after Wait. TSan verifies
  // the happens-before edge.
  Latch latch(1);
  int payload = 0;
  std::atomic<int> seen{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&] {
        latch.Wait();
        if (payload == 42) seen.fetch_add(1);
      });
    }
    payload = 42;
    latch.CountDown();
    pool.Wait();
  }
  EXPECT_EQ(seen.load(), 8);
}

}  // namespace
}  // namespace mate
