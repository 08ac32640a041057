#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

namespace mate {
namespace {

// Runs `body` on a thread of its own and reports whether it finished
// within 10 s, joining the thread if it did. A miss leaks the thread
// (destroying it unjoined would abort), and the test then leaks its pool
// and whatever `body` references, so a hung join fails the test instead of
// hanging it at teardown.
bool FinishesWithinDeadline(std::function<void()> body) {
  std::promise<void> finished;
  std::future<void> ready = finished.get_future();
  auto* runner = new std::thread(
      [body = std::move(body), finished = std::move(finished)]() mutable {
        body();
        finished.set_value();
      });
  if (ready.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    return false;
  }
  runner->join();
  delete runner;
  return true;
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int order = 0;
  pool.Submit([&] { EXPECT_EQ(order++, 0); });
  // Inline mode completed before Submit returned.
  EXPECT_EQ(order, 1);
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
    pool.ForkJoin(n, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, WaitThenReuse) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    pool.ForkJoin(50, [&count](size_t) { count.fetch_add(1); });
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
    // Nothing waits on these: the destructor must drain before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

// ForkJoin is the parallel for over [0, n) that batch discovery and the
// sharded executor run on the session pool, one nested inside the other.
TEST(ThreadPoolTest, ParallelForCoversRange) {
  const size_t n = 300;
  std::vector<std::atomic<int>> hits(n);
  ThreadPool pool(4);
  pool.ForkJoin(n, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForEmptyAndSerial) {
  ThreadPool wide(4);
  wide.ForkJoin(0, [](size_t) { FAIL(); });  // waiting on nothing returns
  std::vector<int> order;
  // A serial pool preserves index order (inline execution).
  ThreadPool serial(1);
  serial.ForkJoin(5, [&order](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ForkJoinWaitsOnlyForItsOwnTasks) {
  // Caller A's one task blocks until released. Caller B's fan-out over the
  // same pool must still return: its wait counts B's tasks only. A
  // pool-wide barrier would hang B here, so the wait is bounded and a
  // regression fails the test instead of timing out the suite.
  ThreadPool pool(4);
  Latch a_running(1);
  Latch release_a(1);
  std::thread a([&] {
    pool.ForkJoin(1, [&](size_t) {
      a_running.CountDown();
      release_a.Wait();
    });
  });
  a_running.Wait();
  std::future<int> b = std::async(std::launch::async, [&pool] {
    std::atomic<int> ran{0};
    pool.ForkJoin(8, [&ran](size_t) { ran.fetch_add(1); });
    return ran.load();
  });
  const bool b_returned =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(b_returned) << "ForkJoin waited on another caller's task";
  EXPECT_FALSE(release_a.TryWait()) << "A's task must still be blocked";
  release_a.CountDown();
  a.join();
  EXPECT_EQ(b.get(), 8);
}

TEST(ThreadPoolTest, ConcurrentForkJoinsEachSeeTheirOwnResults) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr size_t kTasks = 200;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kTasks));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        pool.ForkJoin(kTasks, [&, c](size_t i) { ++hits[c][i]; });
        // Every task of this round finished before ForkJoin returned.
        for (size_t i = 0; i < kTasks; ++i) {
          ASSERT_EQ(hits[c][i], round + 1) << "caller " << c << " task " << i;
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
}

TEST(ThreadPoolTest, NestedForkJoinFromEveryWorkerCompletes) {
  // A batch's queries fan out their shards on the pool that runs the
  // batch: every outer index, on whichever worker runs it, issues an inner
  // ForkJoin on the same pool. Its caller runs every inner index nobody
  // has started, so no wait can hold a worker that the work it waits on
  // needs.
  constexpr size_t kInner = 8;
  constexpr int kRounds = 20;
  for (unsigned width : {2u, 4u}) {
    auto* pool = new ThreadPool(width);
    const size_t outer = 2 * width;
    auto* hits = new std::vector<std::atomic<int>>(outer * kInner);
    const bool finished = FinishesWithinDeadline([pool, hits, outer] {
      for (int round = 0; round < kRounds; ++round) {
        pool->ForkJoin(outer, [pool, hits](size_t o) {
          pool->ForkJoin(kInner, [hits, o](size_t i) {
            (*hits)[o * kInner + i].fetch_add(1);
          });
        });
      }
    });
    ASSERT_TRUE(finished) << "a nested ForkJoin hung on a " << width
                          << "-worker pool";
    for (size_t i = 0; i < hits->size(); ++i) {
      EXPECT_EQ((*hits)[i].load(), kRounds) << "width " << width << " " << i;
    }
    delete hits;
    delete pool;
  }
}

TEST(ThreadPoolTest, CallerRunsIndexesNoWorkerHasStarted) {
  // Every worker is parked, so no helper task can start: the caller must
  // run all eight indexes itself and return without any worker.
  constexpr unsigned kWidth = 4;
  constexpr size_t kIndexes = 8;
  auto* pool = new ThreadPool(kWidth);
  auto parked = std::make_shared<Latch>(kWidth);
  auto release = std::make_shared<Latch>(1);
  for (unsigned w = 0; w < kWidth; ++w) {
    pool->Submit([parked, release] {
      parked->CountDown();
      release->Wait();
    });
  }
  parked->Wait();
  auto* ran_on = new std::vector<std::thread::id>(kIndexes);
  auto* caller = new std::thread::id();
  const bool finished = FinishesWithinDeadline([pool, ran_on, caller] {
    *caller = std::this_thread::get_id();
    pool->ForkJoin(kIndexes, [ran_on](size_t i) {
      (*ran_on)[i] = std::this_thread::get_id();
    });
  });
  ASSERT_TRUE(finished) << "ForkJoin waited on indexes no worker started";
  EXPECT_FALSE(release->TryWait()) << "the workers must still be parked";
  for (size_t i = 0; i < kIndexes; ++i) {
    EXPECT_EQ((*ran_on)[i], *caller) << "index " << i;
  }
  release->CountDown();
  delete pool;  // drains the stale helper tasks, which find nothing to run
  delete ran_on;
  delete caller;
}

TEST(ThreadPoolTest, StealingKeepsWorkersBusyWithUnevenTasks) {
  // One long task on one queue, many short ones: total work must finish
  // even though round-robin parks short tasks behind long ones.
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    pool.ForkJoin(64, [&done](size_t i) {
      if (i % 16 == 0) {
        volatile uint64_t x = 0;
        for (int spin = 0; spin < 2000000; ++spin) x = x + spin;
      }
      done.fetch_add(1);
    });
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
  }  // the pool's destructor runs the waiters to completion
  EXPECT_EQ(seen.load(), 8);
}

}  // namespace
}  // namespace mate
