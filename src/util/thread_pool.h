// Work-stealing thread pool for fan-out over independent tasks (batch
// discovery, one query's shards, parallel index passes). Each worker owns
// a deque; Submit round-robins tasks across workers, and an idle worker
// steals from the front of a sibling's deque. Tasks here are coarse (one
// discovery query, one table's hashing pass), so per-deque mutexes — not
// lock-free deques — are plenty.
//
// There is no pool-wide barrier. ForkJoin is a helping join, as in Cilk
// and TBB: its caller claims indexes alongside the workers and runs every
// index nobody has started, so a wait only ever covers work already in
// progress on another thread. Any number of threads may fan out over one
// pool at once, and a ForkJoin may nest inside another's `fn`, on a
// worker of the same pool included.
//
// Follows the `num_threads` convention of IndexBuildOptions: 0 means
// hardware concurrency, 1 means a degenerate pool whose Submit runs the
// task inline on the calling thread (fully serial, no worker threads).

#ifndef MATE_UTIL_THREAD_POOL_H_
#define MATE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mate {

/// One-shot countdown latch: Wait blocks until CountDown has been called
/// `count` times. Session's phased open arms one with count 1 — the loader
/// thread counts it down when postings and super keys are resident, and
/// every query path waits on it before touching the index — and every
/// ThreadPool::ForkJoin arms one with its index count. Writes made before
/// CountDown are visible to threads returning from Wait/TryWait, and a
/// waiter that saw zero may destroy the latch at once. Unlike std::latch,
/// TryWait is a reliable non-blocking probe (no spurious failures), which
/// readiness status lines rely on.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Decrements the count (saturating at zero); wakes waiters at zero.
  void CountDown();

  /// Blocks until the count reaches zero.
  void Wait() const;

  /// True iff the count has reached zero; never blocks.
  bool TryWait() const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  size_t count_;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = hardware concurrency; 1 = inline
  /// execution, no threads). Workers live until destruction.
  explicit ThreadPool(unsigned num_threads);

  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`. Tasks must not throw. With one thread, runs `task`
  /// before returning.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n) and returns once all of them have
  /// finished. The caller and at most min(n, width) - 1 helper tasks claim
  /// indexes from one counter private to this call, and each finished
  /// index counts down the call's Latch. The caller drains the counter
  /// itself before it waits, so it runs every index nobody has started and
  /// waits only on indexes in progress elsewhere: concurrent callers never
  /// wait on one another's work, and `fn` may itself call ForkJoin on this
  /// pool. One call keeps at most min(n, width) threads busy, its caller
  /// included. A one-thread pool runs fn inline, in index order.
  void ForkJoin(size_t n, const std::function<void(size_t)>& fn);

  /// Worker count after the 0 -> hardware-concurrency resolution; >= 1.
  unsigned num_threads() const { return num_threads_; }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(unsigned self);
  /// Pops from own back, else steals from a sibling's front.
  bool TryPop(unsigned self, std::function<void()>* task);

  unsigned num_threads_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Guards queued_/stop_ for sleeping workers; coarse, but tasks are
  // millisecond-scale so it never contends.
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers sleep here
  size_t queued_ = 0;                // submitted, not yet popped
  size_t next_queue_ = 0;
  bool stop_ = false;
};

}  // namespace mate

#endif  // MATE_UTIL_THREAD_POOL_H_
