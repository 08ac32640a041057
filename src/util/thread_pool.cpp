#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace mate {

namespace {

// One ForkJoin call's state, co-owned by its caller and its helper tasks.
// A helper that starts after the call has returned finds no index left and
// never calls `fn`, so `fn` may point into the caller's frame.
struct JoinState {
  JoinState(size_t n_in, const std::function<void(size_t)>* fn_in)
      : n(n_in), fn(fn_in), done(n_in) {}

  // Claims and runs indexes until none is left.
  void Drain() {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(i);
      done.CountDown();
    }
  }

  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  Latch done;
};

}  // namespace

void Latch::CountDown() {
  // Notify under the lock: a waiter may destroy the latch as soon as it
  // sees zero, so nothing here may touch it once the lock is released.
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ > 0) --count_;
  if (count_ == 0) cv_.notify_all();
}

void Latch::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return count_ == 0; });
}

bool Latch::TryWait() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0;
}

ThreadPool::ThreadPool(unsigned num_threads) : num_threads_(num_threads) {
  if (num_threads_ == 0) num_threads_ = std::thread::hardware_concurrency();
  if (num_threads_ == 0) num_threads_ = 1;
  if (num_threads_ == 1) return;  // inline mode: no queues, no workers
  queues_.reserve(num_threads_);
  for (unsigned i = 0; i < num_threads_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads_);
  for (unsigned i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  // Workers leave only once stop_ is set and nothing is queued, so every
  // task submitted before this point still runs.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {  // single-threaded: run inline, stay deterministic
    task();
    return;
  }
  {
    // The deque push happens inside the mu_ section so a worker that
    // observes queued_ > 0 is guaranteed to find the task — no wakeup can
    // land in a push-still-pending window and busy-spin. Lock order is
    // always mu_ -> queue.mu; TryPop takes queue locks without mu_ held.
    std::lock_guard<std::mutex> lock(mu_);
    size_t target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++queued_;
    std::lock_guard<std::mutex> queue_lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::ForkJoin(size_t n, const std::function<void(size_t)>& fn) {
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<JoinState>(n, &fn);
  // min(n, width) threads at most, the caller included.
  const size_t threads = std::min<size_t>(n, num_threads_);
  for (size_t h = 1; h < threads; ++h) {
    Submit([state] { state->Drain(); });
  }
  state->Drain();
  state->done.Wait();
}

bool ThreadPool::TryPop(unsigned self, std::function<void()>* task) {
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // Steal oldest-first from siblings, scanning from the next worker over so
  // victims differ across thieves.
  for (unsigned off = 1; off < num_threads_; ++off) {
    WorkerQueue& victim = *queues_[(self + off) % num_threads_];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned self) {
  for (;;) {
    std::function<void()> task;
    if (TryPop(self, &task)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        --queued_;
      }
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ == 0) return;
  }
}

}  // namespace mate
