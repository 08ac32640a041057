#include "util/thread_pool.h"

namespace mate {

void Latch::CountDown() {
  bool release;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ > 0) --count_;
    release = count_ == 0;
  }
  if (release) cv_.notify_all();
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
  Wait();
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
    ++in_flight_;
    std::lock_guard<std::mutex> queue_lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
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
      bool drained;
      {
        std::lock_guard<std::mutex> lock(mu_);
        drained = --in_flight_ == 0;
      }
      if (drained) done_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ == 0) return;
  }
}

}  // namespace mate
