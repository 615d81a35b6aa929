#include "src/cluster/worker_pool.h"

#include "src/common/status.h"

namespace faasnap {

WorkerPool::WorkerPool(int threads) {
  for (int i = 1; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.SignalAll();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void WorkerPool::DrainIndices(uint64_t generation, const std::function<void(size_t)>* job) {
  for (;;) {
    size_t index;
    {
      MutexLock lock(mu_);
      // A stale worker that raced past the barrier must not claim indices of
      // a later generation with the old job pointer.
      if (generation_ != generation || next_index_ >= total_) {
        return;
      }
      index = next_index_++;
    }
    (*job)(index);
    {
      MutexLock lock(mu_);
      if (++completed_ == total_) {
        done_cv_.SignalAll();
      }
    }
  }
}

void WorkerPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(size_t)>* job = nullptr;
    uint64_t generation = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && generation_ == seen) {
        work_cv_.Wait(mu_);
      }
      if (shutdown_) {
        return;
      }
      seen = generation_;
      generation = generation_;
      job = job_;
    }
    DrainIndices(generation, job);
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  uint64_t generation = 0;
  {
    MutexLock lock(mu_);
    FAASNAP_CHECK(completed_ == total_);  // no ParallelFor in flight
    job_ = &fn;
    total_ = n;
    next_index_ = 0;
    completed_ = 0;
    generation = ++generation_;
  }
  work_cv_.SignalAll();
  DrainIndices(generation, &fn);
  {
    MutexLock lock(mu_);
    while (completed_ < total_) {
      done_cv_.Wait(mu_);
    }
    job_ = nullptr;
  }
}

}  // namespace faasnap
