// A fixed pool of worker threads with fork-join (barrier) semantics, for the
// cluster layer's shard-parallel epochs.
//
// ParallelFor(n, fn) runs fn(0..n-1) across the pool and the calling thread,
// returning only when every index has completed — the barrier the conservative
// virtual-time synchronization protocol needs between epochs. Indices are
// claimed dynamically, so a shard with a busy epoch does not serialize the
// idle ones; determinism is unaffected because shards never share state while
// a ParallelFor is in flight (each index touches one shard's Platform only).
//
// With threads <= 1 no OS threads are created and ParallelFor degenerates to
// an inline loop — the 1-worker configuration is bit-for-bit the serial
// program, which the cluster determinism test pins against N-thread runs. A
// single index also runs inline: there is nothing to fork.

#ifndef FAASNAP_SRC_CLUSTER_WORKER_POOL_H_
#define FAASNAP_SRC_CLUSTER_WORKER_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"

namespace faasnap {

class WorkerPool {
 public:
  // `threads` is the total worker count including the caller: ParallelFor uses
  // the calling thread plus (threads - 1) pool threads. <= 1 runs inline.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs fn(i) for every i in [0, n), returning after all complete. Not
  // reentrant: fn must not call ParallelFor on the same pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  // Claims and runs indices of the current generation until none remain.
  void DrainIndices(uint64_t generation, const std::function<void(size_t)>* job);

  Mutex mu_;
  CondVar work_cv_;  // workers: a new generation is ready
  CondVar done_cv_;  // caller: all indices of the generation completed
  uint64_t generation_ FAASNAP_GUARDED_BY(mu_) = 0;
  size_t next_index_ FAASNAP_GUARDED_BY(mu_) = 0;
  size_t total_ FAASNAP_GUARDED_BY(mu_) = 0;
  size_t completed_ FAASNAP_GUARDED_BY(mu_) = 0;
  const std::function<void(size_t)>* job_ FAASNAP_GUARDED_BY(mu_) = nullptr;
  bool shutdown_ FAASNAP_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_CLUSTER_WORKER_POOL_H_
