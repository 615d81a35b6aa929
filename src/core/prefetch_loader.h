// PrefetchLoader: the FaaSnap daemon's loader thread (paper section 4.2).
//
// Reads a sequence of file ranges into the host page cache, keeping a small
// pipeline of device reads in flight (mirroring kernel readahead on a streaming
// read). Pages already present or in flight are skipped — this is the "lock that
// ensures the loading set is accessed exactly once" in bursty same-snapshot runs
// (section 6.6): concurrent loaders dedupe through shared page-cache state.
//
// The same loader implements the Figure 9 ablations by changing what it is given:
//   * address-ordered working-set ranges from the memory file  (concurrent paging),
//   * group-ordered loading regions from the memory file       (per-region mapping),
//   * one sequential range over the compact loading set file   (full FaaSnap).

#ifndef FAASNAP_SRC_CORE_PREFETCH_LOADER_H_
#define FAASNAP_SRC_CORE_PREFETCH_LOADER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/page_range.h"
#include "src/common/sim_time.h"
#include "src/common/thread_annotations.h"
#include "src/mem/page_cache.h"
#include "src/sim/simulation.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_tracer.h"
#include "src/storage/storage_router.h"

namespace faasnap {

class FaultInjector;

struct PrefetchItem {
  FileId file = kInvalidFileId;
  PageRange range;
};

struct PrefetchConfig {
  // Pages per device read. 512 pages = 2 MiB: large enough to hit streaming
  // bandwidth, small enough that the guest rarely waits long on an in-flight chunk.
  PageCount chunk_pages = PageCount::FromPages(512);
  // Reads kept in flight concurrently (the loader thread's IO queue depth).
  int pipeline_depth = 4;
  // Adaptive throttling: while demand reads are queued or in service at the
  // router, the effective depth halves (down to min_pipeline_depth) each time
  // the pipeline refills, backing the loader off the device the guest is
  // blocked on; after depth_ramp_quiet without demand pressure it doubles back
  // toward pipeline_depth. Driven entirely by simulation state, so same-seed
  // runs stay bit-identical.
  bool adaptive_depth = true;
  int min_pipeline_depth = 1;
  Duration depth_ramp_quiet = Duration::Millis(1);
};

class PrefetchLoader {
 public:
  PrefetchLoader(Simulation* sim, PageCache* cache, StorageRouter* storage,
                 PrefetchConfig config = {});

  // Prefetches `items` in order; `done` fires when every page is present.
  // One Start per loader instance.
  void Start(std::vector<PrefetchItem> items, std::function<void()> done);

  // Attaches span tracing and metrics. The loader's whole run becomes one span
  // on the loader lane; each chunk read nests under it (with its device read
  // nesting under the chunk). Metrics: fetched bytes, skipped pages, chunk
  // count. Null pointers detach.
  void set_observability(SpanTracer* spans, MetricsRegistry* metrics);

  // Span the loader's run span parents to (the owning invoke/record span).
  void set_parent_span(SpanId span) { parent_span_ = span; }

  // Attaches deterministic fault injection: the loader thread may stall before
  // issuing a chunk (holding a pipeline slot for the stall), and chunk reads
  // that fail terminally are surfaced as partial-prefetch failure instead of
  // hanging the loader. Null detaches; detached cost is one branch per chunk.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Progress surface, readable from any thread (guarded by mu_). The loader is
  // *driven* from the simulation thread only; these accessors exist so a
  // monitor off that thread can poll progress safely.
  bool started() const FAASNAP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return started_;
  }
  bool finished() const FAASNAP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return finished_;
  }
  // Wall-clock from Start to completion (valid once finished).
  Duration fetch_time() const FAASNAP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return fetch_time_;
  }
  // Bytes this loader actually read from the device.
  ByteCount fetched_bytes() const FAASNAP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return fetched_bytes_;
  }
  // Pages skipped because another actor already cached or was reading them.
  PageCount skipped_pages() const FAASNAP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return skipped_pages_;
  }

  // Partial-prefetch failure surface: OK when every issued read succeeded;
  // otherwise the first terminal read error. The loader still runs to
  // completion (done fires) — the pages are simply not cached, and the guest
  // will demand-fault them later. Valid once finished.
  Status status() const FAASNAP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return status_;
  }
  // Pages whose covering reads failed (left absent, not installed).
  PageCount failed_pages() const FAASNAP_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return failed_pages_;
  }

  // Effective pipeline depth right now (== config.pipeline_depth with adaptive
  // throttling off). Sim-thread confined, exposed for tests.
  int current_depth() const { return current_depth_; }

 private:
  void Pump();
  void UpdateDepth();
  void IssueChunk(const PrefetchItem& chunk);
  void OnChunkDone();

  Simulation* sim_;
  PageCache* cache_;
  StorageRouter* storage_;
  PrefetchConfig config_;

  // Pipeline-driving state: confined to the simulation thread (mutated only
  // from Start and simulation callbacks), so it carries no guard.
  std::deque<PrefetchItem> chunks_;  // pre-split work queue
  int in_flight_ = 0;
  int current_depth_ = 0;    // set from config at construction
  SimTime quiet_since_;      // last time demand pressure was seen (or depth changed)
  SimTime start_time_;
  FaultInjector* injector_ = nullptr;
  std::function<void()> done_;

  mutable Mutex mu_;
  bool started_ FAASNAP_GUARDED_BY(mu_) = false;
  bool finished_ FAASNAP_GUARDED_BY(mu_) = false;
  Duration fetch_time_ FAASNAP_GUARDED_BY(mu_);
  ByteCount fetched_bytes_ FAASNAP_GUARDED_BY(mu_);
  PageCount skipped_pages_ FAASNAP_GUARDED_BY(mu_);
  PageCount failed_pages_ FAASNAP_GUARDED_BY(mu_);
  Status status_ FAASNAP_GUARDED_BY(mu_);

  SpanTracer* spans_ = nullptr;
  uint32_t loader_name_ = 0;        // pre-interned obsname::kLoader
  uint32_t loader_chunk_name_ = 0;  // pre-interned obsname::kLoaderChunk
  SpanId parent_span_ = kNoSpan;
  SpanId run_span_ = kNoSpan;
  Counter* fetched_bytes_metric_ = nullptr;
  Counter* skipped_pages_metric_ = nullptr;
  Counter* chunks_metric_ = nullptr;
  Gauge* depth_metric_ = nullptr;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_CORE_PREFETCH_LOADER_H_
