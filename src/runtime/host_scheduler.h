// Multi-function host scheduling: warm pools, memory budgets, and
// evict-to-snapshot (paper sections 2.1 and 7.1).
//
// A FaaS host serves many functions under a fixed memory budget. Idle VMs stay
// warm until a keep-alive horizon or until the pool overflows, at which point the
// least-recently-used VM is evicted — and, with snapshots, eviction is cheap:
// the next invocation restores from the snapshot instead of cold-booting
// ("snapshots can... replace warm VMs when their utilization is low (e.g., on
// eviction)"). The Azure traces cited by the paper motivate the arrival mix:
// few functions are hot, most are invoked rarely — modeled here with a Zipf
// popularity distribution over Poisson arrivals.
//
// Registered with a single function, the engine is the paper's keep-alive
// tradeoff on its own: warm hits vs snapshot-restore or cold-boot misses, and
// the memory the warm VM pins between invocations.
//
// Two serving disciplines share the engine:
//
//   Closed loop (default) — invocations are admitted serially in arrival order
//   (one running VM at a time, the next gap measured from the previous
//   completion); this isolates the policy effects from CPU contention, which
//   Figure 10 covers.
//
//   Open loop (config.open_loop) — arrivals land at absolute virtual times
//   regardless of completions, up to admission.max_concurrency invocations run
//   concurrently, and overload is handled by the admission layer: a bounded
//   deadline queue with typed shedding (src/runtime/admission.h) plus a
//   pressure ladder that degrades readahead, restore mode, and keep-alive
//   before any work is dropped.

#ifndef FAASNAP_SRC_RUNTIME_HOST_SCHEDULER_H_
#define FAASNAP_SRC_RUNTIME_HOST_SCHEDULER_H_

#include <list>
#include <memory>
#include <vector>

#include "src/common/histogram.h"
#include "src/runtime/admission.h"
#include "src/runtime/arrivals.h"
#include "src/runtime/platform.h"

namespace faasnap {

struct HostSchedulerConfig {
  // Total memory the warm pool may pin (working sets of idle + running VMs).
  ByteCount warm_pool_budget_bytes = GiB(1);
  // Idle VMs older than this are reclaimed even if the pool has room.
  Duration keep_warm = Duration::Seconds(600);
  // How a warm miss is served (snapshot restore or full cold boot).
  RestoreMode miss_mode = RestoreMode::kFaasnap;
  // Snapshot quarantine: after this many consecutive failed restores of one
  // function's snapshot, misses bypass it (cold boot) for `quarantine_backoff`
  // instead of retrying a snapshot that keeps failing.
  int quarantine_failure_threshold = 3;
  Duration quarantine_backoff = Duration::Seconds(60);

  // Open-loop serving: arrivals at absolute times, concurrent invocations,
  // admission control, and the pressure-degradation ladder. Off by default —
  // the closed loop above is preserved bit-identically.
  bool open_loop = false;
  AdmissionConfig admission;
  PressureLadderConfig ladder;
};

struct HostSchedulerStats {
  int64_t invocations = 0;        // accepted arrivals that ran to completion
  int64_t warm_hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;          // pool-pressure evictions (budget overflow)
  int64_t expirations = 0;        // keep-alive horizon reclaims
  int64_t restore_failures = 0;   // invocations that ended kFailed on a miss
  int64_t quarantines = 0;        // snapshots benched after repeated failures
  int64_t quarantined_serves = 0; // misses served by cold boot while benched
  RunningStats latency_ms;
  RunningStats miss_latency_ms;
  // Time-averaged bytes pinned by the warm pool across the run. The closed
  // loop charges an idle VM until it is hit or its keep-alive horizon passes;
  // the open loop charges it until an arrival reclaims it, and also counts the
  // predicted bytes of in-flight restores.
  double avg_pool_bytes = 0;
  Duration span;
  // Per registered function: hit counts (hot functions should dominate).
  std::vector<int64_t> per_function_hits;
  std::vector<int64_t> per_function_invocations;

  // Open-loop fields; all zero in closed-loop runs.
  int64_t arrivals = 0;            // offered arrivals (== invocations + sheds)
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t queued = 0;              // admitted after a non-zero queue wait
  int64_t fairness_deferrals = 0;
  int max_in_flight = 0;
  size_t max_queue_depth = 0;
  RunningStats queue_wait_ms;      // over admitted arrivals
  // Latency distribution of accepted work only (sheds excluded), for tail
  // assertions under overload. Buckets from 1us; ~1us .. >1s.
  Log2Histogram accepted_latency{Duration::Micros(1), /*num_buckets=*/21};
  // Pressure ladder bookkeeping.
  int64_t pressure_demotions = 0;  // miss restores demoted to kReap at L2+
  int64_t pressure_transitions = 0;
  int max_pressure_level = 0;
  int final_pressure_level = 0;    // after the run drains; 0 = recovered
  // Virtual time between the last arrival and the last completion (how long
  // the host takes to drain its backlog after the offered load stops).
  Duration drain_time;

  double warm_hit_rate() const {
    return invocations == 0 ? 0.0
                            : static_cast<double>(warm_hits) / static_cast<double>(invocations);
  }
  int64_t shed() const { return shed_queue_full + shed_deadline; }
};

class HostScheduler {
 public:
  // `platform` must outlive the scheduler.
  HostScheduler(Platform* platform, HostSchedulerConfig config);
  // A scheduler on `platform` — a copy of `source`'s platform — with
  // `source`'s config and registered functions. `source` must be idle: no run
  // in progress and no VM in the warm pool. The recorded snapshots and trace
  // generators are immutable and shared between the two.
  HostScheduler(Platform* platform, const HostScheduler& source);
  ~HostScheduler();  // out of line: OpenLoopState is incomplete here

  // Registers a function: records its snapshot on the platform and returns its
  // index for Arrival::function_index.
  size_t AddFunction(const FunctionSpec& spec);

  // Serves `arrivals` and returns the aggregate statistics: serially in the
  // closed loop, or at absolute virtual times under admission control when
  // config.open_loop is set.
  HostSchedulerStats Run(const std::vector<Arrival>& arrivals);

  // --- Incremental open-loop driving (the cluster layer's shards). ---
  //
  // RunOpenLoop with config.open_loop is exactly BeginOpenLoop() + OfferAt()
  // per timed arrival + sim()->Run() + FinishOpenLoop(). A cluster shard
  // instead interleaves OfferAt batches (arrivals routed at barrier epochs)
  // with bounded sim->RunUntil(epoch_end) advances. Offer times must be
  // non-decreasing and >= the platform clock; content seeds are drawn when
  // the arrival event fires, which is offer order, so the input stream is
  // identical whether the schedule was offered up front or epoch by epoch.
  void BeginOpenLoop();
  void OfferAt(size_t function_index, SimTime at);
  // Finalizes and returns the run's statistics. Every offered arrival must
  // have resolved (drive the sim until OpenLoopIdle() first).
  HostSchedulerStats FinishOpenLoop();

  // Dispatcher-visible surface, read by the cluster router at barrier epochs
  // only (between epochs the shard's worker thread owns this object, and the
  // values are deterministic only once it is parked at the barrier).
  int64_t OutstandingLoad() const;  // admitted in-flight + queued arrivals
  bool OpenLoopIdle() const;        // no in-flight or queued admitted work
  size_t function_count() const { return entries_.size(); }
  // The function's VM currently sits in the warm pool (a routed arrival would
  // warm-hit), resp. has completed at least one invocation on this host (its
  // snapshot pages are plausibly still in the host page cache).
  bool FunctionWarm(size_t index) const { return entries_[index]->warm; }
  bool FunctionEverServed(size_t index) const { return entries_[index]->served_once; }
  ByteCount pool_bytes() const { return pool_bytes_; }
  ByteCount pool_budget() const { return config_.warm_pool_budget_bytes; }

  const FunctionSnapshot& snapshot(size_t index) const { return *entries_[index]->snapshot; }

 private:
  struct Entry {
    std::shared_ptr<const TraceGenerator> generator;
    std::shared_ptr<const FunctionSnapshot> snapshot;
    ByteCount ws_bytes;
    // Warm-pool state. `lru_it` points into lru_ iff warm.
    bool warm = false;
    SimTime last_used;
    std::list<Entry*>::iterator lru_it;
    // In-flight invocations of this function (open loop only).
    int running = 0;
    // At least one invocation of this function completed on this host.
    bool served_once = false;
    // Snapshot health: consecutive failed restores, and until when misses
    // bypass the snapshot (cold boot) instead of retrying it.
    int consecutive_failures = 0;
    SimTime quarantined_until;
  };

  // What BeginServe decided at admission; threaded through to FinishServe.
  struct PlannedServe {
    size_t function_index = 0;
    bool warm = false;
    RestoreMode mode = RestoreMode::kWarm;
    SpanId span = kNoSpan;
  };

  // Live state of one open-loop run, heap-held between BeginOpenLoop and
  // FinishOpenLoop so the admission hooks and completion callbacks can refer
  // to it stably across epochs.
  struct OpenLoopState;

  HostSchedulerStats RunClosedLoop(const std::vector<Arrival>& arrivals);
  HostSchedulerStats RunOpenLoop(const std::vector<Arrival>& arrivals);

  // Per-serve bookkeeping shared by both loops; see host_scheduler.cc.
  PlannedServe BeginServe(size_t function_index, bool warm, RestoreMode miss_mode,
                          HostSchedulerStats* stats);
  void FinishServe(const PlannedServe& planned, InvocationOutcome outcome, Duration latency,
                   HostSchedulerStats* stats);
  // Looks up the serve metrics when a run begins; publishes span, average
  // pool and reclaim counters when it ends.
  void AttachRunMetrics();
  void FinishRun(SimTime span_start, double pool_byte_time, HostSchedulerStats* stats);

  // Open-loop engine internals; see host_scheduler.cc.
  void OpenLoopArrival(size_t function_index);
  void OpenLoopAccrue(SimTime now);
  void OpenLoopUpdateLadder();
  void OpenLoopShed(const AdmissionRequest& request, InvocationOutcome outcome, Duration wait);
  void OpenLoopRun(const AdmissionRequest& request, Duration wait);
  void OpenLoopComplete(const AdmissionRequest& request, const PlannedServe& planned,
                        const InvocationReport& report);

  // Warm-pool bookkeeping: the pool byte total and the LRU list (front =
  // least recently used) are maintained incrementally — marking a VM warm,
  // refreshing its recency, or evicting it is O(1), instead of the historical
  // full rescan of every entry per eviction step.
  void MarkWarm(Entry* entry, SimTime now);
  void MarkCold(Entry* entry);
  // Reclaims VMs idle past `keep_warm` and, if needed, LRU-evicts until
  // `needed` bytes fit in the budget.
  void ReclaimAndEvict(ByteCount needed, Duration keep_warm, HostSchedulerStats* stats);
  // Closed loop: the idle pool's byte-seconds from `from` to now, each warm VM
  // charged only up to its keep-alive horizon and reclaimed there.
  double AccrueIdlePool(SimTime from, HostSchedulerStats* stats);
  // Best-effort: evicts idle LRU VMs until at least `bytes` are unpinned (the
  // admission controller's make_room hook).
  void EvictIdleBytes(ByteCount bytes, HostSchedulerStats* stats);

  Platform* platform_;
  HostSchedulerConfig config_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::list<Entry*> lru_;      // warm entries, ascending last_used
  ByteCount pool_bytes_;       // sum of ws_bytes over warm entries
  std::unique_ptr<OpenLoopState> open_loop_;  // live between Begin/FinishOpenLoop
  // Serve metrics of the current run; null without a registry.
  Counter* warm_hits_metric_ = nullptr;
  Counter* misses_metric_ = nullptr;
  Gauge* pool_gauge_ = nullptr;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_RUNTIME_HOST_SCHEDULER_H_
