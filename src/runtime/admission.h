// Admission control and pressure-driven degradation for open-loop serving.
//
// A closed-loop host never sees overload: the next arrival waits for the
// previous completion. Open-loop arrivals land at absolute virtual times, so
// offered load can exceed capacity and the host must decide, per arrival,
// whether to run it, queue it, or shed it with a typed outcome. Two pieces:
//
//   AdmissionController — a bounded per-host queue with per-request queueing
//     deadlines, a concurrency cap, memory admission (predicted footprint
//     from the snapshot working set vs. a host budget covering the warm pool
//     plus in-flight restores), and per-function fairness caps. Every offered
//     arrival resolves to exactly one of: hooks.run (it dispatched) or
//     hooks.shed (kShedQueueFull at offer, kShedDeadline after queueing).
//
//   PressureLadder — a hysteresis-banded pressure level computed from memory
//     utilization and the disk demand backlog (StorageRouter::DemandPressure).
//     Rising levels degrade work before any of it is dropped: L1 shrinks
//     readahead windows and caps the prefetch pipeline, L2 demotes miss
//     restores toward WS-only REAP, L3 tightens keep-alive eviction. Shedding
//     is never a ladder rung — it only happens when the bounded queue or the
//     deadlines above fire — and the exit thresholds sit below the entry
//     thresholds so a host recovers after a burst instead of oscillating.
//
// Like everything in the simulation both classes are deterministic: decisions
// depend only on configuration and the virtual clock, never on wall time.

#ifndef FAASNAP_SRC_RUNTIME_ADMISSION_H_
#define FAASNAP_SRC_RUNTIME_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/invocation_outcome.h"
#include "src/common/sim_time.h"
#include "src/common/units.h"
#include "src/sim/simulation.h"

namespace faasnap {

struct AdmissionConfig {
  // Invocations allowed in flight at once.
  int max_concurrency = 8;
  // Arrivals allowed to wait for a slot; one more is shed (kShedQueueFull).
  int queue_capacity = 64;
  // A queued arrival still waiting this long after arrival is dropped
  // (kShedDeadline).
  Duration queue_deadline = Duration::Millis(500);
  // Host memory budget covering the idle warm pool (hooks.pinned_bytes) plus
  // the predicted footprint of in-flight work. Zero disables memory admission.
  ByteCount memory_budget_bytes;
  // Per-function fairness: no function may hold more than
  // ceil(fairness_share * max_concurrency) slots while others wait. 0 disables.
  double fairness_share = 0.0;
};

// One offered arrival. `id` is caller-assigned and unique per arrival (it keys
// the pending deadline); `predicted_bytes` is charged against the memory
// budget while the invocation is in flight.
struct AdmissionRequest {
  uint64_t id = 0;
  size_t function_index = 0;
  ByteCount predicted_bytes;
  SimTime arrival;
};

class AdmissionController {
 public:
  struct Hooks {
    // Dispatch: start the invocation now; the owner must call OnComplete with
    // the same request when it finishes. Second arg is the queue wait.
    std::function<void(const AdmissionRequest&, Duration)> run;
    // Typed shed; fires at most once per offered request, synchronously at
    // offer time (kShedQueueFull) or when the deadline event lands
    // (kShedDeadline). Third arg is the time spent waiting.
    std::function<void(const AdmissionRequest&, InvocationOutcome, Duration)> shed;
    // Bytes pinned outside this controller's accounting — the idle warm pool.
    // May be null (counts as 0).
    std::function<ByteCount()> pinned_bytes;
    // Asks the owner to unpin bytes (evict idle warm VMs) so a restore fits.
    // Best effort; may be null.
    std::function<void(ByteCount)> make_room;
  };

  struct Stats {
    int64_t offered = 0;
    int64_t admitted = 0;  // hooks.run fired (immediately or from the queue)
    int64_t queued = 0;    // admitted after a non-zero queue wait
    int64_t shed_queue_full = 0;
    int64_t shed_deadline = 0;
    int64_t fairness_deferrals = 0;  // dispatch scans that skipped a capped function
    int max_in_flight = 0;
    size_t max_queue_depth = 0;
  };

  AdmissionController(Simulation* sim, AdmissionConfig config, Hooks hooks);

  // Offers one arrival at sim->now(). Exactly one of hooks.run / hooks.shed
  // eventually fires for it (run may fire synchronously inside Offer).
  void Offer(AdmissionRequest request);

  // Releases the slot and bytes of a dispatched request and admits queued
  // arrivals that now fit.
  void OnComplete(const AdmissionRequest& request);

  // Scales the effective memory budget (chaos memory-squeeze windows). 1.0
  // restores the configured budget.
  void set_budget_scale(double scale) { budget_scale_ = scale; }

  int in_flight() const { return in_flight_; }
  size_t queue_depth() const { return queue_.size(); }
  ByteCount committed_bytes() const { return committed_bytes_; }
  // (committed + pinned) / effective budget; 0 when memory admission is off.
  double memory_utilization() const;
  const Stats& stats() const { return stats_; }

 private:
  struct QueuedRequest {
    AdmissionRequest request;
  };

  ByteCount effective_budget() const;
  bool AtFairnessCap(size_t function_index) const;
  bool MemoryFits(ByteCount predicted_bytes);
  void Admit(const AdmissionRequest& request);
  // Dispatches queued requests in FIFO order; fairness- or memory-blocked
  // entries are skipped so an eligible later arrival is not head-blocked (the
  // skipped entry keeps its place and its deadline).
  void TryDispatch();
  void OnDeadline(uint64_t id);

  Simulation* sim_;
  AdmissionConfig config_;
  Hooks hooks_;
  std::deque<QueuedRequest> queue_;
  std::vector<int64_t> per_function_in_flight_;  // grown on demand
  int in_flight_ = 0;
  ByteCount committed_bytes_;
  double budget_scale_ = 1.0;
  Stats stats_;
};

struct PressureLadderConfig {
  // Entry thresholds for levels 1..3 and the lower exit thresholds below
  // which the level falls back — the hysteresis band that keeps a host from
  // flapping between degrading and recovering at a boundary.
  double enter[3] = {0.70, 0.85, 0.95};
  double exit[3] = {0.55, 0.75, 0.88};
  // Disk demand backlog (accepted-not-completed demand reads) treated as 100%
  // pressure; the signal is max(memory utilization, demand / this).
  int demand_pressure_full = 16;
  // L1+: readahead window scale and prefetch pipeline-depth cap.
  double l1_readahead_scale = 0.5;
  int l1_loader_depth_cap = 2;
  // L3: keep-alive horizon scale (idle warm VMs reclaimed this much sooner).
  double l3_keep_warm_scale = 0.25;
};

class PressureLadder {
 public:
  explicit PressureLadder(PressureLadderConfig config);

  // Re-evaluates the level from the current memory utilization (committed +
  // pinned over budget) and the disk demand backlog; returns the new level
  // (0 = healthy .. 3). Call on every arrival and completion.
  int Update(double memory_utilization, int demand_pressure);

  int level() const { return level_; }
  int max_level() const { return max_level_; }
  int64_t transitions() const { return transitions_; }

  // Ladder rung knobs at the current level.
  double readahead_scale() const { return level_ >= 1 ? config_.l1_readahead_scale : 1.0; }
  int loader_depth_cap() const { return level_ >= 1 ? config_.l1_loader_depth_cap : 0; }
  bool demote_restore_mode() const { return level_ >= 2; }
  double keep_warm_scale() const { return level_ >= 3 ? config_.l3_keep_warm_scale : 1.0; }

 private:
  PressureLadderConfig config_;
  int level_ = 0;
  int max_level_ = 0;
  int64_t transitions_ = 0;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_RUNTIME_ADMISSION_H_
