// Platform: the FaaSnap daemon plus the simulated host it runs on.
//
// Owns the simulation clock, the shared page cache, the snapshot storage device,
// the host CPU model, and the snapshot file store. Exposes the two phases of the
// paper's methodology (section 6.1):
//
//   Record(...)  — run a function once on a restored clean snapshot with the
//                  FaaSnap and REAP recorders attached; produce every snapshot
//                  artifact (Figure 5's record phase).
//   Invoke(...)  — restore under a chosen policy and invoke the function,
//                  returning a full InvocationReport (the test phase).
//
// InvokeAsync supports overlapping invocations on the same host for the bursty
// workloads of Figure 10.

#ifndef FAASNAP_SRC_RUNTIME_PLATFORM_H_
#define FAASNAP_SRC_RUNTIME_PLATFORM_H_

#include <functional>
#include <memory>

#include "src/chaos/fault_injector.h"
#include "src/core/function_snapshot.h"
#include "src/core/platform_config.h"
#include "src/obs/observability.h"
#include "src/restore/restore_policy.h"
#include "src/runtime/report.h"
#include "src/sim/cpu_model.h"
#include "src/sim/simulation.h"
#include "src/storage/storage_router.h"
#include "src/vm/vm.h"
#include "src/workloads/trace_generator.h"

namespace faasnap {

class Platform {
 public:
  explicit Platform(PlatformConfig config = {});

  // A host in the state of `source`, which must be quiescent: its event queue
  // is empty, no page-cache read is in flight and no observability is
  // attached (each is CHECKed). The copy takes everything Record moves — the
  // clock, page cache, snapshot files, device and chaos streams — so it
  // serves every later invocation exactly as `source` would. A cluster
  // records each function on one host and copies that host to the others.
  explicit Platform(const Platform& source);
  Platform& operator=(const Platform&) = delete;

  // Record phase (synchronous: drives the simulation to completion). Caches are
  // dropped afterwards, matching the paper's methodology.
  FunctionSnapshot Record(const TraceGenerator& generator, const WorkloadInput& input);

  // Test phase, synchronous single invocation.
  InvocationReport Invoke(const FunctionSnapshot& snapshot, RestoreMode mode,
                          const TraceGenerator& generator, const WorkloadInput& input);

  // Test phase, asynchronous: the invocation request arrives now; `done` fires on
  // the simulation clock when the function completes. The caller drives sim().
  void InvokeAsync(const FunctionSnapshot& snapshot, RestoreMode mode, InvocationTrace trace,
                   std::function<void(InvocationReport)> done);

  // Admission-layer shedding: the arrival was rejected (queue full) or dropped
  // (queueing deadline) before any restore work ran. Synthesizes the typed
  // report and feeds the same paths as a completed invocation — invoke span
  // covering [arrival_time, now] (all dispatch/queue time for critical-path
  // analysis), outcome counters, forensics non-ok retention, timeline — so
  // every arrival carries exactly one typed outcome. `outcome` must be
  // kShedQueueFull or kShedDeadline.
  InvocationReport ReportShed(const FunctionSnapshot& snapshot, RestoreMode requested_mode,
                              SimTime arrival_time, InvocationOutcome outcome, Status reason);

  // Pressure-driven degradation hook (the admission layer's ladder). While a
  // non-null overrides struct is attached, newly built invocations shrink
  // their readahead windows by `readahead_scale` and cap the prefetch
  // pipeline depth at `loader_depth_cap`. Null (the default) keeps the exact
  // legacy construction path; the struct must outlive its attachment.
  struct PressureOverrides {
    double readahead_scale = 1.0;  // (0, 1]: multiplies every window, floor 1 page
    int loader_depth_cap = 0;      // 0 = uncapped
  };
  void set_pressure_overrides(const PressureOverrides* pressure) { pressure_ = pressure; }

  // echo 3 > drop_caches between tests (section 6.1).
  void DropCaches();

  // Attaches the unified observability bundle for subsequent Record/Invoke
  // calls: spans on every actor lane (daemon, vCPU, loader, uffd, disk) plus
  // the metrics registry. Null detaches. The bundle must outlive the platform.
  //
  // When the bundle's flight recorder is configured, spans are recorded into
  // its recycling buffer instead of obs->spans (tail-based forensics replaces
  // full tracing); a configured timeline is advanced on the invocation
  // completion path so windows close on virtual time.
  void set_observability(Observability* obs) {
    forensics_ = obs != nullptr && obs->forensics.enabled() ? &obs->forensics : nullptr;
    timeline_ = obs != nullptr && obs->timeline.enabled() ? &obs->timeline : nullptr;
    SpanTracer* spans = nullptr;
    if (obs != nullptr) {
      spans = forensics_ != nullptr ? forensics_->buffer() : &obs->spans;
    }
    SetObservability(spans, obs != nullptr ? &obs->metrics : nullptr);
  }

  SpanTracer* spans() { return spans_; }
  MetricsRegistry* metrics() { return metrics_; }

  Simulation* sim() { return &sim_; }
  // The deterministic fault injector, or null when chaos is disabled.
  FaultInjector* chaos() { return chaos_.get(); }
  PageCache* cache() { return &cache_; }
  BlockDevice* disk() { return &local_disk_; }
  BlockDevice* remote_disk() { return remote_disk_.get(); }
  StorageRouter* storage() { return &storage_; }
  CpuModel* cpu() { return &cpu_; }
  SnapshotStore* store() { return &store_; }
  const PlatformConfig& config() const { return config_; }

 private:
  struct InvocationContext;

  // Combined read stats across local + remote devices.
  BlockDeviceStats CombinedDiskStats() const;
  // Places a newly registered file per the configured tier.
  void PlaceFile(FileId file, StorageTier tier);
  // Rewires the platform-owned components (storage, page cache) and records the
  // pointers handed to per-invocation components.
  void SetObservability(SpanTracer* spans, MetricsRegistry* metrics);
  // Pre-restore artifact validation: checks every snapshot file the requested
  // mode depends on. On a bad primary artifact, picks the fallback rung
  // (on-demand paging from the vanilla memory file) when that file is intact;
  // returns the validation error otherwise. `effective` is always set.
  Status PlanRestoreMode(const FunctionSnapshot& snapshot, RestoreMode requested,
                         RestoreMode* effective, Status* demotion_reason) const;
  // The head every invocation shares, shed or failed ones included: the
  // flight recorder's in-flight count, then the invoke span from
  // `request_time` with its dispatch child up to `dispatched`. Returns the
  // invoke span (kNoSpan untraced).
  SpanId BeginInvoke(SimTime request_time, SimTime dispatched);
  // The matching tail, at now: the outcome counter, the invoke span's end, the
  // flight recorder's retention decision and the timeline.
  void EndInvoke(SpanId invoke_span, SimTime request_time, const InvocationReport& report);

  PlatformConfig config_;
  Simulation sim_;
  SimTime daemon_busy_until_;
  PageCache cache_;
  BlockDevice local_disk_;
  std::unique_ptr<BlockDevice> remote_disk_;
  StorageRouter storage_;
  CpuModel cpu_;
  SnapshotStore store_;
  std::unique_ptr<FaultInjector> chaos_;
  SpanTracer* spans_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  FlightRecorder* forensics_ = nullptr;
  MetricsTimeline* timeline_ = nullptr;
  const PressureOverrides* pressure_ = nullptr;
  // Per-outcome invocation counters; registered only when chaos is enabled so
  // fault-free metrics snapshots stay identical to pre-chaos builds.
  Counter* outcome_counters_[kInvocationOutcomeCount] = {};
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_RUNTIME_PLATFORM_H_
