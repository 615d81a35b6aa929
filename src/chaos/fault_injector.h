// Deterministic fault injection for the restore pipeline.
//
// A FaultInjector is a seeded source of failures: device read errors and latency
// spikes, remote-device outage windows, loader-thread stalls, and corrupt
// snapshot files. Every decision is drawn from SplitMix64 streams derived from a
// single seed, so the same seed yields the same fault schedule and bit-identical
// reports — chaos runs are as reproducible as fault-free ones.
//
// Each injection site holds a FaultInjector* that is null when chaos is off; the
// disabled cost is one branch per site, the same discipline as the span tracer.
// Per-device decisions come from per-device forked streams (seeded by device
// ordinal) and per-file corruption from a hash-seeded throwaway stream, so
// decisions do not depend on the order in which sites consult the injector.

#ifndef FAASNAP_SRC_CHAOS_FAULT_INJECTOR_H_
#define FAASNAP_SRC_CHAOS_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/obs/metrics_registry.h"
#include "src/sim/simulation.h"

namespace faasnap {

struct ChaosConfig {
  bool enabled = false;
  uint64_t seed = 0xC4A05;

  // Per-read probability that a device read fails with IO_ERROR.
  double read_error_rate = 0.0;
  // Per-read probability of an injected latency spike, and its size.
  double read_delay_rate = 0.0;
  Duration read_delay = Duration::Millis(2);

  // Per-file probability (decided once per file, at registration) that a
  // snapshot file is corrupt: its checksum validation fails at load.
  double corrupt_file_rate = 0.0;

  // Per-chunk probability that the prefetch loader thread stalls before
  // issuing the chunk, and the stall length.
  double loader_stall_rate = 0.0;
  Duration loader_stall = Duration::Millis(1);

  // Remote-device outage process: outage windows of `remote_outage_duration`
  // recur with exponentially distributed gaps of mean `remote_outage_mean_gap`.
  // Zero mean gap disables outages. Reads on non-local devices inside a window
  // fail immediately with UNAVAILABLE.
  Duration remote_outage_mean_gap = Duration::Zero();
  Duration remote_outage_duration = Duration::Millis(5);

  // Overload windows for open-loop serving. Burst windows multiply the
  // offered arrival rate — inter-arrival gaps divide by
  // `burst_arrival_multiplier` while a window is active — and recur with
  // exponentially distributed gaps of mean `burst_mean_gap` (zero disables).
  Duration burst_mean_gap = Duration::Zero();
  Duration burst_duration = Duration::Millis(50);
  double burst_arrival_multiplier = 4.0;
  // Memory-squeeze windows shrink the admission controller's memory budget to
  // `squeeze_budget_fraction` of its configured value, recurring likewise.
  Duration squeeze_mean_gap = Duration::Zero();
  Duration squeeze_duration = Duration::Millis(50);
  double squeeze_budget_fraction = 0.5;

  // When true (default), injection is disarmed while the platform records a
  // snapshot: the fault model targets the restore path, not offline snapshot
  // preparation. File corruption is unaffected (it is decided per file id).
  bool spare_record_phase = true;
};

class FaultInjector {
 public:
  FaultInjector(Simulation* sim, ChaosConfig config);

  // Consulted by BlockDevice on every read when attached. `device` is the
  // router ordinal (0 = local). A non-OK status means the read fails after the
  // device's fixed per-request latency; extra_latency delays an otherwise
  // successful completion.
  struct ReadFault {
    Status status;
    Duration extra_latency;
  };
  ReadFault OnDeviceRead(uint32_t device, const std::string& device_name);

  // Decided once per file id, independent of query order. Consulted by
  // SnapshotStore at registration.
  bool CorruptFile(uint32_t file_id);

  // Stall length to insert before the loader issues its next chunk
  // (Duration::Zero() = no stall).
  Duration NextLoaderStall();

  // Open-loop arrival-gap divisor at `now`: `burst_arrival_multiplier` inside
  // a burst window, 1.0 outside (or with bursts disabled). Queries must be
  // made at non-decreasing times (the window process renews lazily).
  double ArrivalMultiplier(SimTime now);

  // Fraction of the admission memory budget available at `now`:
  // `squeeze_budget_fraction` inside a squeeze window, 1.0 outside.
  double MemoryBudgetFraction(SimTime now);

  // Takes `source`'s decision streams, window processes and armed flag, so
  // both injectors make the same future decisions. The configs must match;
  // the simulation and metrics attachments stay this injector's own.
  void CopyStateFrom(const FaultInjector& source);

  // Disarms/rearms read-error, delay, outage, and stall injection (used to
  // spare the record phase). Corruption decisions are unaffected.
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

  const ChaosConfig& config() const { return config_; }

  // Registers chaos.injected{type=...} counters. Null detaches.
  void set_observability(MetricsRegistry* metrics);

 private:
  // A recurring window process: windows of fixed `duration` recur with
  // exponentially distributed gaps of mean `mean_gap`, renewed lazily as the
  // clock passes (decisions depend only on the seed and the query time).
  struct WindowProcess {
    Rng rng{0};
    Duration mean_gap;
    Duration duration;
    SimTime start;
    SimTime end;
    bool counted = false;  // current window already counted in chaos.injected
  };
  // Seeds the first window when the process is enabled (mean_gap > 0).
  static void InitWindow(WindowProcess* w);
  // True when `now` falls inside a window; `count_kind` >= 0 counts each
  // window once, on its first active query.
  bool WindowActive(WindowProcess* w, SimTime now, int count_kind);

  Rng& DeviceRng(uint32_t device);
  bool OutageActive(SimTime now);
  void Count(int which);

  Simulation* sim_;
  ChaosConfig config_;
  std::vector<Rng> device_rngs_;  // indexed by device ordinal, grown on demand
  Rng stall_rng_;

  WindowProcess outage_;
  WindowProcess burst_;
  WindowProcess squeeze_;

  bool armed_ = true;

  enum InjectedKind {
    kReadError = 0,
    kReadDelay,
    kOutageRead,
    kLoaderStall,
    kCorruptFile,
    kBurstWindow,
    kSqueezeWindow,
    kKindCount,
  };
  Counter* injected_[kKindCount] = {};
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_CHAOS_FAULT_INJECTOR_H_
