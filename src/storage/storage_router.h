// StorageRouter: routes per-file reads to one of several block devices.
//
// Section 7.2 proposes tiered snapshot storage: "storing relatively small loading
// set files on local SSD and larger memory files on remote storage to reduce
// storage costs while satisfying the performance requirements of reading loading
// sets." The router makes file placement a first-class decision: every file is
// assigned to a device; the fault engine, prefetch loader, and REAP fetcher read
// through the router without knowing where a file lives.
//
// With a fault injector attached (ConfigureFaultHandling), ReadWithStatus is the
// failure-aware entry point: each read gets a per-attempt deadline, capped
// exponential retry/backoff, a per-device circuit breaker, and remote→local
// failover, and completes with a typed Status — never silently, never twice.
// With no injector attached, ReadWithStatus is a single direct device read, so
// the machinery is zero-cost when chaos is off.

#ifndef FAASNAP_SRC_STORAGE_STORAGE_ROUTER_H_
#define FAASNAP_SRC_STORAGE_STORAGE_ROUTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/storage/block_device.h"
#include "src/storage/read_class.h"

namespace faasnap {

class FaultInjector;
class Simulation;

// Index into the router's device table.
using DeviceId = uint32_t;
inline constexpr DeviceId kLocalDevice = 0;

// Failure-handling knobs for ReadWithStatus. Active only while a fault injector
// is attached to the router.
struct StorageFaultPolicy {
  // Total attempts per device (first try + retries).
  int max_attempts = 4;
  // Backoff before attempt n is initial_backoff * multiplier^(n-2), capped.
  Duration initial_backoff = Duration::Micros(200);
  double backoff_multiplier = 2.0;
  Duration max_backoff = Duration::Millis(10);
  // Per-attempt deadline; an attempt still in flight when it expires completes
  // with DEADLINE_EXCEEDED (the late device completion is discarded). Zero
  // disables deadlines.
  Duration read_deadline = Duration::Millis(40);
  // Circuit breaker: after this many consecutive failures a device's breaker
  // opens for `breaker_open_for`; reads fail fast while open, then one
  // half-open probe decides whether it closes or re-opens.
  int breaker_failure_threshold = 4;
  Duration breaker_open_for = Duration::Millis(20);
  // Whether a read that exhausts its attempts on a non-local device retries
  // once more on the local replica (device 0).
  bool failover_to_local = true;
};

// Cumulative fault-handling counters, cheap to copy for before/after deltas.
struct StorageFaultStats {
  uint64_t retries = 0;
  uint64_t failovers = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_fast_fails = 0;
  uint64_t failed_reads = 0;  // reads that completed with a non-OK status
};

class StorageRouter {
 public:
  StorageRouter() = default;
  StorageRouter(const StorageRouter&) = delete;
  StorageRouter& operator=(const StorageRouter&) = delete;

  // Registers a device; the first one becomes the default for unassigned files.
  // Devices must outlive the router.
  DeviceId AddDevice(BlockDevice* device);

  // Places `file` on `device_id`. Unassigned files use device 0.
  void AssignFile(FileId file, DeviceId device_id);

  DeviceId DeviceFor(FileId file) const;
  BlockDevice* device(DeviceId id) const;
  size_t device_count() const { return devices_.size(); }

  // Issues an asynchronous read of `bytes` at `offset` within `file`, on the
  // device the file is placed on. `done(status)` fires exactly once on the
  // simulation clock, with OkStatus() on success or a typed error once
  // deadlines, retries, the circuit breaker, and failover are exhausted (see
  // StorageFaultPolicy). `parent` links the device's disk-read span to the
  // causing span. `cls` is the scheduling class the device queues the read
  // under (read_class.h); the file id doubles as the device-level merge
  // stream, so adjacent reads of one file coalesce but reads of unrelated
  // files never do.
  using ReadCallback = std::function<void(Status)>;
  void ReadWithStatus(FileId file, uint64_t offset, uint64_t bytes, ReadCallback done,
                      SpanId parent = kNoSpan, ReadClass cls = ReadClass::kDemand);

  // Demand reads accepted but not yet completed, summed over all devices. The
  // prefetch loader polls this to throttle its pipeline while the guest is
  // blocked on disk (see PrefetchConfig::adaptive_depth).
  int DemandPressure() const;

  // Attaches the retry/breaker/failover machinery. `sim` must outlive the
  // router; `injector` may be null, which leaves ReadWithStatus as a plain
  // forwarding read. Call before issuing reads.
  void ConfigureFaultHandling(Simulation* sim, FaultInjector* injector,
                              StorageFaultPolicy policy);

  // Takes `source`'s file placement, breaker states and fault stats. Both
  // routers must front the same number of devices, each keeping its own; the
  // caller guarantees no read is in flight on either.
  void CopyStateFrom(const StorageRouter& source) FAASNAP_EXCLUDES(mu_);

  // Copy under the lock: cheap POD, safe for before/after deltas while reads
  // are still settling.
  StorageFaultStats fault_stats() const FAASNAP_EXCLUDES(mu_);

  // Attaches tracing/metrics to every registered device (and, via
  // routed-read counters, to the router itself). Call after AddDevice and
  // ConfigureFaultHandling.
  void set_observability(SpanTracer* spans, MetricsRegistry* metrics);

 private:
  struct PendingRead;
  struct Breaker {
    int consecutive_failures = 0;
    bool open = false;
    SimTime open_until;
  };

  // All callback invocations (device reads, done callbacks, span emission)
  // happen with mu_ released; the lock only brackets breaker/stat mutations.
  void Attempt(std::shared_ptr<PendingRead> req) FAASNAP_EXCLUDES(mu_);
  void OnAttemptComplete(std::shared_ptr<PendingRead> req, uint64_t generation, Status status)
      FAASNAP_EXCLUDES(mu_);
  void HandleFailure(std::shared_ptr<PendingRead> req, Status status) FAASNAP_EXCLUDES(mu_);
  void FinishRead(std::shared_ptr<PendingRead> req, Status status);
  void RecordDeviceSuccess(DeviceId device) FAASNAP_EXCLUDES(mu_);
  void RecordDeviceFailure(DeviceId device) FAASNAP_EXCLUDES(mu_);
  Duration BackoffBefore(int attempt) const;

  // Topology and policy are fixed during setup (AddDevice/AssignFile/
  // ConfigureFaultHandling precede the first read) and read-only afterwards,
  // so they carry no guard; only the per-read mutable state does.
  std::vector<BlockDevice*> devices_;
  std::map<FileId, DeviceId> placement_;

  Simulation* sim_ = nullptr;
  FaultInjector* injector_ = nullptr;
  StorageFaultPolicy policy_;
  mutable Mutex mu_;
  std::vector<Breaker> breakers_ FAASNAP_GUARDED_BY(mu_);  // parallel to devices_
  StorageFaultStats fault_stats_ FAASNAP_GUARDED_BY(mu_);

  // Reads routed per device tier ({tier=local|remote}); null when detached.
  Counter* routed_local_ = nullptr;
  Counter* routed_remote_ = nullptr;
  // Fault-handling metrics; registered only while an injector is attached so
  // fault-free runs keep an identical metrics snapshot.
  Counter* retries_metric_ = nullptr;
  Counter* failovers_metric_ = nullptr;
  Counter* breaker_opens_metric_ = nullptr;
  Counter* read_failures_metric_ = nullptr;
  Log2Histogram* retry_latency_metric_ = nullptr;
  SpanTracer* spans_ = nullptr;
  uint32_t retry_name_ = 0;  // pre-interned obsname::kStorageRetry
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_STORAGE_STORAGE_ROUTER_H_
