// Block device model with a two-class request scheduler.
//
// The paper's measurements are dominated by the contrast between small scattered
// reads (on-demand page faults) and large sequential reads (working/loading set
// prefetch), plus disk saturation under bursty load. We model a device with three
// first-class constraints, each of which produces one of those behaviors:
//
//   * per-request base latency  — the fixed cost every read pays (device + kernel
//     block layer). A blocking single-fault stream is limited by this.
//   * an IOPS serializer        — device-wide token stream at `iops` requests/sec;
//     high-queue-depth random 4 KiB reads saturate here.
//   * a bandwidth serializer    — device-wide token stream at `bandwidth` bytes/sec;
//     large sequential reads saturate here.
//
// completion = max(iops_ready, bw_ready) + base_latency, where the two serializers
// advance device-wide "busy until" clocks. This reproduces, with one mechanism,
// both the paper's NVMe profile (1589 MB/s, 285 kIOPS, tens of us latency) and the
// EBS io2 profile (1 GB/s, 64 kIOPS, sub-ms latency).
//
// Scheduling: the serializers used to be claimed at issue time in strict FIFO
// order, so a 2 MiB loader chunk issued one tick before a 4 KiB demand fault
// delayed that fault by the full transfer time — exactly the prefetch/demand
// contention section 4.2 is about. Reads now enter a per-class queue (ReadClass
// in read_class.h) and at most `DiskSchedConfig::queue_depth` device requests
// claim the serializers at dispatch time:
//
//   * demand reads jump queued prefetch, unless the prefetch at the head has
//     waited past `prefetch_aging_bound` (aged prefetch dispatches first, so
//     prefetch can be delayed but never starved);
//   * adjacent queued requests of the same class and stream coalesce into one
//     device request up to `max_merge_bytes` (one serializer claim, one
//     completion; per-caller callbacks and spans are preserved);
//   * ties break by insertion order, and everything runs on the simulation
//     clock, so same-seed runs stay bit-identical.
//
// With the default queue depth the serializers never idle while work is queued,
// so an uncontended single-class load completes at exactly the same times as
// the old issue-time model; only the interleaving under cross-class contention
// changes. BENCH_scheduler.json records the measured A/B against that retired
// FIFO model.
//
// Optional multiplicative jitter (deterministic, seeded) produces the run-to-run
// variance reported as error bars in the figures.

#ifndef FAASNAP_SRC_STORAGE_BLOCK_DEVICE_H_
#define FAASNAP_SRC_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/units.h"
#include "src/common/status.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_tracer.h"
#include "src/sim/simulation.h"
#include "src/storage/read_class.h"

namespace faasnap {

class FaultInjector;

// Scheduler knobs. Defaults keep uncontended completion times identical to the
// legacy issue-time model while letting demand jump prefetch under contention.
struct DiskSchedConfig {
  // Device requests allowed to hold serializer claims concurrently; >= 1.
  // Queued requests dispatch as slots free up, demand first.
  uint32_t queue_depth = 32;
  // Of those slots, at most this many may hold prefetch batches (clamped to
  // >= 1; >= queue_depth disables the cap). Dispatched batches have already
  // claimed the bandwidth serializer, so queue priority alone cannot help a
  // fault that arrives behind a deep prefetch train — keeping the device-side
  // prefetch share short is what bounds demand latency. Two-plus slots of
  // 256 KiB+ batches keep the bandwidth serializer saturated, so prefetch
  // throughput is preserved.
  uint32_t prefetch_slots = 8;
  // A queued prefetch request that has waited this long dispatches ahead of
  // demand — the starvation bound. Promotions alternate with demand: after an
  // aged prefetch wins a contested slot, the next contested slot goes back to
  // demand, so a deep aged prefetch backlog cannot invert the priority.
  Duration prefetch_aging_bound = Duration::Millis(2);
  // Adjacent queued requests (same class, same stream, contiguous offsets)
  // coalesce into one device request up to this many bytes. 0 disables merging.
  // The cap also bounds per-batch bandwidth claims (and therefore how far one
  // batch can push out a demand fault), so it is deliberately modest.
  ByteCount max_merge_bytes = MiB(1);
};

// Static description of a device. See device_profiles.h for the two profiles used
// in the paper's evaluation.
struct BlockDeviceProfile {
  std::string name;
  Duration base_latency;          // fixed per-request service latency
  uint64_t bandwidth_bytes_per_s; // sustained sequential throughput
  uint64_t iops;                  // sustained small-random-read rate
  double jitter = 0.0;            // +/- fraction of uniform noise on completion time
  DiskSchedConfig sched;
};

// Cumulative device counters, cheap to copy for before/after deltas.
// Counters subtract element-wise in operator-; the max_* fields are watermarks
// since the last ResetStats (a delta keeps the left-hand watermark).
struct BlockDeviceStats {
  uint64_t read_requests = 0;      // caller-visible reads (merged constituents each count)
  uint64_t bytes_read = 0;
  uint64_t demand_requests = 0;    // read_requests by class
  uint64_t prefetch_requests = 0;
  uint64_t merged_requests = 0;    // requests coalesced into an earlier dispatch
  uint64_t aged_promotions = 0;    // prefetch dispatches forced by the aging bound
  uint64_t failed_requests = 0;    // injected failures (chaos only)
  Duration demand_wait_ns;         // total enqueue->dispatch wait by class
  Duration prefetch_wait_ns;
  Duration max_demand_wait_ns;
  Duration max_prefetch_wait_ns;

  BlockDeviceStats operator-(const BlockDeviceStats& other) const {
    BlockDeviceStats d = *this;
    d.read_requests -= other.read_requests;
    d.bytes_read -= other.bytes_read;
    d.demand_requests -= other.demand_requests;
    d.prefetch_requests -= other.prefetch_requests;
    d.merged_requests -= other.merged_requests;
    d.aged_promotions -= other.aged_promotions;
    d.failed_requests -= other.failed_requests;
    d.demand_wait_ns -= other.demand_wait_ns;
    d.prefetch_wait_ns -= other.prefetch_wait_ns;
    return d;
  }
};

// Per-read scheduling inputs for the class-aware overload.
struct DeviceReadOptions {
  ReadClass read_class = ReadClass::kDemand;
  // Merge key: only reads from the same stream (the router passes the file id)
  // coalesce, so offset-adjacent reads of unrelated files never merge.
  uint64_t stream = 0;
  // Links the recorded disk-read span to the causing span (a fault, a loader
  // chunk, REAP's fetch); ignored when tracing is off.
  SpanId parent = kNoSpan;
};

class BlockDevice {
 public:
  // `sim` must outlive the device. `seed` drives latency jitter only. The
  // profile's queue depth must be >= 1.
  BlockDevice(Simulation* sim, BlockDeviceProfile profile, uint64_t seed = 1);

  // Issues an asynchronous read of `bytes` at `offset` (offset is for accounting
  // and merge adjacency), queued under `options`' class. `done(status)` fires on
  // the simulation clock with OkStatus() when the data is available, or with the
  // injected failure when a fault injector is attached and fires. A failed
  // request occupies a request slot and pays the fixed per-request latency but
  // transfers no data — and releases its scheduler slot like any other
  // completion, so chaos cannot wedge the queue.
  void Read(uint64_t offset, uint64_t bytes, const DeviceReadOptions& options,
            std::function<void(Status)> done);

  // Attaches deterministic fault injection. `device_ordinal` is the router's
  // ordinal for this device (0 = local); it selects the injector's per-device
  // decision stream and marks non-local devices as outage-prone. Null detaches;
  // detached cost is one branch per dispatch. A merged device request draws one
  // decision; every constituent callback sees the same status.
  void set_fault_injector(FaultInjector* injector, uint32_t device_ordinal) {
    injector_ = injector;
    device_ordinal_ = device_ordinal;
  }

  // Attaches tracing/metrics: every read records a disk-read span on the disk
  // lane (enqueue -> completion, offset/bytes args) and updates request/byte
  // counters, a queue-depth gauge, per-class queued gauges, and per-class
  // enqueue->dispatch wait histograms. Null pointers detach; cost when detached
  // is one branch per read. Attaching mid-flight seeds the gauges from live
  // queue state.
  void set_observability(SpanTracer* spans, MetricsRegistry* metrics);

  // Time a read dispatched *now* would complete, without issuing it. Ignores
  // queued work, so with a non-empty queue this is a lower bound. Used by tests
  // and the keepalive cost model.
  SimTime EstimateCompletion(uint64_t bytes) const;

  const BlockDeviceProfile& profile() const { return profile_; }
  const BlockDeviceStats& stats() const { return stats_; }

  // Clears cumulative counters and wait watermarks. Live scheduling state
  // (queues, in-service requests, the queue-depth gauge) is intentionally
  // untouched: resetting mid-flight must not corrupt accounting of reads that
  // are still outstanding.
  void ResetStats() { stats_ = BlockDeviceStats{}; }

  // Takes `source`'s jitter stream, serializer horizons, stats and aged-prefetch
  // debt, so both devices serve the same future reads identically. `source`
  // must be idle (no request accepted and not completed); this device keeps
  // its own simulation, fault injector and observability attachments.
  void CopyStateFrom(const BlockDevice& source);

  // Live queue state, used by the router's demand-pressure surface and tests.
  int queued(ReadClass cls) const { return static_cast<int>(queue_[static_cast<int>(cls)].size()); }
  int in_service(ReadClass cls) const { return in_service_reqs_[static_cast<int>(cls)]; }
  // Demand reads accepted but not yet completed (queued + in service).
  int demand_pressure() const {
    return queued(ReadClass::kDemand) + in_service(ReadClass::kDemand);
  }

 private:
  // One caller-visible read waiting to dispatch (or being serviced).
  struct Request {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint64_t stream = 0;
    ReadClass cls = ReadClass::kDemand;
    SimTime enqueued;
    SpanId parent = kNoSpan;
    std::function<void(Status)> done;
  };

  // The shared two-serializer model: where a request dispatched at `start`
  // would land. Failed requests occupy an IOPS slot and pay base latency but
  // move no data (transfers_data = false leaves the bandwidth serializer out).
  struct CompletionPlan {
    SimTime iops_ready;
    SimTime bw_ready;
    SimTime completion;
  };
  CompletionPlan PlanCompletion(uint64_t bytes, SimTime start, bool transfers_data) const;

  Duration TransferTime(uint64_t bytes) const;
  Duration IopsInterval() const;
  SimTime ApplyJitter(SimTime start, SimTime completion);

  void Enqueue(Request request);
  // Claims the serializers for one device request (a batch of >= 1 merged
  // caller requests of one class) and schedules its completion.
  void Dispatch(std::vector<Request> batch);
  // Fills free slots from the queues: demand first unless the prefetch head
  // has aged past the bound; coalesces the contiguous same-stream run behind
  // the chosen head.
  void TryDispatch();
  void UpdateQueueGauges();

  Simulation* sim_;
  BlockDeviceProfile profile_;
  Rng rng_;
  SimTime iops_busy_until_;
  SimTime bw_busy_until_;
  BlockDeviceStats stats_;

  std::deque<Request> queue_[kReadClassCount];
  uint32_t in_service_ = 0;                       // device requests holding a slot
  int in_service_reqs_[kReadClassCount] = {0, 0}; // caller requests in service, by class
  uint32_t in_service_batches_[kReadClassCount] = {0, 0}; // device requests (slots), by class
  bool demand_owed_ = false;                      // last contested slot went to aged prefetch
  int outstanding_ = 0;                           // caller requests accepted, not completed

  FaultInjector* injector_ = nullptr;
  uint32_t device_ordinal_ = 0;

  SpanTracer* spans_ = nullptr;
  uint32_t disk_read_name_ = 0;  // pre-interned obsname::kDiskRead
  Counter* read_requests_metric_ = nullptr;
  Counter* bytes_read_metric_ = nullptr;
  Counter* merged_metric_ = nullptr;
  Counter* promoted_metric_ = nullptr;
  Gauge* queue_depth_metric_ = nullptr;
  Gauge* queued_metric_[kReadClassCount] = {nullptr, nullptr};
  Log2Histogram* wait_metric_[kReadClassCount] = {nullptr, nullptr};
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_STORAGE_BLOCK_DEVICE_H_
