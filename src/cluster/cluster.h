// Sharded parallel cluster simulation: one Simulation per simulated host,
// advanced by worker threads under a conservative virtual-time barrier.
//
// Each host is a fully self-contained shard — its own Platform (Simulation,
// PageCache, disks, storage router) and its own HostScheduler open-loop
// engine. Shards never touch each other's state; the only cross-host channels
// are (a) arrivals routed into a shard's OfferAt queue and (b) the HostView
// snapshots the router reads. Both cross only at barriers on a grid of
// `sync_quantum` epochs starting where the records ended. The reference
// semantics is one barrier per grid point:
//
//   while arrivals remain or a shard is busy:
//     publish HostViews (serial, host-index order)         <- barrier
//     route every arrival with time < horizon, OfferAt     <- serial
//     ParallelFor shards: sim->RunUntil(horizon)           <- parallel region
//     horizon += sync_quantum
//
// Run computes exactly that, with far fewer barriers:
//
//   for each epoch holding an arrival (in time order):
//     every shard runs straight to the grid point opening it
//     publish HostViews, route the epoch's arrivals
//   drain: each shard steps its own grid until it is idle (one region)
//   every shard moves to the latest of those idle grid points
//
// This is exact because views are read only at barriers that route, because
// RunUntil(a); RunUntil(b) is RunUntil(b) when nothing is offered in between,
// and because a shard that is idle after the last arrival fired stays idle.
// A region dispatches only the shards with an event at or before its horizon
// (Simulation::HasEventAtOrBefore); the others only move their clocks, inline.
//
// Inside a region each shard runs its own single-threaded deterministic event
// loop; worker threads only change which shard's wall clock advances first,
// never any shard's event order. Routing consumes only barrier-published views
// plus the router's private RNG/counter, so the arrival->host assignment is a
// pure serial computation. Results are therefore bit-identical for any
// worker_threads value — pinned by cluster_determinism_test (1 vs 4 vs 8
// threads, byte-compared JSON) and by cluster_exactness_test, which compares
// Run with the one-barrier-per-quantum loop built from the public API.
//
// Hosts are identical, so each function is recorded once: AddFunction records
// on shard 0, and Run builds the other shards as copies of that quiescent host
// (Platform's copy constructor), sharing its immutable snapshots.
//
// The quantum trades fidelity granularity against barrier overhead: views lag
// reality by at most one quantum (as any real dispatcher's load signal lags),
// and a smaller quantum means fresher views but more routing barriers. It never
// affects per-shard event ordering — arrivals keep exact virtual times.

#ifndef FAASNAP_SRC_CLUSTER_CLUSTER_H_
#define FAASNAP_SRC_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/router.h"
#include "src/cluster/worker_pool.h"
#include "src/common/histogram.h"
#include "src/common/json_writer.h"
#include "src/runtime/host_scheduler.h"

namespace faasnap {

struct ClusterConfig {
  size_t hosts = 4;
  // Total worker threads for the parallel regions (including the caller);
  // <= 1 is the serial reference execution.
  int worker_threads = 1;
  // Barrier epoch length in virtual time.
  Duration sync_quantum = Duration::Millis(10);
  RouterConfig router;
  // Per-host serving engine; open_loop is forced on (the cluster drives the
  // incremental OfferAt API).
  HostSchedulerConfig host;
  PlatformConfig platform;
};

struct ClusterStats {
  // Sums over hosts.
  int64_t arrivals = 0;
  int64_t invocations = 0;
  int64_t warm_hits = 0;
  int64_t misses = 0;  // cold starts: restore or cold boot on arrival
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t evictions = 0;
  int64_t expirations = 0;
  int64_t pressure_demotions = 0;
  // Merged distributions (accepted work only for the histogram).
  RunningStats latency_ms;
  Log2Histogram accepted_latency{Duration::Micros(1), /*num_buckets=*/21};
  // Cluster resident-memory footprint: sum of each host's time-averaged
  // pinned bytes (keep-alive pool + in-flight restores).
  double avg_resident_bytes = 0;
  Duration span;        // max host span (virtual makespan)
  // Grid quanta from the end of the records to the first grid point where
  // every shard is idle: the barrier count of the one-barrier-per-quantum loop.
  size_t epochs = 0;
  // Parallel regions actually dispatched (wall-clock cost, not simulated
  // output; kept out of AppendJson). Deterministic: which shards a region
  // takes is decided serially.
  size_t barriers = 0;
  RouterStats routing;
  std::vector<HostSchedulerStats> per_host;  // host-index order

  int64_t shed() const { return shed_queue_full + shed_deadline; }
  double cold_start_rate() const {
    return invocations == 0 ? 0.0
                            : static_cast<double>(misses) / static_cast<double>(invocations);
  }
  Duration p99_accepted() const { return accepted_latency.EstimateQuantile(0.99); }

  // Merges one host's statistics. Call in host-index order: the double sums
  // are deterministic only in a fixed order.
  void AddHost(HostSchedulerStats host);

  // Deterministic summary document (virtual-time quantities only — no wall
  // clock), for byte-comparison across worker-thread counts and in the
  // perf-gate's same-seed diff.
  void AppendJson(JsonWriter* w) const;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(ClusterConfig config);
  ~ClusterSimulator();

  // Registers `spec` on every host and returns its function index. The record
  // phase runs once, on shard 0; Run gives every other host a copy of it.
  // Call before Run.
  size_t AddFunction(const FunctionSpec& spec);

  // Serves the schedule (gaps relative to the cluster epoch, Zipf/mix output
  // from SampleArrivalMix) and returns merged statistics. One shot: the
  // simulator is spent after Run.
  ClusterStats Run(const std::vector<Arrival>& arrivals);

 private:
  struct Shard;

  // Publishes the barrier-epoch view of every shard, host-index order.
  void SnapshotViews(std::vector<HostView>* views) const;
  // Runs step(i) for every shard: inline where busy(i) is false, and in one
  // parallel region (counted in stats->barriers) for the rest.
  void ForEachShard(const std::function<bool(size_t)>& busy,
                    const std::function<void(size_t)>& step, ClusterStats* stats);
  // Every shard's RunUntil(horizon); only shards with an event at or before
  // the horizon enter the parallel region.
  void RunShardsUntil(SimTime horizon, ClusterStats* stats);

  ClusterConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ClusterRouter router_;
  WorkerPool pool_;
  bool ran_ = false;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_CLUSTER_CLUSTER_H_
