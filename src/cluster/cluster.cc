#include "src/cluster/cluster.h"

#include <algorithm>
#include <utility>

namespace faasnap {

// A shard is one simulated host: private Platform (its own Simulation, page
// cache, disks) plus the open-loop serving engine. Worker threads own at most
// one shard at a time inside a parallel region, so no locking is needed here.
struct ClusterSimulator::Shard {
  explicit Shard(const ClusterConfig& config)
      : platform(config.platform), scheduler(&platform, config.host) {}
  // A copy of a quiescent `source` (see Platform's copy constructor).
  explicit Shard(const Shard& source)
      : platform(source.platform), scheduler(&platform, source.scheduler) {}

  Platform platform;
  HostScheduler scheduler;
};

ClusterSimulator::ClusterSimulator(ClusterConfig config)
    : config_([&config] {
        config.host.open_loop = true;  // the cluster drives OfferAt directly
        return config;
      }()),
      router_(config_.router),
      pool_(config_.worker_threads) {
  FAASNAP_CHECK(config_.hosts > 0);
  FAASNAP_CHECK(config_.sync_quantum > Duration::Zero());
  // Shard 0 records every function; Run copies it to the other hosts.
  shards_.push_back(std::make_unique<Shard>(config_));
}

ClusterSimulator::~ClusterSimulator() = default;

size_t ClusterSimulator::AddFunction(const FunctionSpec& spec) {
  FAASNAP_CHECK(!ran_);
  return shards_[0]->scheduler.AddFunction(spec);
}

void ClusterSimulator::SnapshotViews(std::vector<HostView>* views) const {
  views->clear();
  views->reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    HostView view;
    view.outstanding = shard->scheduler.OutstandingLoad();
    view.pool_bytes = shard->scheduler.pool_bytes();
    view.pool_budget = shard->scheduler.pool_budget();
    const size_t functions = shard->scheduler.function_count();
    view.residency.reserve(functions);
    for (size_t f = 0; f < functions; ++f) {
      view.residency.push_back(shard->scheduler.FunctionWarm(f) ? FunctionResidency::kWarm
                               : shard->scheduler.FunctionEverServed(f)
                                   ? FunctionResidency::kCached
                                   : FunctionResidency::kCold);
    }
    views->push_back(std::move(view));
  }
}

void ClusterSimulator::ForEachShard(const std::function<bool(size_t)>& busy,
                                    const std::function<void(size_t)>& step,
                                    ClusterStats* stats) {
  std::vector<size_t> dispatched;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (busy(i)) {
      dispatched.push_back(i);
    } else {
      step(i);
    }
  }
  if (!dispatched.empty()) {
    pool_.ParallelFor(dispatched.size(), [&](size_t k) { step(dispatched[k]); });
    ++stats->barriers;
  }
}

void ClusterSimulator::RunShardsUntil(SimTime horizon, ClusterStats* stats) {
  ForEachShard(
      [&](size_t i) { return shards_[i]->platform.sim()->HasEventAtOrBefore(horizon); },
      [&](size_t i) { shards_[i]->platform.sim()->RunUntil(horizon); }, stats);
}

ClusterStats ClusterSimulator::Run(const std::vector<Arrival>& arrivals) {
  FAASNAP_CHECK(!ran_);
  ran_ = true;
  const size_t functions = shards_[0]->scheduler.function_count();
  FAASNAP_CHECK(functions > 0);

  // Every other host starts as a copy of shard 0, which has recorded every
  // function and is quiescent: identical hosts would have recorded
  // identically, so each copy is the state its own records would have left.
  while (shards_.size() < config_.hosts) {
    shards_.push_back(std::make_unique<Shard>(*shards_[0]));
  }
  const SimTime base = shards_[0]->platform.sim()->now();

  // Cluster-level arrivals carry no per-host chaos compression (chaos windows
  // are host-local and apply to what each host serves, not to what the
  // outside world offers).
  const std::vector<TimedArrival> schedule = BuildOpenLoopSchedule(arrivals, base, nullptr);
  for (const TimedArrival& timed : schedule) {
    FAASNAP_CHECK(timed.function_index < functions);
  }

  // Predicted per-function working sets for the router's budget-fit pass;
  // identical on every shard, read from shard 0.
  std::vector<ByteCount> ws_bytes(functions);
  for (size_t f = 0; f < functions; ++f) {
    ws_bytes[f] = PagesToBytes(
        PageCount::FromPages(shards_[0]->scheduler.snapshot(f).record_touched.page_count()));
  }

  ClusterStats stats;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->scheduler.BeginOpenLoop();
  }

  const Duration quantum = config_.sync_quantum;
  // The grid point that opens the epoch holding `t`.
  const auto epoch_start = [&](SimTime t) {
    return base + quantum * ((t - base).nanos() / quantum.nanos());
  };

  // Routing barriers: only the grid points that open an epoch holding an
  // arrival. Between two of them every shard runs straight through, which is
  // RunUntil over the skipped grid points in one call.
  size_t next = 0;
  SimTime horizon = base;
  std::vector<HostView> views;
  while (next < schedule.size()) {
    horizon = epoch_start(schedule[next].at);
    RunShardsUntil(horizon, &stats);

    // Barrier: publish views, route this epoch's arrivals (serial, pure).
    // Routed-but-unconfirmed arrivals bump the view's outstanding count so a
    // burst inside one epoch spreads instead of piling onto the host that
    // looked emptiest at the barrier.
    SnapshotViews(&views);
    while (next < schedule.size() && schedule[next].at < horizon + quantum) {
      const size_t function_index = schedule[next].function_index;
      const size_t host = router_.Route(function_index, ws_bytes[function_index], views);
      views[host].outstanding++;
      shards_[host]->scheduler.OfferAt(function_index, schedule[next].at);
      ++next;
    }
  }

  // Drain. Every arrival fires by the end of the last routed epoch, so from
  // there a shard that is idle stays idle: each shard steps its own grid to
  // its first idle point, and the cluster ends at the latest of those — the
  // first grid point where all shards are idle.
  if (!schedule.empty()) {
    const SimTime last_epoch_end = horizon + quantum;
    std::vector<SimTime> idle_at(shards_.size());
    ForEachShard(
        [&](size_t i) {
          return !shards_[i]->scheduler.OpenLoopIdle() ||
                 shards_[i]->platform.sim()->HasEventAtOrBefore(last_epoch_end);
        },
        [&](size_t i) {
          Shard& shard = *shards_[i];
          SimTime h = horizon;
          do {
            h = h + quantum;
            shard.platform.sim()->RunUntil(h);
          } while (!shard.scheduler.OpenLoopIdle());
          idle_at[i] = h;
        },
        &stats);
    horizon = *std::max_element(idle_at.begin(), idle_at.end());
    RunShardsUntil(horizon, &stats);
  }
  stats.epochs = static_cast<size_t>((horizon - base).nanos() / quantum.nanos());

  for (const std::unique_ptr<Shard>& shard : shards_) {
    stats.AddHost(shard->scheduler.FinishOpenLoop());
  }
  stats.routing = router_.stats();
  FAASNAP_CHECK(stats.arrivals == static_cast<int64_t>(schedule.size()));
  FAASNAP_CHECK(stats.invocations + stats.shed() == stats.arrivals);
  return stats;
}

void ClusterStats::AddHost(HostSchedulerStats host) {
  arrivals += host.arrivals;
  invocations += host.invocations;
  warm_hits += host.warm_hits;
  misses += host.misses;
  shed_queue_full += host.shed_queue_full;
  shed_deadline += host.shed_deadline;
  evictions += host.evictions;
  expirations += host.expirations;
  pressure_demotions += host.pressure_demotions;
  latency_ms.Merge(host.latency_ms);
  accepted_latency.Merge(host.accepted_latency);
  avg_resident_bytes += host.avg_pool_bytes;
  span = std::max(span, host.span);
  per_host.push_back(std::move(host));
}

void ClusterStats::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("arrivals", arrivals);
  w->Field("invocations", invocations);
  w->Field("warm_hits", warm_hits);
  w->Field("misses", misses);
  w->Field("cold_start_rate", cold_start_rate());
  w->Field("shed_queue_full", shed_queue_full);
  w->Field("shed_deadline", shed_deadline);
  w->Field("evictions", evictions);
  w->Field("expirations", expirations);
  w->Field("pressure_demotions", pressure_demotions);
  w->Field("latency_ms_mean", latency_ms.mean());
  w->Field("latency_ms_max", latency_ms.max());
  w->Field("p99_accepted_ns", p99_accepted());
  w->Field("avg_resident_bytes", avg_resident_bytes);
  w->Field("span_ns", span);
  w->Field("epochs", static_cast<int64_t>(epochs));
  w->Key("routing");
  w->BeginObject();
  w->Field("routed", routing.routed);
  w->Field("warm_routes", routing.warm_routes);
  w->Field("cached_routes", routing.cached_routes);
  w->Field("spills", routing.spills);
  w->Field("cold_routes", routing.cold_routes);
  w->EndObject();
  w->Key("per_host");
  w->BeginArray();
  for (const HostSchedulerStats& host : per_host) {
    w->BeginObject();
    w->Field("invocations", host.invocations);
    w->Field("warm_hits", host.warm_hits);
    w->Field("misses", host.misses);
    w->Field("shed", host.shed());
    w->Field("max_in_flight", static_cast<int64_t>(host.max_in_flight));
    w->Field("avg_pool_bytes", host.avg_pool_bytes);
    w->Field("final_pressure_level", static_cast<int64_t>(host.final_pressure_level));
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace faasnap
