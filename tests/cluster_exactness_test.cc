// Exactness oracle for ClusterSimulator::Run.
//
// The reference below is built only from the public API and spells out the
// cluster loop's defining semantics: every host owns a Platform and a
// HostScheduler and records its own functions, and one barrier per quantum
// publishes every host's view, routes the epoch's arrivals and runs every host
// to the horizon. Run elides the barriers that route nothing, dispatches only
// the shards with work, drains each shard on its own and copies one recorded
// host to the others; none of that may change a byte of the summary, at any
// worker-thread count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

enum class Load { kDense, kSparse, kBursty, kDiurnal, kChaos };

const char* LoadName(Load load) {
  switch (load) {
    case Load::kDense:
      return "dense";
    case Load::kSparse:
      return "sparse";
    case Load::kBursty:
      return "bursty";
    case Load::kDiurnal:
      return "diurnal";
    case Load::kChaos:
      return "chaos";
  }
  return "?";
}

struct Case {
  size_t hosts = 4;
  Duration quantum = Duration::Millis(5);
  RoutingPolicy policy = RoutingPolicy::kLocality;
  Load load = Load::kDense;
  int arrivals = 48;
  // Small pools and queues, so evictions, queueing and deadline sheds happen.
  int max_concurrency = 2;
  int queue_capacity = 8;
  Duration queue_deadline = Duration::Millis(300);

  std::string Name() const {
    return std::to_string(hosts) + " hosts, quantum " + std::to_string(quantum.nanos()) +
           " ns, " + RoutingPolicyName(policy) + ", " + LoadName(load);
  }
};

std::vector<FunctionSpec> Functions() {
  std::vector<FunctionSpec> specs;
  for (const char* name : {"hello-world", "json", "pyaes"}) {
    specs.push_back(*FindFunction(name));
  }
  return specs;
}

ClusterConfig ConfigFor(const Case& c, int worker_threads) {
  ClusterConfig config;
  config.hosts = c.hosts;
  config.worker_threads = worker_threads;
  config.sync_quantum = c.quantum;
  config.router.policy = c.policy;
  config.host.warm_pool_budget_bytes = MiB(24);
  config.host.admission.max_concurrency = c.max_concurrency;
  config.host.admission.queue_capacity = c.queue_capacity;
  config.host.admission.queue_deadline = c.queue_deadline;
  config.platform.seed = 11;
  if (c.load == Load::kChaos) {
    // Faults on both devices, with injection armed during the records, so the
    // recorded host's device, router and chaos streams all move before Run.
    ChaosConfig& chaos = config.platform.chaos;
    chaos.enabled = true;
    chaos.seed = 42;
    chaos.read_error_rate = 0.02;
    chaos.read_delay_rate = 0.05;
    chaos.corrupt_file_rate = 0.1;
    chaos.loader_stall_rate = 0.05;
    chaos.remote_outage_mean_gap = Duration::Millis(20);
    chaos.squeeze_mean_gap = Duration::Millis(30);
    chaos.spare_record_phase = false;
    config.platform.remote_disk = EbsIo2Profile();
    config.platform.placement.memory_files = StorageTier::kRemote;
  }
  return config;
}

std::vector<Arrival> ArrivalsFor(const Case& c, size_t functions) {
  // About one arrival per 5 ms keeps the hosts near saturation (invocations
  // take tens of ms), so warm pools, queues and locality residency all change
  // between barriers.
  ArrivalMixConfig mix;
  mix.process = ArrivalProcess::kPoisson;
  mix.mean_gap = Duration::Millis(5);
  switch (c.load) {
    case Load::kDense:
      mix.mean_gap = Max(c.quantum / 8, Duration::Nanos(1));
      break;
    case Load::kSparse:
      mix.mean_gap = c.quantum * 16;
      break;
    case Load::kBursty:
      mix.process = ArrivalProcess::kBursty;
      mix.burst_mean_on = Duration::Millis(20);
      mix.burst_mean_off = Duration::Millis(60);
      break;
    case Load::kDiurnal:
      mix.process = ArrivalProcess::kDiurnal;
      mix.diurnal_period = Duration::Millis(100);
      break;
    case Load::kChaos:
      break;
  }
  return SampleArrivalMix(functions, c.arrivals, mix, 77);
}

// The one-barrier-per-quantum loop, from the public API only. Counts the
// barriers that routed at least one arrival in `routing_epochs`.
ClusterStats ReferenceRun(const ClusterConfig& config, const std::vector<FunctionSpec>& specs,
                          const std::vector<Arrival>& arrivals, size_t* routing_epochs) {
  HostSchedulerConfig host_config = config.host;
  host_config.open_loop = true;
  struct Host {
    Host(const PlatformConfig& platform_config, const HostSchedulerConfig& scheduler_config)
        : platform(platform_config), scheduler(&platform, scheduler_config) {}
    Platform platform;
    HostScheduler scheduler;
  };
  std::vector<std::unique_ptr<Host>> hosts;
  for (size_t i = 0; i < config.hosts; ++i) {
    hosts.push_back(std::make_unique<Host>(config.platform, host_config));
  }
  for (const FunctionSpec& spec : specs) {
    for (const std::unique_ptr<Host>& host : hosts) {
      host->scheduler.AddFunction(spec);
    }
  }
  const SimTime base = hosts[0]->platform.sim()->now();
  const std::vector<TimedArrival> schedule = BuildOpenLoopSchedule(arrivals, base, nullptr);
  std::vector<ByteCount> ws_bytes;
  for (size_t f = 0; f < specs.size(); ++f) {
    ws_bytes.push_back(PagesToBytes(PageCount::FromPages(
        hosts[0]->scheduler.snapshot(f).record_touched.page_count())));
  }
  for (const std::unique_ptr<Host>& host : hosts) {
    EXPECT_EQ(host->platform.sim()->now(), base);
    host->scheduler.BeginOpenLoop();
  }

  ClusterRouter router(config.router);
  ClusterStats stats;
  const auto all_idle = [&] {
    for (const std::unique_ptr<Host>& host : hosts) {
      if (!host->scheduler.OpenLoopIdle()) {
        return false;
      }
    }
    return true;
  };
  size_t next = 0;
  SimTime horizon = base;
  *routing_epochs = 0;
  while (next < schedule.size() || !all_idle()) {
    horizon = horizon + config.sync_quantum;
    std::vector<HostView> views;
    for (const std::unique_ptr<Host>& host : hosts) {
      HostView view;
      view.outstanding = host->scheduler.OutstandingLoad();
      view.pool_bytes = host->scheduler.pool_bytes();
      view.pool_budget = host->scheduler.pool_budget();
      for (size_t f = 0; f < specs.size(); ++f) {
        view.residency.push_back(host->scheduler.FunctionWarm(f) ? FunctionResidency::kWarm
                                 : host->scheduler.FunctionEverServed(f)
                                     ? FunctionResidency::kCached
                                     : FunctionResidency::kCold);
      }
      views.push_back(std::move(view));
    }
    const size_t routed_before = next;
    while (next < schedule.size() && schedule[next].at < horizon) {
      const size_t f = schedule[next].function_index;
      const size_t host = router.Route(f, ws_bytes[f], views);
      views[host].outstanding++;
      hosts[host]->scheduler.OfferAt(f, schedule[next].at);
      ++next;
    }
    *routing_epochs += next > routed_before ? 1 : 0;
    for (const std::unique_ptr<Host>& host : hosts) {
      host->platform.sim()->RunUntil(horizon);
    }
    ++stats.epochs;
  }
  for (const std::unique_ptr<Host>& host : hosts) {
    stats.AddHost(host->scheduler.FinishOpenLoop());
  }
  stats.routing = router.stats();
  return stats;
}

std::string Json(const ClusterStats& stats) {
  JsonWriter w;
  stats.AppendJson(&w);
  return w.TakeString();
}

ClusterStats SimulatorRun(const ClusterConfig& config, const std::vector<FunctionSpec>& specs,
                          const std::vector<Arrival>& arrivals) {
  ClusterSimulator cluster(config);
  for (const FunctionSpec& spec : specs) {
    cluster.AddFunction(spec);
  }
  return cluster.Run(arrivals);
}

// Runs `c` through the reference and through Run at 1 and 4 threads; returns
// Run's 1-thread stats.
ClusterStats CheckCase(const Case& c) {
  SCOPED_TRACE(c.Name());
  const std::vector<FunctionSpec> specs = Functions();
  const std::vector<Arrival> arrivals = ArrivalsFor(c, specs.size());
  size_t routing_epochs = 0;
  const ClusterStats reference =
      ReferenceRun(ConfigFor(c, /*worker_threads=*/1), specs, arrivals, &routing_epochs);
  EXPECT_EQ(reference.arrivals, c.arrivals);
  const std::string expected = Json(reference);

  const ClusterStats serial = SimulatorRun(ConfigFor(c, 1), specs, arrivals);
  const ClusterStats parallel = SimulatorRun(ConfigFor(c, 4), specs, arrivals);
  EXPECT_EQ(Json(serial), expected);
  EXPECT_EQ(Json(parallel), expected);
  // Which shards a region takes is decided serially: the count is as
  // deterministic as the output. One region per routing barrier at most,
  // plus the drain and the final clock move.
  EXPECT_EQ(serial.barriers, parallel.barriers);
  EXPECT_LE(serial.barriers, routing_epochs + 2);
  return serial;
}

// A covering design over hosts {1, 3, 4} x quantum {1 us, 5 ms, 250 ms} x
// router x load: every (load, router) pair appears once, and across the
// fifteen cases so does every (hosts, quantum), (load, hosts), (load,
// quantum), (router, hosts) and (router, quantum) pair.
TEST(ClusterExactness, RunMatchesTheOneBarrierPerQuantumReference) {
  const size_t kHosts[] = {1, 3, 4};
  const Duration kQuanta[] = {Duration::Micros(1), Duration::Millis(5), Duration::Millis(250)};
  const RoutingPolicy kPolicies[] = {RoutingPolicy::kRandom, RoutingPolicy::kRoundRobin,
                                     RoutingPolicy::kLocality};
  const Load kLoads[] = {Load::kDense, Load::kSparse, Load::kBursty, Load::kDiurnal,
                         Load::kChaos};
  for (size_t l = 0; l < 5; ++l) {
    for (size_t r = 0; r < 3; ++r) {
      Case c;
      c.load = kLoads[l];
      c.policy = kPolicies[r];
      c.hosts = kHosts[(l + r) % 3];
      c.quantum = kQuanta[(l + 2 * r) % 3];
      CheckCase(c);
    }
  }
}

TEST(ClusterExactness, SparseArrivalsCrossFewBarriers) {
  Case c;
  c.load = Load::kSparse;  // gaps of 16 quanta on average
  const ClusterStats stats = CheckCase(c);
  EXPECT_GT(stats.epochs, 16 * static_cast<size_t>(c.arrivals) / 2);
  EXPECT_LT(stats.barriers * 8, stats.epochs);
}

TEST(ClusterExactness, DrainSpanningManyQuanta) {
  // Every arrival lands inside the first few quanta on hosts that run one
  // invocation at a time behind a deep queue, so the drain that follows spans
  // hundreds of quanta.
  Case c;
  c.hosts = 3;
  c.quantum = Duration::Millis(1);
  c.load = Load::kDense;
  c.arrivals = 24;
  c.max_concurrency = 1;
  c.queue_capacity = 32;
  c.queue_deadline = Duration::Seconds(10);
  const ClusterStats stats = CheckCase(c);
  EXPECT_EQ(stats.shed(), 0);
  EXPECT_GT(stats.epochs, 200u);
  EXPECT_LE(stats.barriers, 6u);  // at most 4 routing epochs
}

TEST(ClusterExactness, NoArrivalsCrossNoBarrier) {
  const std::vector<FunctionSpec> specs = Functions();
  size_t routing_epochs = 0;
  const ClusterStats reference = ReferenceRun(ConfigFor(Case{}, 1), specs, {}, &routing_epochs);
  const ClusterStats stats = SimulatorRun(ConfigFor(Case{}, 4), specs, {});
  EXPECT_EQ(Json(stats), Json(reference));
  EXPECT_EQ(stats.epochs, 0u);
  EXPECT_EQ(stats.barriers, 0u);
}

}  // namespace
}  // namespace faasnap
