// Open-loop serving through the shared engine: concurrent in-flight
// invocations, typed shedding under overload, pressure-driven degradation,
// and determinism of the whole pipeline per seed.

#include <gtest/gtest.h>

#include <vector>

#include "src/obs/observability.h"
#include "src/runtime/host_scheduler.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

PlatformConfig TestConfig() {
  PlatformConfig config;
  BlockDeviceProfile disk = NvmeSsdProfile();
  disk.jitter = 0.0;
  config.disk = disk;
  return config;
}

HostSchedulerConfig OpenLoopConfig() {
  HostSchedulerConfig config;
  config.open_loop = true;
  config.admission.max_concurrency = 4;
  config.admission.queue_capacity = 64;
  config.admission.queue_deadline = Duration::Seconds(10);
  return config;
}

std::vector<Arrival> UniformArrivals(size_t functions, int count, Duration gap) {
  std::vector<Arrival> arrivals;
  for (int i = 0; i < count; ++i) {
    arrivals.push_back(Arrival{static_cast<size_t>(i) % functions, gap});
  }
  return arrivals;
}

TEST(OpenLoopScheduler, TightGapsRunConcurrently) {
  Platform platform(TestConfig());
  HostScheduler scheduler(&platform, OpenLoopConfig());
  scheduler.AddFunction(*FindFunction("json"));
  scheduler.AddFunction(*FindFunction("pyaes"));
  HostSchedulerStats stats = scheduler.Run(UniformArrivals(2, 16, Duration::Millis(1)));
  // Arrivals land every 1 ms while a serve takes far longer: the closed loop
  // could never overlap them, the open loop must.
  EXPECT_GT(stats.max_in_flight, 1);
  EXPECT_EQ(stats.arrivals, 16);
  EXPECT_EQ(stats.invocations, 16);
  EXPECT_EQ(stats.shed(), 0);
  EXPECT_GT(stats.queued, 0);  // more than max_concurrency arrived at once
  EXPECT_GT(stats.latency_ms.count(), 0);
}

TEST(OpenLoopScheduler, UnderloadShedsNothing) {
  Platform platform(TestConfig());
  HostScheduler scheduler(&platform, OpenLoopConfig());
  scheduler.AddFunction(*FindFunction("json"));
  HostSchedulerStats stats = scheduler.Run(UniformArrivals(1, 10, Duration::Seconds(2)));
  EXPECT_EQ(stats.invocations, 10);
  EXPECT_EQ(stats.shed(), 0);
  EXPECT_EQ(stats.max_in_flight, 1);
  EXPECT_EQ(stats.warm_hits, 9);  // ample budget: only the first arrival misses
}

TEST(OpenLoopScheduler, OverloadShedsWithTypedOutcomes) {
  Platform platform(TestConfig());
  HostSchedulerConfig config = OpenLoopConfig();
  config.admission.max_concurrency = 1;
  config.admission.queue_capacity = 2;
  config.admission.queue_deadline = Duration::Micros(10);
  HostScheduler scheduler(&platform, config);
  scheduler.AddFunction(*FindFunction("json"));
  // 20 arrivals a microsecond apart against a serve that takes milliseconds:
  // one runs and the rest resolve as typed sheds — queue-full at offer time,
  // deadline for waiters whose 10 us expires (each expiry frees a queue slot,
  // so a later arrival queues in its place and expires in turn).
  HostSchedulerStats stats = scheduler.Run(UniformArrivals(1, 20, Duration::Micros(1)));
  EXPECT_EQ(stats.arrivals, 20);
  EXPECT_EQ(stats.invocations, 1);
  EXPECT_EQ(stats.shed_queue_full, 15);
  EXPECT_EQ(stats.shed_deadline, 4);
  EXPECT_EQ(stats.invocations + stats.shed(), stats.arrivals);
}

TEST(OpenLoopScheduler, ShedMetricsMatchStats) {
  Observability obs;
  Platform platform(TestConfig());
  platform.set_observability(&obs);
  HostSchedulerConfig config = OpenLoopConfig();
  config.admission.max_concurrency = 1;
  config.admission.queue_capacity = 2;
  config.admission.queue_deadline = Duration::Micros(10);
  HostScheduler scheduler(&platform, config);
  scheduler.AddFunction(*FindFunction("json"));
  HostSchedulerStats stats = scheduler.Run(UniformArrivals(1, 12, Duration::Micros(1)));
  EXPECT_GT(stats.shed(), 0);
  EXPECT_EQ(obs.metrics.GetCounter("scheduler.shed", {{"reason", "queue_full"}})->Get(),
            stats.shed_queue_full);
  EXPECT_EQ(obs.metrics.GetCounter("scheduler.shed", {{"reason", "deadline"}})->Get(),
            stats.shed_deadline);
}

TEST(OpenLoopScheduler, SameSeedRunsAreIdentical) {
  auto run = [] {
    Platform platform(TestConfig());
    HostScheduler scheduler(&platform, OpenLoopConfig());
    scheduler.AddFunction(*FindFunction("json"));
    scheduler.AddFunction(*FindFunction("image"));
    std::vector<Arrival> mix =
        ZipfArrivals(2, 60, /*zipf_s=*/1.2, /*mean_gap=*/Duration::Millis(30), /*seed=*/99);
    return scheduler.Run(mix);
  };
  HostSchedulerStats a = run();
  HostSchedulerStats b = run();
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.shed_queue_full, b.shed_queue_full);
  EXPECT_EQ(a.shed_deadline, b.shed_deadline);
  EXPECT_EQ(a.warm_hits, b.warm_hits);
  EXPECT_EQ(a.max_in_flight, b.max_in_flight);
  EXPECT_EQ(a.latency_ms.mean(), b.latency_ms.mean());
  EXPECT_EQ(a.queue_wait_ms.mean(), b.queue_wait_ms.mean());
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.drain_time, b.drain_time);
}

TEST(OpenLoopScheduler, MemoryPressureDemotesMissRestores) {
  Platform platform(TestConfig());
  HostSchedulerConfig config = OpenLoopConfig();
  config.miss_mode = RestoreMode::kFaasnap;
  // Budget sized so concurrent in-flight working sets push utilization over
  // the (lowered) ladder thresholds; L2 demotes misses to WS-only REAP. The
  // exit thresholds sit above the idle pool's share so pressure recovers to 0
  // once the in-flight bytes drain.
  config.admission.memory_budget_bytes = MiB(96);
  config.ladder.enter[0] = 0.45;
  config.ladder.enter[1] = 0.55;
  config.ladder.enter[2] = 0.95;
  config.ladder.exit[0] = 0.40;
  config.ladder.exit[1] = 0.50;
  config.ladder.exit[2] = 0.88;
  HostScheduler scheduler(&platform, config);
  scheduler.AddFunction(*FindFunction("json"));
  scheduler.AddFunction(*FindFunction("image"));
  HostSchedulerStats stats = scheduler.Run(UniformArrivals(2, 24, Duration::Millis(1)));
  EXPECT_EQ(stats.invocations + stats.shed(), stats.arrivals);
  EXPECT_GE(stats.max_pressure_level, 2);
  EXPECT_GT(stats.pressure_demotions, 0);
  EXPECT_GT(stats.pressure_transitions, 0);
  // Degradation is not shedding: the ladder engaged without dropping work.
  EXPECT_EQ(stats.shed(), 0);
  // The backlog drains and pressure recovers once arrivals stop.
  EXPECT_EQ(stats.final_pressure_level, 0);
}

}  // namespace
}  // namespace faasnap
