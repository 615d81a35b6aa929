// Keep-alive economics of sections 2.1 / 7.1, served by a one-function
// HostScheduler: warm hits, miss paths, and the memory a warm VM pins.

#include <gtest/gtest.h>

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

TEST(PoissonArrivalGaps, MeanIsApproximatelyRight) {
  const std::vector<Duration> gaps = PoissonArrivalGaps(Duration::Seconds(10), 2000, 7);
  ASSERT_EQ(gaps.size(), 2000u);
  double sum = 0;
  for (const Duration& g : gaps) {
    EXPECT_GT(g, Duration::Zero());
    sum += g.seconds();
  }
  EXPECT_NEAR(sum / 2000.0, 10.0, 1.0);
}

TEST(PoissonArrivalGaps, DeterministicPerSeed) {
  const auto a = PoissonArrivalGaps(Duration::Seconds(5), 10, 1);
  const auto b = PoissonArrivalGaps(Duration::Seconds(5), 10, 1);
  const auto c = PoissonArrivalGaps(Duration::Seconds(5), 10, 2);
  EXPECT_EQ(a[3], b[3]);
  EXPECT_NE(a[3], c[3]);
}

class KeepAliveTest : public ::testing::Test {
 protected:
  KeepAliveTest() : platform_(TestConfig()) {}

  // A host whose budget never forces an eviction; each test adds one json function.
  HostScheduler MakeScheduler(RestoreMode miss_mode, Duration keep_warm) {
    HostSchedulerConfig config;
    config.warm_pool_budget_bytes = GiB(1);
    config.keep_warm = keep_warm;
    config.miss_mode = miss_mode;
    return HostScheduler(&platform_, config);
  }

  static double WorkingSetBytes(const HostScheduler& scheduler) {
    return static_cast<double>(PagesToBytes(scheduler.snapshot(0).record_touched.page_count()));
  }

  Platform platform_;
};

TEST_F(KeepAliveTest, FrequentArrivalsHitWarm) {
  HostScheduler scheduler = MakeScheduler(RestoreMode::kFaasnap, Duration::Seconds(600));
  scheduler.AddFunction(*FindFunction("json"));
  // 1-second gaps: everything after the first invocation is warm.
  std::vector<Arrival> arrivals(10, Arrival{0, Duration::Seconds(1)});
  HostSchedulerStats stats = scheduler.Run(arrivals);
  EXPECT_EQ(stats.invocations, 10);
  EXPECT_EQ(stats.misses, 1);  // the very first
  EXPECT_EQ(stats.warm_hits, 9);
  EXPECT_GT(stats.avg_pool_bytes, 0.0);
  EXPECT_EQ(stats.arrivals, 0);  // open-loop counters stay zero in the closed loop
}

TEST_F(KeepAliveTest, SparseArrivalsAlwaysMiss) {
  HostScheduler scheduler = MakeScheduler(RestoreMode::kFaasnap, Duration::Seconds(60));
  scheduler.AddFunction(*FindFunction("json"));
  std::vector<Arrival> arrivals(5, Arrival{0, Duration::Seconds(3600)});  // hourly
  HostSchedulerStats stats = scheduler.Run(arrivals);
  EXPECT_EQ(stats.warm_hits, 0);
  EXPECT_EQ(stats.misses, 5);
  // Idle memory is bounded by the keep-warm window, not the whole hour.
  EXPECT_LT(stats.avg_pool_bytes, WorkingSetBytes(scheduler) * 0.05);
}

TEST_F(KeepAliveTest, WarmHitsAreFasterThanMisses) {
  HostScheduler scheduler = MakeScheduler(RestoreMode::kFaasnap, Duration::Seconds(600));
  scheduler.AddFunction(*FindFunction("json"));
  std::vector<Arrival> arrivals(6, Arrival{0, Duration::Seconds(1)});
  HostSchedulerStats stats = scheduler.Run(arrivals);
  // The first (miss) is the max; warm hits pull the mean well below it.
  EXPECT_LT(stats.latency_ms.min(), stats.latency_ms.max() * 0.8);
}

TEST_F(KeepAliveTest, ColdBootMissesAreOrdersOfMagnitudeSlower) {
  std::vector<Arrival> arrivals(3, Arrival{0, Duration::Seconds(100)});  // all misses
  HostScheduler faasnap_sched = MakeScheduler(RestoreMode::kFaasnap, Duration::Seconds(1));
  faasnap_sched.AddFunction(*FindFunction("json"));
  HostSchedulerStats faasnap_stats = faasnap_sched.Run(arrivals);
  HostScheduler cold_sched = MakeScheduler(RestoreMode::kColdBoot, Duration::Seconds(1));
  cold_sched.AddFunction(*FindFunction("json"));
  HostSchedulerStats cold_stats = cold_sched.Run(arrivals);
  EXPECT_GT(cold_stats.latency_ms.mean(), 10.0 * faasnap_stats.latency_ms.mean());
  EXPECT_GT(cold_stats.latency_ms.mean(), 2000.0);  // boot + init is seconds
}

TEST_F(KeepAliveTest, IdleVmIsChargedUpToItsKeepAliveHorizon) {
  // Gaps alternate below and above the 30 s horizon. The VM pins its working
  // set while it runs, and while idle until it is hit or its horizon passes:
  // min(gap, keep_warm) per gap after the first, never the whole gap.
  HostScheduler scheduler = MakeScheduler(RestoreMode::kFaasnap, Duration::Seconds(30));
  scheduler.AddFunction(*FindFunction("json"));
  std::vector<Arrival> arrivals = {
      {0, Duration::Seconds(10)}, {0, Duration::Seconds(300)}, {0, Duration::Seconds(20)},
      {0, Duration::Seconds(90)}, {0, Duration::Seconds(5)},   {0, Duration::Seconds(600)},
  };
  HostSchedulerStats stats = scheduler.Run(arrivals);
  ASSERT_EQ(stats.warm_hits, 2);
  ASSERT_EQ(stats.expirations, 3);
  const double idle_seconds = 30 + 20 + 30 + 5 + 30;
  const double expected = WorkingSetBytes(scheduler) *
                          (idle_seconds + stats.latency_ms.sum() / 1000.0) /
                          stats.span.seconds();
  EXPECT_NEAR(stats.avg_pool_bytes, expected, expected * 1e-9);
}

TEST_F(KeepAliveTest, HitRateHelper) {
  HostSchedulerStats stats;
  EXPECT_DOUBLE_EQ(stats.warm_hit_rate(), 0.0);
  stats.invocations = 4;
  stats.warm_hits = 3;
  EXPECT_DOUBLE_EQ(stats.warm_hit_rate(), 0.75);
}

TEST(ColdBootMode, NameAndPolicyExist) {
  EXPECT_EQ(RestoreModeName(RestoreMode::kColdBoot), "cold-boot");
  auto policy = RestorePolicy::Create(RestoreMode::kColdBoot);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->mode(), RestoreMode::kColdBoot);
}

}  // namespace
}  // namespace faasnap
