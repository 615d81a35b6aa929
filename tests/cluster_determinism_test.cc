// The sharded cluster's determinism contract: results are bit-identical
// regardless of worker-thread count. Worker threads only change which shard's
// wall clock advances first inside a parallel region; every shard's event
// order, and every routing decision (barrier-published views only), is a pure
// function of the seed.

#include <gtest/gtest.h>

#include <string>

#include "src/cluster/cluster.h"
#include "src/daemon/experiment_runner.h"
#include "src/daemon/scenario.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

PlatformConfig TestPlatform() {
  PlatformConfig config;
  BlockDeviceProfile disk = NvmeSsdProfile();
  disk.jitter = 0.0;
  config.disk = disk;
  return config;
}

ClusterConfig BaseConfig(int worker_threads) {
  ClusterConfig config;
  config.hosts = 4;
  config.worker_threads = worker_threads;
  config.sync_quantum = Duration::Millis(5);
  config.platform = TestPlatform();
  config.host.warm_pool_budget_bytes = MiB(256);
  config.host.admission.max_concurrency = 4;
  config.host.admission.queue_capacity = 32;
  config.host.admission.queue_deadline = Duration::Seconds(5);
  return config;
}

// Full pipeline → deterministic summary JSON, byte-comparable.
std::string RunCluster(int worker_threads, ArrivalProcess process) {
  ClusterSimulator cluster(BaseConfig(worker_threads));
  size_t functions = 0;
  for (const char* name : {"json", "pyaes", "image", "compression"}) {
    cluster.AddFunction(*FindFunction(name));
    ++functions;
  }
  ArrivalMixConfig mix;
  mix.process = process;
  mix.mean_gap = Duration::Millis(2);
  mix.burst_mean_on = Duration::Millis(50);
  mix.burst_mean_off = Duration::Millis(200);
  mix.diurnal_period = Duration::Seconds(2);
  ClusterStats stats = cluster.Run(SampleArrivalMix(functions, 300, mix, 42));
  EXPECT_EQ(stats.arrivals, 300);
  EXPECT_GT(stats.invocations, 0);
  JsonWriter w;
  stats.AppendJson(&w);
  return w.TakeString();
}

TEST(ClusterDeterminism, ByteIdenticalAcrossWorkerThreadCounts) {
  const std::string serial = RunCluster(1, ArrivalProcess::kPoisson);
  EXPECT_EQ(serial, RunCluster(4, ArrivalProcess::kPoisson));
  EXPECT_EQ(serial, RunCluster(8, ArrivalProcess::kPoisson));
}

TEST(ClusterDeterminism, ByteIdenticalUnderBurstyArrivals) {
  // Bursts pile arrivals into single epochs — the regime where a racy router
  // or a leaky barrier would first diverge.
  const std::string serial = RunCluster(1, ArrivalProcess::kBursty);
  EXPECT_EQ(serial, RunCluster(4, ArrivalProcess::kBursty));
}

TEST(ClusterDeterminism, RepeatedRunsAreIdentical) {
  EXPECT_EQ(RunCluster(2, ArrivalProcess::kDiurnal), RunCluster(2, ArrivalProcess::kDiurnal));
}

TEST(ClusterDeterminism, ShippedConfigLoadsAndRunsDeterministically) {
  // The shipped cluster scenario must parse, and a run driven by it must be
  // reproducible thread-count-independently end to end.
  Result<Scenario> loaded =
      LoadScenario(std::string(FAASNAP_SOURCE_DIR) + "/configs/test-cluster.json");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(loaded->cluster.has_value());
  ASSERT_GT(loaded->functions.size(), 0u);

  const auto run = [&](int worker_threads) {
    Scenario scenario = *loaded;
    scenario.platform = TestPlatform();  // jitter-free disk for the pin
    scenario.cluster->config.worker_threads = worker_threads;
    Result<ClusterStats> stats = RunClusterScenario(scenario);
    EXPECT_TRUE(stats.ok()) << stats.status().message();
    JsonWriter w;
    stats->AppendJson(&w);
    return w.TakeString();
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace faasnap
