#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "src/daemon/experiment_runner.h"
#include "src/daemon/scenario.h"
#include "src/runtime/platform.h"
#include "tests/shipped_configs.h"

namespace faasnap {
namespace {

Result<Scenario> Parse(const std::string& text) {
  ASSIGN_OR_RETURN(JsonValue root, ParseJson(text));
  return ParseScenario(root);
}

TEST(Scenario, MinimalConfigGetsDefaults) {
  Result<Scenario> config = Parse(R"({"functions": ["json"]})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->functions.size(), 1u);
  EXPECT_EQ(config->functions[0].name, "json");
  EXPECT_EQ(config->systems.size(), 4u);  // the four paper systems
  EXPECT_EQ(config->reps, 3);
  EXPECT_EQ(config->parallelism, std::vector<int>{1});
  EXPECT_FALSE(config->distinct_snapshots);
  EXPECT_EQ(config->record_input.kind, TestInputSpec::Kind::kInputA);
  ASSERT_EQ(config->test_inputs.size(), 1u);
  EXPECT_EQ(config->test_inputs[0].kind, TestInputSpec::Kind::kInputB);
  EXPECT_EQ(config->platform.disk.name, "nvme-ssd");
  EXPECT_FALSE(config->cluster.has_value());
}

TEST(Scenario, FullConfigParses) {
  Result<Scenario> config = Parse(R"({
    "name": "custom",
    "functions": ["json", "image"],
    "systems": ["faasnap", "reap"],
    "record_input": "B",
    "test_inputs": ["A", "2x", "0.5x"],
    "reps": 5,
    "parallelism": [1, 4],
    "snapshots": "distinct",
    "device": "ebs",
    "ws_group_size": 256,
    "merge_gap_pages": 16,
    "vcpus": 1,
    "base_seed": 9
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->name, "custom");
  EXPECT_EQ(config->systems,
            (std::vector<RestoreMode>{RestoreMode::kFaasnap, RestoreMode::kReap}));
  EXPECT_EQ(config->record_input.kind, TestInputSpec::Kind::kInputB);
  ASSERT_EQ(config->test_inputs.size(), 3u);
  EXPECT_EQ(config->test_inputs[1].kind, TestInputSpec::Kind::kRatio);
  EXPECT_DOUBLE_EQ(config->test_inputs[1].ratio, 2.0);
  EXPECT_DOUBLE_EQ(config->test_inputs[2].ratio, 0.5);
  EXPECT_EQ(config->platform.disk.name, "ebs-io2");
  EXPECT_EQ(config->platform.ws_group_size, 256u);
  EXPECT_EQ(config->platform.loading_set.merge_gap_pages.value(), 16u);
  EXPECT_EQ(config->platform.guest.vcpus, 1);
  EXPECT_EQ(config->base_seed, 9u);
  EXPECT_EQ(config->parallelism, (std::vector<int>{1, 4}));
  EXPECT_TRUE(config->distinct_snapshots);
}

TEST(Scenario, RejectsBadInput) {
  EXPECT_FALSE(Parse(R"({})").ok());                                   // no functions
  EXPECT_FALSE(Parse(R"({"functions": []})").ok());                    // empty
  EXPECT_FALSE(Parse(R"({"functions": ["nope"]})").ok());              // unknown fn
  EXPECT_FALSE(Parse(R"({"functions":["json"],"systems":["x"]})").ok());
  EXPECT_FALSE(Parse(R"({"functions":["json"],"test_inputs":["Q"]})").ok());
  EXPECT_FALSE(Parse(R"({"functions":["json"],"device":"floppy"})").ok());
  EXPECT_FALSE(Parse(R"({"functions":["json"],"reps":0})").ok());
  EXPECT_FALSE(Parse(R"([1,2,3])").ok());  // root not an object
}

// All must be InvalidArgument naming the key. At an older, untyped parser each
// value parsed and then aborted the run (a CHECK in its consumer, a
// unit-overflow panic, std::length_error), overflowed a double-to-integer cast
// (the extreme ratios) or was silently replaced by its default. A scalar
// "parallelism" is the form the list replaced.
TEST(Scenario, RejectsHostileValues) {
  static_assert(kMaxGuestVcpus + 1 == 33, "the vcpus case below is one above the bound");
  const struct {
    const char* key;
    const char* doc;
  } cases[] = {
      {"host_cores", R"({"functions": ["json"], "host_cores": 0})"},
      {"ws_group_size", R"({"functions": ["json"], "ws_group_size": 0})"},
      {"prefetch_aging_us", R"({"functions": ["json"], "prefetch_aging_us": 10000000000000000})"},
      {"disk_queue_depth", R"({"functions": ["json"], "disk_queue_depth": 0})"},
      {"disk_queue_depth", R"({"functions": ["json"], "disk_queue_depth": 4294967296})"},
      {"vcpus", R"({"functions": ["json"], "vcpus": 0})"},
      {"vcpus", R"({"functions": ["json"], "vcpus": -1})"},
      {"vcpus", R"({"functions": ["json"], "vcpus": 33})"},
      {"vcpus", R"({"functions": ["json"], "vcpus": "2"})"},
      {"vcpus", R"({"functions": ["json"], "vcpus": 1e300})"},
      {"reps", R"({"functions": ["json"], "reps": "2"})"},
      {"parallelism", R"({"functions": ["json"], "parallelism": "8"})"},
      {"parallelism", R"({"functions": ["json"], "parallelism": 16})"},
      {"parallelism", R"({"functions": ["json"], "parallelism": []})"},
      {"parallelism", R"({"functions": ["json"], "parallelism": [0]})"},
      {"snapshots", R"({"functions": ["json"], "snapshots": "both"})"},
      {"test_inputs", R"({"functions": ["json"], "test_inputs": ["1e300x"]})"},
      {"test_inputs", R"({"functions": ["json"], "test_inputs": ["infx"]})"},
      {"cluster.hosts", R"({"functions": ["json"], "cluster": {"hosts": -1}})"},
      {"cluster.workload.count", R"({"functions": ["json"], "cluster": {"workload": {"count": -1}}})"},
      {"cluster.workload.mean_gap_us",
       R"({"functions": ["json"], "cluster": {"workload": {"mean_gap_us": -1000}}})"},
      {"cluster.workload.burst_mean_on_us",
       R"({"functions": ["json"],
           "cluster": {"workload": {"process": "bursty", "burst_mean_on_us": 0}}})"},
      // The last arrival could pass SimTime's range: 300 gaps of up to 36.75 x
      // 1e15 us, and a diurnal amplitude of 1 whose rate reaches 0.
      {"cluster.workload.mean_gap_us",
       R"({"functions": ["json"], "cluster": {"workload":
           {"count": 300, "process": "poisson", "mean_gap_us": 1000000000000000}}})"},
      {"cluster.workload.mean_gap_us",
       R"({"functions": ["json"], "cluster": {"workload":
           {"process": "diurnal", "diurnal_amplitude": 1.0}}})"},
      {"cluster.host.warm_pool_budget_mib",
       R"({"functions": ["json"], "cluster": {"host": {"warm_pool_budget_mib": 0}}})"},
      {"admission.max_concurrency",
       R"({"functions": ["json"], "admission": {"max_concurrency": 0}, "cluster": {}})"},
      // Only a cluster's hosts admit; a restore matrix runs every invocation.
      {"admission", R"({"functions": ["json"], "admission": {"max_concurrency": 2}})"},
      {"admission", R"({"functions": ["json"], "admission": {}})"},
      {"sweep", R"({"functions": ["json"], "sweep": [{"ws_group_size": [64]}]})"},
      {"sweep", R"({"functions": ["json"], "sweep": {}})"},
      {"sweep",
       R"({"functions": ["json"], "sweep": {"ws_group_size": [64], "merge_gap_pages": [0]}})"},
      {"sweep.vcpus", R"({"functions": ["json"], "sweep": {"vcpus": [1, 2]}})"},
      {"sweep.ws_group_size", R"({"functions": ["json"], "sweep": {"ws_group_size": []}})"},
      {"sweep.ws_group_size", R"({"functions": ["json"], "sweep": {"ws_group_size": 64}})"},
      {"sweep.ws_group_size", R"({"functions": ["json"], "sweep": {"ws_group_size": [64, 0]}})"},
      {"sweep.merge_gap_pages", R"({"functions": ["json"], "sweep": {"merge_gap_pages": [-1]}})"},
      {"sweep.fault_path", R"({"functions": ["json"], "sweep": {"fault_path": [true]}})"},
      {"sweep.fault_path.huge_density_threshold",
       R"({"functions": ["json"], "sweep": {"fault_path": [{"huge_density_threshold": 0}]}})"},
      {"sweep.ws_group_size",
       R"({"functions": ["json"], "sweep": {"ws_group_size": [64, 256, 64.0]}})"},
      {"sweep.fault_path",
       R"({"functions": ["json"],
           "sweep": {"fault_path": [{"huge_pages": true}, {"huge_pages" : true}]}})"},
      {"sweep", R"({"functions": ["json"], "sweep": {"ws_group_size": [64]}, "cluster": {}})"},
      {"placement.memory_files",
       R"({"functions": ["json"], "placement": {"memory_files": "tape"}})"},
      {"placement", R"({"functions": ["json"], "placement": "remote"})"},
      {"sweep.placement.loading_set",
       R"({"functions": ["json"], "sweep": {"placement": [{}, {"loading_set": "nearby"}]}})"},
      {"sweep.placement", R"({"functions": ["json"], "sweep": {"placement": ["remote"]}})"},
      // Outages hit the remote tier; without one they would hit nothing.
      {"chaos.remote_outage_mean_gap_us",
       R"({"functions": ["json"], "chaos": {"remote_outage_mean_gap_us": 50000}})"},
      {"sweep.chaos.remote_outage_mean_gap_us",
       R"({"functions": ["json"], "chaos": {"remote_outage_mean_gap_us": 50000},
           "placement": {"memory_files": "remote"},
           "sweep": {"placement": [{"memory_files": "local"}]}})"},
      // A key no reader looks up, at every level: misspelt, it would run as
      // its default.
      {"huge_pages", R"({"functions": ["json"], "huge_pages": true})"},
      {"fault_path.huge_page", R"({"functions": ["json"], "fault_path": {"huge_page": true}})"},
      {"sweep.fault_path.huge_page",
       R"({"functions": ["json"], "sweep": {"fault_path": [{}, {"huge_page": true}]}})"},
      {"placement.loading_sets",
       R"({"functions": ["json"], "placement": {"loading_sets": "remote"}})"},
      {"chaos.read_error", R"({"functions": ["json"], "chaos": {"read_error": 0.1}})"},
      {"admission.max_inflight",
       R"({"functions": ["json"], "admission": {"max_inflight": 2}, "cluster": {}})"},
      {"admission.enabled",
       R"({"functions": ["json"], "admission": {"enabled": false}, "cluster": {}})"},
      {"forensics.slowest", R"({"functions": ["json"], "forensics": {"slowest": 4}})"},
      {"cluster.host_count", R"({"functions": ["json"], "cluster": {"host_count": 3}})"},
      {"cluster.router.polcy",
       R"({"functions": ["json"], "cluster": {"router": {"polcy": "random"}}})"},
      {"cluster.host.keep_warm",
       R"({"functions": ["json"], "cluster": {"host": {"keep_warm": 9000}}})"},
      {"cluster.workload.counts",
       R"({"functions": ["json"], "cluster": {"workload": {"counts": 50}}})"},
  };
  for (const auto& c : cases) {
    Result<Scenario> config = Parse(c.doc);
    ASSERT_FALSE(config.ok()) << c.doc;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << c.doc;
    EXPECT_NE(config.status().message().find(c.key), std::string::npos)
        << c.key << " not named in: " << config.status().message();
  }
}

// Each sweep value is read as the top-level key onto a copy of the platform:
// a fault_path value sets only the levers it names.
TEST(Scenario, SweepValuesApplyOntoThePlatform) {
  Result<Scenario> config = Parse(R"({
    "functions": ["json"],
    "ws_group_size": 256,
    "fault_path": {"batched_uffd_install": true},
    "sweep": {"fault_path": [{}, {"huge_pages": true, "uffd_batch_max_pages": 8}]}
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->sweep.size(), 2u);
  EXPECT_EQ(config->sweep[0].label, "{}");
  EXPECT_EQ(config->sweep[1].label, R"({"huge_pages":true,"uffd_batch_max_pages":8})");
  for (const SweepValue& value : config->sweep) {
    EXPECT_TRUE(value.platform.fault_path.batched_uffd_install) << value.label;
    EXPECT_EQ(value.platform.ws_group_size, 256u) << value.label;
  }
  EXPECT_FALSE(config->sweep[0].platform.fault_path.huge_pages);
  EXPECT_TRUE(config->sweep[1].platform.fault_path.huge_pages);
  EXPECT_EQ(config->sweep[1].platform.fault_path.uffd_batch_max_pages.value(), 8u);
  EXPECT_FALSE(config->platform.fault_path.huge_pages);

  Result<Scenario> sizes =
      Parse(R"({"functions": ["json"], "sweep": {"ws_group_size": [64, 4096]}})");
  ASSERT_TRUE(sizes.ok()) << sizes.status().ToString();
  ASSERT_EQ(sizes->sweep.size(), 2u);
  EXPECT_EQ(sizes->sweep[0].label, "64");
  EXPECT_EQ(sizes->sweep[1].platform.ws_group_size, 4096u);
}

// Any remote tier provisions the EBS device, with the shared scheduler knobs;
// without one there is no remote device. A sweep value re-derives it from
// its own placement, so no parsed platform reaches Platform's
// remote-placement CHECK.
TEST(Scenario, PlacementProvisionsTheRemoteTier) {
  Result<Scenario> config = Parse(R"({
    "functions": ["json"],
    "disk_queue_depth": 7,
    "placement": {"reap_ws": "remote"},
    "sweep": {"placement": [{}, {"reap_ws": "local"}, {"loading_set": "remote"}]}
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_TRUE(config->platform.remote_disk.has_value());
  EXPECT_EQ(config->platform.remote_disk->name, "ebs-io2");
  EXPECT_EQ(config->platform.remote_disk->sched.queue_depth, 7);
  EXPECT_EQ(config->platform.placement.reap_ws, StorageTier::kRemote);
  EXPECT_EQ(config->platform.placement.memory_files, StorageTier::kLocal);
  ASSERT_EQ(config->sweep.size(), 3u);
  EXPECT_EQ(config->sweep[0].label, "{}");
  EXPECT_TRUE(config->sweep[0].platform.remote_disk.has_value());
  EXPECT_EQ(config->sweep[1].label, R"({"reap_ws":"local"})");
  EXPECT_FALSE(config->sweep[1].platform.remote_disk.has_value());
  EXPECT_EQ(config->sweep[2].platform.placement.reap_ws, StorageTier::kRemote);
  EXPECT_EQ(config->sweep[2].platform.placement.loading_set, StorageTier::kRemote);
  EXPECT_TRUE(config->sweep[2].platform.remote_disk.has_value());
  for (const SweepValue& value : config->sweep) {
    Platform platform(value.platform);  // CHECK-fails on a tier with no device
  }

  Result<Scenario> local = Parse(R"({"functions": ["json"], "placement": {}})");
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_FALSE(local->platform.remote_disk.has_value());
}

// test-chaos.json states the tier its outages hit, which the chaos block
// used to provision by itself: memory files on EBS, the rest local.
TEST(Scenario, ChaosConfigPlacesMemoryFilesRemotely) {
  Result<Scenario> config =
      LoadScenario(std::string(FAASNAP_SOURCE_DIR) + "/configs/test-chaos.json");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const PlatformConfig& platform = config->platform;
  EXPECT_TRUE(platform.chaos.enabled);
  EXPECT_GT(platform.chaos.remote_outage_mean_gap, Duration::Zero());
  ASSERT_TRUE(platform.remote_disk.has_value());
  const BlockDeviceProfile& remote = *platform.remote_disk;
  const BlockDeviceProfile ebs = EbsIo2Profile();
  EXPECT_EQ(remote.name, ebs.name);
  EXPECT_EQ(remote.base_latency, ebs.base_latency);
  EXPECT_EQ(remote.bandwidth_bytes_per_s, ebs.bandwidth_bytes_per_s);
  EXPECT_EQ(remote.iops, ebs.iops);
  EXPECT_EQ(remote.jitter, ebs.jitter);
  // One set of scheduler knobs governs both tiers.
  const DiskSchedConfig& sched = platform.disk.sched;
  EXPECT_EQ(remote.sched.queue_depth, sched.queue_depth);
  EXPECT_EQ(remote.sched.prefetch_slots, sched.prefetch_slots);
  EXPECT_EQ(remote.sched.prefetch_aging_bound, sched.prefetch_aging_bound);
  EXPECT_EQ(remote.sched.max_merge_bytes, sched.max_merge_bytes);
  EXPECT_EQ(platform.placement.memory_files, StorageTier::kRemote);
  EXPECT_EQ(platform.placement.loading_set, StorageTier::kLocal);
  EXPECT_EQ(platform.placement.reap_ws, StorageTier::kLocal);
}

TEST(Scenario, ClusterBlockMakesAClusterScenario) {
  Result<Scenario> config = Parse(R"({
    "functions": ["json", "image"],
    "device": "ebs",
    "admission": {"max_concurrency": 2, "queue_deadline_us": 7000},
    "cluster": {
      "hosts": 3,
      "sync_quantum_us": 2500,
      "router": {"policy": "round_robin"},
      "host": {"warm_pool_budget_mib": 64, "keep_warm_us": 9000},
      "workload": {"count": 50, "process": "diurnal", "mean_gap_us": 300}
    }
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_TRUE(config->cluster.has_value());
  const ClusterScenario& cluster = *config->cluster;
  EXPECT_EQ(cluster.config.hosts, 3u);
  EXPECT_EQ(cluster.config.sync_quantum, Duration::Micros(2500));
  EXPECT_EQ(cluster.config.router.policy, RoutingPolicy::kRoundRobin);
  EXPECT_EQ(cluster.config.host.warm_pool_budget_bytes, MiB(64));
  EXPECT_EQ(cluster.config.host.keep_warm, Duration::Micros(9000));
  EXPECT_EQ(cluster.arrival_count, 50);
  EXPECT_EQ(cluster.mix.process, ArrivalProcess::kDiurnal);
  EXPECT_EQ(cluster.mix.mean_gap, Duration::Micros(300));
  // The shared keys land where the single-host matrix reads them too.
  EXPECT_EQ(config->platform.disk.name, "ebs-io2");
  EXPECT_EQ(config->admission.max_concurrency, 2);
  EXPECT_EQ(config->admission.queue_deadline, Duration::Micros(7000));
}

TEST(Scenario, LoadsTheShippedConfigs) {
  const std::vector<std::string> paths = ShippedConfigPaths();
  ASSERT_FALSE(paths.empty()) << "no configs/*.json found";
  for (const std::string& path : paths) {
    Result<Scenario> config = LoadScenario(path);
    ASSERT_TRUE(config.ok()) << path << ": " << config.status().ToString();
    EXPECT_FALSE(config->functions.empty()) << path;
    EXPECT_EQ(config->cluster.has_value(),
              std::filesystem::path(path).stem() == "test-cluster")
        << path;
    // Every platform the config runs is one Platform accepts.
    Platform platform(config->platform);
    for (const SweepValue& value : config->sweep) {
      Platform swept(value.platform);
    }
  }
}

TEST(ExperimentRunner, RunsATinyConfigEndToEnd) {
  Result<Scenario> config = Parse(R"({
    "name": "tiny",
    "functions": ["json"],
    "systems": ["firecracker", "faasnap"],
    "test_inputs": ["B"],
    "reps": 2
  })");
  ASSERT_TRUE(config.ok());
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 2u);
  for (const ExperimentCell& cell : results->cells) {
    EXPECT_EQ(cell.function, "json");
    EXPECT_EQ(cell.total_ms.count(), 2);
    EXPECT_GT(cell.total_ms.mean(), 0.0);
  }
  // FaaSnap beats Firecracker in the results, as everywhere else.
  EXPECT_LT(results->cells[1].total_ms.mean(), results->cells[0].total_ms.mean());
  // Renderings include the cells.
  EXPECT_NE(results->ToTable().find("faasnap"), std::string::npos);
  const std::string json = results->ToJson();
  EXPECT_NE(json.find("\"system\":\"faasnap\""), std::string::npos);
  EXPECT_NE(json.find("\"reps\":2"), std::string::npos);
}

TEST(ExperimentRunner, BurstConfigAggregatesPerInvocation) {
  Result<Scenario> config = Parse(R"({
    "functions": ["json"],
    "systems": ["faasnap"],
    "test_inputs": ["A"],
    "reps": 1,
    "parallelism": [4]
  })");
  ASSERT_TRUE(config.ok());
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->cells.size(), 1u);
  EXPECT_EQ(results->cells[0].total_ms.count(), 4);  // one sample per burst member
}

TEST(ExperimentRunner, ChaosOutcomesLandInTheCellAndBothRenderings) {
  // Half the snapshot files are born corrupt: both FaaSnap invocations
  // degrade, and both REAP invocations complete ok. The tallies land in the
  // cells, the table gains its outcome column on every row, and the JSON
  // carries the tallies of the cell that was not all ok.
  Result<Scenario> config = Parse(R"({
    "functions": ["hello-world"],
    "systems": ["faasnap", "reap"],
    "test_inputs": ["A"],
    "reps": 2,
    "chaos": {"seed": 3, "corrupt_file_rate": 0.5}
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 2u);
  const ExperimentCell& faasnap = results->cells[0];
  const ExperimentCell& reap = results->cells[1];
  EXPECT_EQ(faasnap.system, "faasnap");
  EXPECT_EQ(std::vector<int64_t>({faasnap.ok, faasnap.degraded, faasnap.failed}),
            std::vector<int64_t>({0, 2, 0}));
  EXPECT_EQ(std::vector<int64_t>({reap.ok, reap.degraded, reap.failed}),
            std::vector<int64_t>({2, 0, 0}));
  EXPECT_FALSE(faasnap.all_ok());
  EXPECT_TRUE(reap.all_ok());
  EXPECT_EQ(faasnap.total_ms.count(), 2);  // a degraded invocation still reports its times

  const std::string table = results->ToTable();
  EXPECT_NE(table.find("ok/deg/fail\n"), std::string::npos) << table;
  EXPECT_NE(table.find("0/2/0\n"), std::string::npos) << table;
  EXPECT_NE(table.find("2/0/0\n"), std::string::npos) << table;
  const std::string json = results->ToJson();
  EXPECT_NE(json.find(R"("ok":0,"degraded":2,"failed":0,"reps":2})"), std::string::npos)
      << json;
  EXPECT_EQ(json.find(R"("ok":)"), json.rfind(R"("ok":)")) << json;  // the faasnap cell only
}

TEST(ExperimentRunner, ClusterScenarioRejectsObservabilityOutputs) {
  Result<Scenario> config =
      Parse(R"({"functions": ["json"], "trace_out": "cluster.trace.json", "cluster": {}})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<ClusterStats> stats = RunClusterScenario(*config);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

// Per-system total_ms of a one-function scenario, keyed by system name.
std::map<std::string, RunningStats> TotalsBySystem(const std::string& doc) {
  Result<Scenario> config = Parse(doc);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  Result<ExperimentResults> results = RunExperiment(*config);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  std::map<std::string, RunningStats> totals;
  for (const ExperimentCell& cell : results->cells) {
    totals[cell.system] = cell.total_ms;
  }
  return totals;
}

// Each cell gets its own platform and its test input's contents depend on the
// rep only, so listing the systems in another order moves no cell.
TEST(ExperimentRunner, CellsDoNotDependOnTheOrderOfSystems) {
  for (const char* input : {"B", "2x"}) {
    const std::string tail = std::string(R"(], "test_inputs": [")") + input +
                             R"("], "reps": 2})";
    const auto forward = TotalsBySystem(
        R"({"functions": ["json"], "systems": ["firecracker", "reap", "faasnap", "cached")" +
        tail);
    const auto reverse = TotalsBySystem(
        R"({"functions": ["json"], "systems": ["cached", "faasnap", "reap", "firecracker")" +
        tail);
    ASSERT_EQ(forward.size(), 4u);
    for (const auto& [system, stats] : forward) {
      ASSERT_EQ(reverse.count(system), 1u) << system;
      EXPECT_EQ(stats.mean(), reverse.at(system).mean()) << system << " " << input;
      EXPECT_EQ(stats.stddev(), reverse.at(system).stddev()) << system << " " << input;
    }
  }
}

TEST(ExperimentRunner, RepeatedSystemGivesIdenticalCells) {
  Result<Scenario> config = Parse(
      R"({"functions": ["json"], "systems": ["cached", "cached"], "test_inputs": ["2x"],
          "reps": 2})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 2u);
  EXPECT_EQ(results->cells[0].total_ms.mean(), results->cells[1].total_ms.mean());
  EXPECT_EQ(results->cells[0].total_ms.stddev(), results->cells[1].total_ms.stddev());
}

TEST(ExperimentRunner, ParallelismListMakesOneCellPerValue) {
  Result<Scenario> config = Parse(
      R"({"functions": ["json"], "systems": ["reap", "faasnap"], "test_inputs": ["A"],
          "parallelism": [1, 4], "reps": 1})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 4u);
  const int expected[] = {1, 1, 4, 4};
  for (size_t i = 0; i < results->cells.size(); ++i) {
    EXPECT_EQ(results->cells[i].parallelism, expected[i]);
    EXPECT_EQ(results->cells[i].total_ms.count(), expected[i]);
  }
  EXPECT_NE(results->ToJson().find("\"parallelism\":4"), std::string::npos);

  // The 1-way cells equal the cells of the same scenario without the list.
  Result<Scenario> single = Parse(
      R"({"functions": ["json"], "systems": ["reap", "faasnap"], "test_inputs": ["A"],
          "reps": 1})");
  ASSERT_TRUE(single.ok());
  Result<ExperimentResults> single_results = RunExperiment(*single);
  ASSERT_TRUE(single_results.ok());
  ASSERT_EQ(single_results->cells.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(single_results->cells[i].parallelism, 1);
    EXPECT_EQ(single_results->cells[i].total_ms.mean(), results->cells[i].total_ms.mean());
  }
}

// The sweep is a cell axis between parallelism and system. A one-value sweep
// equal to the base platform gives the cells of the scenario without it,
// apart from the label, and only a labelled result shows the sweep column.
TEST(ExperimentRunner, SweepMakesOneCellPerValue) {
  const std::string base = R"({"functions": ["json"], "systems": ["reap", "faasnap"],
                               "test_inputs": ["B"], "parallelism": [1, 2], "reps": 2,
                               "merge_gap_pages": 16)";
  Result<Scenario> config = Parse(base + R"(, "sweep": {"merge_gap_pages": [0, 16]}})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 8u);
  const char* expected[][3] = {{"1", "0", "reap"},  {"1", "0", "faasnap"},
                               {"1", "16", "reap"}, {"1", "16", "faasnap"},
                               {"2", "0", "reap"},  {"2", "0", "faasnap"},
                               {"2", "16", "reap"}, {"2", "16", "faasnap"}};
  for (size_t i = 0; i < results->cells.size(); ++i) {
    const ExperimentCell& cell = results->cells[i];
    EXPECT_EQ(std::to_string(cell.parallelism), expected[i][0]) << i;
    EXPECT_EQ(cell.sweep, expected[i][1]) << i;
    EXPECT_EQ(cell.system, expected[i][2]) << i;
  }
  // Each value's platform runs: merging across 16-page gaps leaves fewer
  // loading-set regions than no merging.
  EXPECT_GT(results->cells[0].loading_set_regions.mean(),
            results->cells[2].loading_set_regions.mean());
  EXPECT_NE(results->ToTable().find(" sweep "), std::string::npos);
  EXPECT_NE(results->ToJson().find("\"sweep\":\"16\""), std::string::npos);

  Result<Scenario> same = Parse(base + R"(, "sweep": {"merge_gap_pages": [16]}})");
  Result<Scenario> plain = Parse(base + "}");
  ASSERT_TRUE(same.ok() && plain.ok());
  Result<ExperimentResults> swept = RunExperiment(*same);
  Result<ExperimentResults> unswept = RunExperiment(*plain);
  ASSERT_TRUE(swept.ok() && unswept.ok());
  EXPECT_EQ(unswept->ToTable().find(" sweep "), std::string::npos);
  EXPECT_EQ(unswept->ToJson().find("\"sweep\""), std::string::npos);
  ASSERT_EQ(swept->cells.size(), unswept->cells.size());
  for (size_t i = 0; i < swept->cells.size(); ++i) {
    EXPECT_EQ(swept->cells[i].sweep, "16");
    EXPECT_EQ(swept->cells[i].total_ms.mean(), unswept->cells[i].total_ms.mean()) << i;
    EXPECT_EQ(swept->cells[i].total_ms.stddev(), unswept->cells[i].total_ms.stddev()) << i;
    swept->cells[i].sweep.clear();
  }
  EXPECT_EQ(swept->ToJson(), unswept->ToJson());
  EXPECT_EQ(swept->ToTable(), unswept->ToTable());
}

// Distinct snapshots share no page-cache pages: a Firecracker burst can no
// longer warm the cache for its neighbours (Figure 10, right).
TEST(ExperimentRunner, DistinctSnapshotsSlowAFirecrackerBurst) {
  const auto burst = [](const char* snapshots) {
    const auto totals = TotalsBySystem(
        std::string(R"({"functions": ["hello-world"], "systems": ["firecracker"],
                        "test_inputs": ["A"], "parallelism": [16], "reps": 1,
                        "snapshots": ")") +
        snapshots + R"("})");
    return totals.at("firecracker").mean();
  };
  EXPECT_GT(burst("distinct"), burst("shared"));
}

// A 1-way, 1-rep cell holds exactly the report of one Platform::Invoke with
// the same seed, record input and test input.
TEST(ExperimentRunner, CellFieldsAreTheInvocationReport) {
  Result<Scenario> config = Parse(R"({"functions": ["image"], "systems": ["reap", "faasnap"],
                                      "test_inputs": ["B"], "reps": 1, "base_seed": 5})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 2u);
  for (const ExperimentCell& cell : results->cells) {
    Platform platform(config->platform);
    const TraceGenerator generator(config->functions[0], config->platform.layout);
    const FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(generator.spec()));
    platform.DropCaches();
    const InvocationReport r = platform.Invoke(snapshot, *ParseRestoreMode(cell.system),
                                               generator, MakeInputB(generator.spec()));
    ASSERT_EQ(cell.fetch_ms.count(), 1) << cell.system;
    EXPECT_EQ(cell.total_ms.mean(), r.total_time().millis()) << cell.system;
    EXPECT_EQ(cell.fetch_ms.mean(), r.fetch_time.millis()) << cell.system;
    EXPECT_EQ(cell.fetch_mb.mean(), static_cast<double>(r.fetch_bytes.value()) / 1e6)
        << cell.system;
    EXPECT_EQ(cell.guest_pagefault_mb.mean(),
              static_cast<double>(r.guest_pagefault_bytes.value()) / 1e6)
        << cell.system;
    EXPECT_EQ(cell.fault_ms.mean(), r.faults.total_fault_time.millis()) << cell.system;
    EXPECT_EQ(cell.fault_wait_ms.mean(), r.faults.total_wait_time.millis()) << cell.system;
    EXPECT_EQ(cell.major_faults.mean(), static_cast<double>(r.faults.major_faults()))
        << cell.system;
    EXPECT_EQ(cell.inflight_waits.mean(),
              static_cast<double>(r.faults.count(FaultClass::kInFlightWait)))
        << cell.system;
    EXPECT_EQ(cell.fault_block_requests.mean(),
              static_cast<double>(r.faults.fault_disk_requests))
        << cell.system;
    EXPECT_EQ(cell.footprint_mib.mean(),
              static_cast<double>(
                  PagesToBytes(r.anon_resident_pages + r.page_cache_pages).value()) /
                  (1024.0 * 1024.0))
        << cell.system;
    EXPECT_EQ(cell.loading_set_regions.mean(),
              static_cast<double>(snapshot.loading_set.regions.size()))
        << cell.system;
    EXPECT_EQ(cell.loading_set_mib.mean(),
              static_cast<double>(PagesToBytes(snapshot.loading_set.total_pages).value()) /
                  (1024.0 * 1024.0))
        << cell.system;
    EXPECT_EQ(cell.mmap_calls.mean(), static_cast<double>(r.mmap_calls)) << cell.system;
    EXPECT_EQ(cell.batch_installs.mean(), static_cast<double>(r.faults.batch_installs))
        << cell.system;
    EXPECT_EQ(cell.batch_installed_pages.mean(),
              static_cast<double>(r.faults.batch_installed_pages.value()))
        << cell.system;
    EXPECT_EQ(cell.huge_installs.mean(), static_cast<double>(r.faults.huge_installs))
        << cell.system;
    EXPECT_EQ(cell.huge_splits.mean(), static_cast<double>(r.faults.huge_splits)) << cell.system;
    EXPECT_EQ(cell.coalesced_pages.mean(), static_cast<double>(r.faults.coalesced_pages.value()))
        << cell.system;
    EXPECT_GT(r.fetch_bytes.value(), 0u) << cell.system;
    EXPECT_GT(r.faults.fault_disk_requests, 0u) << cell.system;
    EXPECT_GT(snapshot.loading_set.regions.size(), 0u) << cell.system;
    EXPECT_GT(r.mmap_calls, 0u) << cell.system;

    const Log2Histogram& h = r.faults.latency_histogram;
    ASSERT_EQ(cell.fault_latency.num_buckets(), 12) << cell.system;
    int64_t bucketed = 0;
    for (int i = 0; i < h.num_buckets(); ++i) {
      EXPECT_EQ(cell.fault_latency.bucket_count(i), h.bucket_count(i)) << cell.system << " " << i;
      bucketed += cell.fault_latency.bucket_count(i);
    }
    EXPECT_EQ(bucketed, r.faults.total_faults()) << cell.system;
    EXPECT_GT(bucketed, 0) << cell.system;

    const auto mib = [](uint64_t pages) {
      return static_cast<double>(PagesToBytes(pages)) / (1024.0 * 1024.0);
    };
    const PageRangeSet ws = snapshot.ws_groups.AllPages();
    const PageRangeSet& nonzero = snapshot.memory_sanitized.nonzero;
    const PageRangeSet zero = snapshot.memory_sanitized.ZeroRegions();
    EXPECT_EQ(cell.ws_nonzero_mib.mean(), mib(ws.Intersect(nonzero).page_count())) << cell.system;
    EXPECT_EQ(cell.cold_set_mib.mean(), mib(nonzero.Subtract(ws).page_count())) << cell.system;
    EXPECT_EQ(cell.released_set_mib.mean(), mib(ws.Intersect(zero).page_count())) << cell.system;
    EXPECT_EQ(cell.unused_set_mib.mean(), mib(zero.Subtract(ws).page_count())) << cell.system;
    EXPECT_EQ(cell.reap_ws_mib.mean(), mib(snapshot.reap_ws.size_pages().value())) << cell.system;
    EXPECT_EQ(cell.vanilla_nonzero_mib.mean(), mib(snapshot.memory_vanilla.nonzero.page_count()))
        << cell.system;
    EXPECT_GT(cell.cold_set_mib.mean(), 0) << cell.system;
    EXPECT_GT(cell.released_set_mib.mean(), 0) << cell.system;
  }
  const std::string json = results->ToJson();
  for (const char* key :
       {"fetch_ms_mean", "fetch_mb_mean", "guest_pagefault_mb_mean", "fault_ms_mean",
        "fault_wait_ms_mean", "major_faults_mean", "inflight_waits_mean",
        "fault_block_requests_mean", "footprint_mib_mean", "loading_set_regions_mean",
        "loading_set_mib_mean", "mmap_calls_mean", "batch_installs_mean",
        "batch_installed_pages_mean", "huge_installs_mean", "huge_splits_mean",
        "coalesced_pages_mean", "ws_nonzero_mib_mean", "cold_set_mib_mean",
        "released_set_mib_mean", "unused_set_mib_mean", "reap_ws_mib_mean",
        "vanilla_nonzero_mib_mean", "fault_latency_buckets_mean"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\":"), std::string::npos) << key;
  }
}

// A ratio input resizes a fixed-input function's input but keeps input A's
// contents, so "1x" is input A itself, as input B and burst members are.
TEST(ExperimentRunner, FixedInputRatioKeepsInputAContents) {
  Result<Scenario> config = Parse(R"({"functions": ["hello-world", "read-list"],
                                      "systems": ["reap"], "test_inputs": ["A", "1x"],
                                      "reps": 2})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->cells.size(), 4u);
  for (size_t i = 0; i < results->cells.size(); i += 2) {
    const ExperimentCell& a = results->cells[i];
    const ExperimentCell& ratio = results->cells[i + 1];
    ASSERT_EQ(a.test_input, "A");
    ASSERT_EQ(ratio.test_input, "1x");
    EXPECT_EQ(ratio.total_ms.mean(), a.total_ms.mean()) << a.function;
    EXPECT_EQ(ratio.total_ms.stddev(), a.total_ms.stddev()) << a.function;
    EXPECT_EQ(ratio.fault_wait_ms.mean(), a.fault_wait_ms.mean()) << a.function;
  }
}

TEST(ExperimentRunner, RatioInputsScaleWork) {
  Result<Scenario> config = Parse(R"({
    "functions": ["image"],
    "systems": ["faasnap"],
    "test_inputs": ["0.5x", "4x"],
    "reps": 1
  })");
  ASSERT_TRUE(config.ok());
  Result<ExperimentResults> results = RunExperiment(*config);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->cells.size(), 2u);
  EXPECT_LT(results->cells[0].total_ms.mean(), results->cells[1].total_ms.mean());
}

}  // namespace
}  // namespace faasnap
