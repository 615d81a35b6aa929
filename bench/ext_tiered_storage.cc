// Extension (paper section 7.2, future work): tiered snapshot storage.
//
// "In the future we plan to explore storing relatively small loading set files on
// local SSD and larger memory files on remote storage to reduce storage costs
// while satisfying the performance requirements of reading loading sets."
//
// This bench compares three placements under FaaSnap (and Firecracker/REAP where
// applicable): everything on local NVMe, everything on remote EBS, and the hybrid
// — loading set local, memory file (and REAP working set) remote.
//
// Expected shape: the hybrid tracks all-local closely for FaaSnap (the critical
// path reads the loading set), while moving the bulk of the bytes (the 2 GiB
// memory file) off the expensive local tier. Firecracker cannot benefit: all its
// reads hit the memory file.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

PlatformConfig MakeConfig(const char* placement) {
  PlatformConfig config;
  config.remote_disk = EbsIo2Profile();
  if (std::string(placement) == "all-local") {
    // remote device present but unused
  } else if (std::string(placement) == "all-remote") {
    config.placement.memory_files = StorageTier::kRemote;
    config.placement.loading_set = StorageTier::kRemote;
    config.placement.reap_ws = StorageTier::kRemote;
  } else {  // hybrid
    config.placement.memory_files = StorageTier::kRemote;
    config.placement.reap_ws = StorageTier::kRemote;
    config.placement.loading_set = StorageTier::kLocal;
  }
  return config;
}

void Run(int reps) {
  PrintBanner("Extension: tiered snapshot storage (section 7.2)",
              "total time (ms): all-local vs hybrid (loading set local) vs all-remote");

  const std::vector<std::string> functions = {"hello-world", "json", "image", "ffmpeg",
                                              "recognition"};
  for (RestoreMode mode :
       {RestoreMode::kFaasnap, RestoreMode::kReap, RestoreMode::kFirecracker}) {
    TextTable table({"function", "all-local", "hybrid", "all-remote", "hybrid penalty"});
    for (const std::string& function : functions) {
      Result<FunctionSpec> spec = FindFunction(function);
      FAASNAP_CHECK_OK(spec.status());
      const WorkloadInput test_input = spec->fixed_input ? MakeInputA(*spec) : MakeInputB(*spec);
      double cells[3];
      const char* placements[3] = {"all-local", "hybrid", "all-remote"};
      for (int i = 0; i < 3; ++i) {
        // Mean total time over `reps` fresh platforms with different jitter seeds.
        RunningStats stats;
        for (int rep = 0; rep < reps; ++rep) {
          PlatformConfig config = MakeConfig(placements[i]);
          config.seed += static_cast<uint64_t>(rep) * 7919;
          Experiment experiment(function, config);
          experiment.Record(MakeInputA(*spec));
          stats.Record(experiment.Invoke(mode, test_input).total_time().millis());
        }
        cells[i] = stats.mean();
      }
      table.AddRow({function, FormatCell("%.1f", cells[0]), FormatCell("%.1f", cells[1]),
                    FormatCell("%.1f", cells[2]),
                    FormatCell("%+.1f%%", 100.0 * (cells[1] - cells[0]) / cells[0])});
    }
    std::printf("## %s\n%s\n", RestoreModeName(mode).data(), table.ToString().c_str());
  }
  std::printf("Expected: FaaSnap's hybrid stays within a few percent of all-local (cold-set\n"
              "reads are rare), enabling remote storage for the 2 GiB memory files at local\n"
              "SSD cost for only the small loading sets.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
  faasnap::bench::Run(reps);
  return 0;
}
