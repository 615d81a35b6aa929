// artifact_runner: the counterpart of the paper artifact's `test.py` driver.
//
// The FaaSnap artifact (Appendix A.4) runs every experiment as
// `test.py test-2inputs.json` etc.; this binary does the same against the
// simulation platform:
//
//   ./build/examples/artifact_runner configs/test-breakdown.json        # Figs 1-2
//   ./build/examples/artifact_runner configs/test-2inputs.json          # E1, Figs 6-7, Tabs 1-2,
//                                                                       #   7.2 costs, 7.3
//   ./build/examples/artifact_runner configs/test-2inputs-ba.json       # Fig 6, B->A
//   ./build/examples/artifact_runner configs/test-6inputs.json          # E2, Fig 8
//   ./build/examples/artifact_runner configs/test-ablation.json         # Fig 9, Tab 3
//   ./build/examples/artifact_runner configs/test-burst.json            # E3, Fig 10
//   ./build/examples/artifact_runner configs/test-burst-distinct.json   # Fig 10
//   ./build/examples/artifact_runner configs/test-remote.json           # E4, Fig 11
//   ./build/examples/artifact_runner configs/test-group-size.json       # 4.3, N sweep
//   ./build/examples/artifact_runner configs/test-merge-gap.json        # 4.6, gap sweep
//   ./build/examples/artifact_runner configs/test-faultpath.json        # 7.1, levers
//   ./build/examples/artifact_runner configs/test-faultpath-burst.json  # 7.1, coalescing
//   ./build/examples/artifact_runner configs/test-tiered-storage.json   # 7.2, placement
//   ./build/examples/artifact_runner --json configs/test-2inputs.json   # machine-readable
//   ./build/examples/artifact_runner configs/test-cluster.json          # sharded cluster
//
// A restore matrix prints a results table (or, with --json, one JSON object
// per cell that adds the fetch, page-fault, block-request and footprint means
// Figure 9, Table 3 and section 7.3 read, the loading-set, mmap and
// fault-path lever means the sweeps read, the page-set sizes Tables 1 and 2
// and section 7.2 read, and Figure 2's fault-latency buckets); a cluster
// scenario prints its ClusterStats summary document.
//
// --trace-out=PATH / --metrics-out=PATH / --timeline-out=PATH /
// --forensics-out=PATH write the Perfetto trace, metrics snapshot, windowed
// metrics timeline (JSONL), and forensics digest (overriding the config's
// corresponding fields) of a restore matrix.

#include <cstdio>
#include <cstring>

#include "src/common/json_writer.h"
#include "src/daemon/experiment_runner.h"
#include "src/daemon/scenario.h"

using namespace faasnap;

int main(int argc, char** argv) {
  bool json = false;
  const char* path = nullptr;
  const char* trace_out = nullptr;
  const char* metrics_out = nullptr;
  const char* timeline_out = nullptr;
  const char* forensics_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--timeline-out=", 15) == 0) {
      timeline_out = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--forensics-out=", 16) == 0) {
      forensics_out = argv[i] + 16;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: artifact_runner [--json] [--trace-out=PATH] [--metrics-out=PATH] "
                 "[--timeline-out=PATH] [--forensics-out=PATH] <config.json>\n");
    return 2;
  }

  Result<Scenario> config = LoadScenario(path);
  if (!config.ok()) {
    std::fprintf(stderr, "config error: %s\n", config.status().ToString().c_str());
    return 1;
  }
  if (trace_out != nullptr) {
    config->trace_out = trace_out;
  }
  if (metrics_out != nullptr) {
    config->metrics_out = metrics_out;
  }
  if (timeline_out != nullptr) {
    config->timeline_out = timeline_out;
  }
  if (forensics_out != nullptr) {
    config->forensics_out = forensics_out;
    config->forensics = true;
  }
  if (config->cluster.has_value()) {
    Result<ClusterStats> stats = RunClusterScenario(*config);
    if (!stats.ok()) {
      std::fprintf(stderr, "experiment error: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    JsonWriter w;
    stats->AppendJson(&w);
    std::printf("%s\n", w.TakeString().c_str());
    return 0;
  }
  if (!json) {
    std::printf("running \"%s\": %zu functions x %zu inputs x %zu parallelisms x ",
                config->name.c_str(), config->functions.size(), config->test_inputs.size(),
                config->parallelism.size());
    if (!config->sweep.empty()) {
      std::printf("%zu sweep values x ", config->sweep.size());
    }
    std::printf("%zu systems x %d reps\n", config->systems.size(), config->reps);
  }
  Result<ExperimentResults> results = RunExperiment(*config);
  if (!results.ok()) {
    std::fprintf(stderr, "experiment error: %s\n", results.status().ToString().c_str());
    return 1;
  }
  if (json) {
    std::printf("%s\n", results->ToJson().c_str());
  } else {
    std::printf("\n%s", results->ToTable().c_str());
  }
  return 0;
}
