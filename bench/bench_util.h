// Shared helpers for the bench drivers.
//
// Each driver reproduces one table, ablation or extension that a restore
// matrix cannot express: a fault-latency distribution (fig02), record-only
// tables (tab01, tab02, ext_storage_cost), snapshot surgery
// (abl_host_page_recording), snapshot placement (ext_tiered_storage) and
// serving loops. It runs the record phase, then the test phase with caches
// dropped between tests (section 6.1), and prints its own rows. Figures 1, 6,
// 7, 8, 9, 10 and 11, Table 3, the section 7.3 footprint and the platform-knob
// sweeps (sections 4.3 and 4.6, the fault-path levers) are restore matrices:
// they run as configs/*.json through examples/artifact_runner, and
// tests/paper_shapes_test.cc checks their shapes.

#ifndef FAASNAP_BENCH_BENCH_UTIL_H_
#define FAASNAP_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "src/runtime/platform.h"
#include "src/metrics/table.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace bench {

// One record phase + repeated test phases on a single platform, caches dropped
// between tests.
class Experiment {
 public:
  // `seed` feeds device jitter; vary it across repetitions for error bars.
  Experiment(const std::string& function, PlatformConfig config);

  // Runs the record phase with `record_input` (defaults to input A elsewhere).
  void Record(const WorkloadInput& record_input);

  // Test phase: drop caches, restore under `mode`, invoke with `test_input`.
  InvocationReport Invoke(RestoreMode mode, const WorkloadInput& test_input);

  const TraceGenerator& generator() const { return generator_; }
  const FunctionSnapshot& snapshot() const { return snapshot_; }
  Platform& platform() { return platform_; }

 private:
  Platform platform_;
  TraceGenerator generator_;
  FunctionSnapshot snapshot_;
  bool recorded_ = false;
};

// Prints a standard figure banner.
void PrintBanner(const std::string& figure, const std::string& caption);

}  // namespace bench
}  // namespace faasnap

#endif  // FAASNAP_BENCH_BENCH_UTIL_H_
