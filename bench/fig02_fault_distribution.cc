// Figure 2: distribution of page fault handling times for image-diff under Warm,
// Firecracker, Cached, and REAP (log2 buckets, 0.5 us - 512 us).
//
// Paper shape: Warm ~4,000 faults, >90% under 4 us (avg 2.5 us); snapshot systems
// ~9,000 faults; Cached >90% under 8 us (avg 3.7 us); Firecracker has a ~9% tail
// of >=32 us major faults (avg 13.3 us); REAP is bimodal: <4 us preinstalled pages
// plus an 8-64 us / >128 us tail from userspace handling.

#include <cstdio>

#include "bench/bench_util.h"

namespace faasnap {
namespace bench {
namespace {

void Run() {
  PrintBanner("Figure 2", "page fault handling time distribution, image-diff");

  PlatformConfig config;
  config.guest.vcpus = 1;
  BlockDeviceProfile disk = NvmeSsdProfile();
  disk.jitter = 0.0;
  config.disk = disk;

  const std::vector<RestoreMode> systems = {RestoreMode::kWarm, RestoreMode::kFirecracker,
                                            RestoreMode::kCached, RestoreMode::kReap};
  TextTable summary(
      {"system", "faults", "avg fault (us)", "total PF time (ms)", ">=32us share"});
  for (RestoreMode mode : systems) {
    Experiment experiment("image", config);
    experiment.Record(MakeInputA(experiment.generator().spec()));
    // image-diff: input A's size with other contents — Figure 1's image-diff,
    // test-breakdown.json's `image`/`1x` at rep 0.
    InvocationReport report =
        experiment.Invoke(mode, MakeScaledInput(experiment.generator().spec(), 1.0, 0x7E57));

    const Log2Histogram& h = report.faults.latency_histogram;
    std::printf("--- %s ---\n%s\n", RestoreModeName(mode).data(), h.ToString().c_str());

    int64_t slow = 0;
    for (int i = 0; i < h.num_buckets(); ++i) {
      if (i > 0 && h.bucket_upper(i - 1) >= Duration::Micros(32)) {
        slow += h.bucket_count(i);
      }
    }
    summary.AddRow({std::string(RestoreModeName(mode)), FormatCell("%lld", h.total_count()),
                    FormatCell("%.1f", h.mean().micros()),
                    FormatCell("%.1f", h.total_time().millis()),
                    FormatCell("%.1f%%", h.total_count() == 0
                                             ? 0.0
                                             : 100.0 * static_cast<double>(slow) /
                                                   static_cast<double>(h.total_count()))});
  }
  std::printf("%s\n", summary.ToString().c_str());
  std::printf("Paper anchors: Warm ~4k faults avg 2.5 us (total 12 ms); Cached avg 3.7 us\n"
              "(35 ms); Firecracker avg 13.3 us with ~9%% >=32 us (120 ms); REAP avg 6.7 us\n"
              "(56 ms), bimodal.\n");
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main() {
  faasnap::bench::Run();
  return 0;
}
