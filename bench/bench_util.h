// Shared helpers for the bench drivers.
//
// The drivers left in bench/ are serving loops and harnesses that a restore
// matrix cannot express: chaos invariants, keep-alive and host scheduling, the
// observability soak, open-loop overload and the sharded cluster. Every figure and table of the paper's evaluation, the section 4.3,
// 4.6 and 7.1 sweeps and section 7.2's storage costs and tiered placement are
// restore matrices: they run as configs/*.json through
// examples/artifact_runner, and tests/paper_shapes_test.cc checks their
// shapes. Section 4.4's snapshot surgery is a test in
// tests/core_platform_test.cc.

#ifndef FAASNAP_BENCH_BENCH_UTIL_H_
#define FAASNAP_BENCH_BENCH_UTIL_H_

#include <string>

#include "src/common/table.h"
#include "src/runtime/platform.h"

namespace faasnap {
namespace bench {

// Prints a standard figure banner.
void PrintBanner(const std::string& figure, const std::string& caption);

}  // namespace bench
}  // namespace faasnap

#endif  // FAASNAP_BENCH_BENCH_UTIL_H_
