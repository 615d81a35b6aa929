// Per-run fault instrumentation, standing in for the paper's bpftrace/perf probes
// on kvm_mmu_page_fault and kvm_vcpu_block (sections 3.3, 6.4, 6.5).

#ifndef FAASNAP_SRC_MEM_FAULT_METRICS_H_
#define FAASNAP_SRC_MEM_FAULT_METRICS_H_

#include <cstdint>
#include <string>

#include "src/common/histogram.h"
#include "src/common/sim_time.h"
#include "src/common/units.h"

namespace faasnap {

// How a guest page access was resolved.
enum class FaultClass : int {
  kNoFault = 0,        // page already installed
  kAnonymous,          // zero-fill fault on anonymous backing
  kMinor,              // served from the page cache
  kMajor,              // blocked on a disk read this fault issued
  kInFlightWait,       // blocked on a disk read someone else already issued
  kUffdPreinstalled,   // cheap first-touch on a UFFDIO_COPY-installed page
  kUffdHandled,        // resolved by a userspace userfaultfd handler
  kHugeInstall,        // one fault installed a whole 2 MiB huge region
  kClassCount,
};

std::string_view FaultClassName(FaultClass c);

// Aggregated by the FaultEngine across one VM run.
struct FaultMetrics {
  FaultMetrics() : latency_histogram(Duration::Nanos(500), /*num_buckets=*/11) {}

  int64_t counts[static_cast<int>(FaultClass::kClassCount)] = {};
  // Total time the vCPU spent inside fault handling, summed over all classes
  // (kvm_mmu_page_fault time; Figure 2's "total page fault handling time").
  Duration total_fault_time;
  // Fault time plus the blocked-vCPU wait (kvm_vcpu_block): Table 3's
  // "page fault waiting time".
  Duration total_wait_time;
  // Figure 2's distribution: one sample per fault (kNoFault excluded).
  Log2Histogram latency_histogram;
  // Disk traffic issued *by fault handling* (excludes prefetch loaders):
  // Figure 9's "# of block requests".
  uint64_t fault_disk_requests = 0;
  ByteCount fault_disk_bytes;
  // Fault-path lever attribution (all zero with the levers disabled, keeping
  // reports bit-identical). Batched uffd installs: run-granular UFFDIO_COPYs
  // and the pages they covered (setup-time working-set installs plus batched
  // fault resolutions).
  uint64_t batch_installs = 0;
  PageCount batch_installed_pages;
  // Huge-page lever: whole-region installs, pages they covered, and regions
  // split back to 4 KiB on the copy-on-touch fallback.
  uint64_t huge_installs = 0;
  PageCount huge_installed_pages;
  uint64_t huge_splits = 0;
  // Coalescing lever: neighbor pages retired by someone else's in-flight fault
  // (each saved one inflight_wait_overhead fault of its own).
  PageCount coalesced_pages;

  int64_t count(FaultClass c) const { return counts[static_cast<int>(c)]; }
  int64_t total_faults() const;
  int64_t major_faults() const { return count(FaultClass::kMajor); }
  // Inline: the fault path calls it for every page access.
  void RecordFault(FaultClass c, Duration handling, Duration extra_wait = Duration::Zero()) {
    counts[static_cast<int>(c)]++;
    if (c == FaultClass::kNoFault) {
      return;
    }
    total_fault_time += handling;
    total_wait_time += handling + extra_wait;
    latency_histogram.Record(handling);
  }
  void Merge(const FaultMetrics& other);
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_MEM_FAULT_METRICS_H_
