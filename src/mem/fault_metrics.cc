#include "src/mem/fault_metrics.h"

namespace faasnap {

std::string_view FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kNoFault:
      return "no-fault";
    case FaultClass::kAnonymous:
      return "anonymous";
    case FaultClass::kMinor:
      return "minor";
    case FaultClass::kMajor:
      return "major";
    case FaultClass::kInFlightWait:
      return "inflight-wait";
    case FaultClass::kUffdPreinstalled:
      return "uffd-preinstalled";
    case FaultClass::kUffdHandled:
      return "uffd-handled";
    case FaultClass::kHugeInstall:
      return "huge-install";
    case FaultClass::kClassCount:
      break;
  }
  return "unknown";
}

int64_t FaultMetrics::total_faults() const {
  int64_t total = 0;
  for (int i = 1; i < static_cast<int>(FaultClass::kClassCount); ++i) {
    total += counts[i];
  }
  return total;
}

void FaultMetrics::Merge(const FaultMetrics& other) {
  for (int i = 0; i < static_cast<int>(FaultClass::kClassCount); ++i) {
    counts[i] += other.counts[i];
  }
  total_fault_time += other.total_fault_time;
  total_wait_time += other.total_wait_time;
  latency_histogram.Merge(other.latency_histogram);
  fault_disk_requests += other.fault_disk_requests;
  fault_disk_bytes += other.fault_disk_bytes;
  batch_installs += other.batch_installs;
  batch_installed_pages += other.batch_installed_pages;
  huge_installs += other.huge_installs;
  huge_installed_pages += other.huge_installed_pages;
  huge_splits += other.huge_splits;
  coalesced_pages += other.coalesced_pages;
}

}  // namespace faasnap
