// Per-invocation reports: everything the paper's figures and tables read off a run.

#ifndef FAASNAP_SRC_RUNTIME_REPORT_H_
#define FAASNAP_SRC_RUNTIME_REPORT_H_

#include <string>
#include <vector>

#include "src/common/invocation_outcome.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/mem/fault_metrics.h"
#include "src/storage/block_device.h"

namespace faasnap {

struct InvocationReport {
  std::string function;
  std::string mode;  // the *requested* restore mode

  InvocationOutcome outcome = InvocationOutcome::kOk;
  // For kDegraded: the fallback actually used ("fc", "reap-on-demand",
  // "partial-prefetch", ...). Empty otherwise.
  std::string degraded_mode;
  // For kDegraded/kFailed: why (the first terminal error observed).
  Status status;
  // Loading-set pages the concurrent loader failed to prefetch (served on
  // demand instead).
  PageCount prefetch_failed_pages;

  // "ok" | "degraded(<mode>)" | "failed(<STATUS_CODE>)".
  std::string OutcomeTag() const;

  // Gray bar of Figure 1: VMM restore, mapping, and (REAP) working set fetch.
  Duration setup_time;
  // Primary bar of Figure 1: function execution on the restored VM.
  Duration invocation_time;
  Duration total_time() const { return setup_time + invocation_time; }

  FaultMetrics faults;

  // Prefetcher activity (Table 3 "fetch time/size"): REAP's blocking working-set
  // fetch or FaaSnap's concurrent loader.
  Duration fetch_time;
  ByteCount fetch_bytes;

  // Bytes of guest pages that had to block on IO (major/in-flight/uffd-handled):
  // Table 3's "guest pagefault size".
  ByteCount guest_pagefault_bytes;

  // mmap calls during setup (the section 4.6 merge-threshold effect).
  uint64_t mmap_calls = 0;

  // Disk traffic attributable to this invocation.
  BlockDeviceStats disk;

  // Host memory at completion: VM-resident anonymous pages plus page-cache pages
  // (section 7.3 footprint accounting). Meaningful for single-VM runs.
  PageCount anon_resident_pages;
  PageCount page_cache_pages;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_RUNTIME_REPORT_H_
