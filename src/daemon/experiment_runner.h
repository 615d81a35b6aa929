// ExperimentRunner: executes a parsed Scenario and renders results — the
// counterpart of the paper artifact's `test.py` driver (Appendix A.4).
//
// Restore matrix: one cell per (function, test input, parallelism, sweep
// value, system). Each repetition of a cell gets a fresh platform, the sweep
// value's (the scenario's own without a sweep) seeded base_seed + 7919 * rep,
// that records, drops caches and runs `parallelism` simultaneous invocations.
// A test input's contents depend on the rep, never on the system, so no cell
// depends on the other cells of the scenario. Cluster scenario: one
// ClusterSimulator run over the sampled arrival mix.

#ifndef FAASNAP_SRC_DAEMON_EXPERIMENT_RUNNER_H_
#define FAASNAP_SRC_DAEMON_EXPERIMENT_RUNNER_H_

#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/daemon/scenario.h"
#include "src/runtime/report.h"

namespace faasnap {

struct ExperimentCell {
  std::string function;
  std::string system;
  std::string test_input;
  int parallelism = 1;
  std::string sweep;  // the sweep value's label; empty without a sweep
  RunningStats total_ms;
  RunningStats setup_ms;
  RunningStats invocation_ms;
  // The report fields Figure 9, Table 3 and section 7.3 read, one sample per
  // invocation like the times above. MB is 1e6 bytes, as in the paper's tables.
  RunningStats fetch_ms;
  RunningStats fetch_mb;
  RunningStats guest_pagefault_mb;
  RunningStats fault_ms;       // page-fault handling time
  RunningStats fault_wait_ms;  // handling plus blocked-vCPU waiting
  RunningStats major_faults;
  RunningStats inflight_waits;  // faults that waited on a read already issued
  RunningStats fault_block_requests;
  // Anonymous resident pages plus page-cache pages at completion, in MiB. The
  // page cache is the host's, so this is one VM's footprint only at
  // parallelism 1.
  RunningStats footprint_mib;
  // The sweeps' fields (sections 4.3 and 4.6, the fault-path levers): the
  // restored snapshot's loading set, the restore's mmap calls and the levers'
  // attribution counters.
  RunningStats loading_set_regions;
  RunningStats loading_set_mib;
  RunningStats mmap_calls;
  RunningStats batch_installs;
  RunningStats batch_installed_pages;
  RunningStats huge_installs;
  RunningStats huge_splits;
  RunningStats coalesced_pages;
  // Figure 2: fault-handling times merged over the cell's invocations, in
  // FaultMetrics' buckets (0.5 us lower edge, 11 doublings plus overflow).
  Log2Histogram fault_latency = FaultMetrics().latency_histogram;
  // Tables 1 and 2 and section 7.2: the restored snapshot's page sets, in MiB.
  // Table 1's four sets partition guest memory: the working set's sanitized
  // non-zero pages (the loading set before region merging), the cold set
  // (non-zero outside the working set), the released set (zero inside it) and
  // the unused set (zero outside it). Table 2's recorded working set is
  // ws_nonzero + released; section 7.2's sanitized sparse file is
  // ws_nonzero + cold, and its vanilla file the unsanitized non-zero pages.
  RunningStats ws_nonzero_mib;
  RunningStats cold_set_mib;
  RunningStats released_set_mib;
  RunningStats unused_set_mib;
  RunningStats reap_ws_mib;
  RunningStats vanilla_nonzero_mib;
  // Outcome tallies across the cell's invocations (all kOk on fault-free runs).
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t failed = 0;

  bool all_ok() const { return degraded == 0 && failed == 0; }
};

struct ExperimentResults {
  std::string name;
  std::vector<ExperimentCell> cells;

  // Fixed-width table, one row per cell.
  std::string ToTable() const;
  // One JSON object per cell (array document) for downstream tooling.
  std::string ToJson() const;
};

// Runs a restore-matrix scenario. Errors only when an output file cannot be
// written.
Result<ExperimentResults> RunExperiment(const Scenario& scenario);

// Runs a cluster scenario (scenario.cluster set) with the scenario's platform
// and admission settings on every host. InvalidArgument when the scenario
// asks for observability outputs: shards have no observability hook yet.
Result<ClusterStats> RunClusterScenario(const Scenario& scenario);

}  // namespace faasnap

#endif  // FAASNAP_SRC_DAEMON_EXPERIMENT_RUNNER_H_
