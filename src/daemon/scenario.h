// Scenarios: the JSON-driven evaluation workflow of the paper's artifact
// (Appendix A.4 drives every experiment with `test.py <config>.json`; this
// repository mirrors it with `artifact_runner configs/<config>.json`).
//
// One schema covers both kinds of scenario. Without a "cluster" object the
// document is a restore matrix: every (function, test input, parallelism,
// system) cell is recorded and restored on a fresh host, `reps` times. With
// one it is a cluster scenario: an open-loop arrival mix served by sharded
// hosts. The shared keys mean the same thing in both kinds; every host of a
// cluster gets the parsed platform and admission settings.
//
// Every key is optional unless noted. An absent key keeps its default. A
// present key of the wrong JSON type, or outside the range its consumer
// accepts, is InvalidArgument naming the key, and so is a key this schema
// does not list, at any level. Units follow the key suffix:
// `_us` microseconds, `_kib`/`_mib` KiB/MiB, `_pages` 4 KiB pages; a value
// whose conversion would overflow is out of range.
// {
//   "name": "two-input test",
//   "functions": ["json", "image", ...],        // required, catalog names
//
//   // Platform, both kinds.
//   "device": "nvme",                           // "nvme" | "ebs"
//   "host_cores": 96,                           // >= 1
//   "vcpus": 2,                                 // per guest, in [1, kMaxGuestVcpus = 32]
//   "ws_group_size": 1024,                      // >= 1
//   "merge_gap_pages": 32,
//   "base_seed": 1,                             // platform seed (matrix: + 7919 per rep)
//   "disk_queue_depth": 32,                     // device request slots; >= 1
//   "disk_prefetch_slots": 8,                   // device slots prefetch may hold; >= 1
//   "prefetch_aging_us": 2000,                  // queued-prefetch starvation bound
//   "disk_max_merge_kib": 1024,                 // request coalescing cap; 0 disables
//   "loader_chunk_pages": 512,                  // prefetch loader read size; >= 1
//   "loader_pipeline_depth": 4,                 // loader IO queue depth; >= 1
//   "loader_adaptive_depth": true,              // halve depth under demand pressure
//   "loader_min_depth": 1,                      // adaptive floor, in [1, pipeline depth]
//   "loader_ramp_quiet_us": 1000,               // quiet time before depth ramps back
//   "readahead_max_streams": 128,               // stream-table bound; 0 = unbounded
//   "fault_path": {                             // fault-path levers, all off by default
//     "batched_uffd_install": false,
//     "uffd_batch_max_pages": 64,               // >= 1
//     "huge_pages": false,
//     "huge_region_pages": 512,                 // >= 1
//     "huge_density_threshold": 0.9,            // in (0, 1]
//     "fault_coalescing": false
//   },
//   "placement": {                              // section 7.2's tiers, all local by
//     "memory_files": "local",                  //   default: "local" | "remote". Any
//     "loading_set": "local",                   //   remote tier puts an EBS io2 device
//     "reap_ws": "local"                        //   beside "device"; without one there
//   },                                          //   is no remote device
//   "chaos": {                                  // deterministic fault injection
//     "enabled": true,                          // default true when block present
//     "seed": 42,
//     "read_error_rate": 0.05,                  // per-read IO_ERROR probability
//     "read_delay_rate": 0.05,                  // per-read latency-spike probability
//     "read_delay_us": 2000,
//     "corrupt_file_rate": 0.1,                 // per-registered-file corruption
//     "loader_stall_rate": 0.05,                // per-chunk loader stall
//     "loader_stall_us": 1000,
//     "remote_outage_mean_gap_us": 50000,       // 0 disables outages; > 0 needs a
//     "remote_outage_duration_us": 5000,        //   remote tier in "placement"
//     "spare_record_phase": true,
//     "max_attempts": 4,                        // storage retry/breaker policy
//     "read_deadline_us": 40000,
//     "breaker_failure_threshold": 4,
//     "breaker_open_for_us": 20000
//   },
//
//   // Restore matrix.
//   "systems": ["firecracker", "reap", "faasnap", "cached"],
//   "record_input": "A",                        // "A" | "B"
//   "test_inputs": ["B"],                       // "A" | "B" | a ratio like "2x",
//                                               //   at most kMaxInputRatio (1e6)
//   "reps": 3,                                  // >= 1
//   "parallelism": [1],                         // simultaneous invocations per cell,
//                                               //   one cell per value (Figure 10)
//   "snapshots": "shared",                      // "shared" | "distinct": one snapshot
//                                               //   per burst member when distinct
//   "sweep": {"ws_group_size": [64, 1024]},     // one more cell axis, beside parallelism:
//                                               //   exactly one of ws_group_size,
//                                               //   merge_gap_pages, fault_path or
//                                               //   placement, with a non-empty list of
//                                               //   distinct values. Each value is read
//                                               //   as the top-level key onto a copy of
//                                               //   the platform, so a fault_path or
//                                               //   placement value sets only the levers
//                                               //   or tiers it names. Cells are labelled
//                                               //   with the value's compact JSON text.
//   "trace_out": "trace.json",                  // Perfetto/Chrome trace export
//   "metrics_out": "metrics.json",              // metrics registry snapshot
//   "timeline_out": "run.timeline.jsonl",       // windowed metrics deltas (JSONL)
//   "timeline_window_us": 100000,               // window size; 0 = default 100ms
//   "forensics_out": "forensics.json",          // flight-recorder digest document
//   "forensics": {                              // tail-based invocation forensics
//     "enabled": true,                          // default true when block present
//     "slowest_k": 16,                          // keep spans of the K slowest ok
//     "max_non_ok": 1024,                       // ... and of non-ok, up to this cap
//     "buffer_capacity": 65536                  // recycling span-buffer records; >= 1
//   },
//
//   // Cluster scenario (a "sweep" and the observability outputs above are
//   // InvalidArgument; so is "admission" in a restore matrix).
//   "admission": {                              // every host admits through it
//     "max_concurrency": 8,                     // in-flight invocation cap; >= 1
//     "queue_capacity": 64,                     // waiters beyond this shed
//     "queue_deadline_us": 500000,              // waiters older than this shed
//     "memory_budget_mib": 0,                   // 0 disables memory admission
//     "fairness_share": 0.0                     // per-function slot share; 0 off
//   },
//   "cluster": {
//     "hosts": 4,                               // >= 1
//     "worker_threads": 2,                      // parallel shard workers; <= 1 = serial
//     "sync_quantum_us": 10000,                 // barrier epoch length; > 0
//     "router": {
//       "policy": "locality",                   // "random" | "round_robin" | "locality"
//       "seed": 7,                              // random policy's private stream
//       "spill_outstanding": 8                  // locality load-spill threshold; >= 1
//     },
//     "host": {                                 // per-host warm pool
//       "warm_pool_budget_mib": 1024,           // >= 1
//       "keep_warm_us": 600000000
//     },
//     "workload": {                             // arrivals over "functions"
//       "count": 100,                           // offered arrivals; >= 1
//       "seed": 42,
//       "process": "poisson",                   // "poisson" | "bursty" | "diurnal"
//       "mean_gap_us": 1000000,                 // > 0
//       "zipf_s": 1.2,                          // <= 0 = uniform popularity
//       "burst_multiplier": 8.0,                // bursty only
//       "burst_mean_on_us": 2000000,            // > 0
//       "burst_mean_off_us": 20000000,          // > 0
//       "diurnal_amplitude": 0.8,               // diurnal only
//       "diurnal_period_us": 600000000          // > 0
//     }
//   }
// }

#ifndef FAASNAP_SRC_DAEMON_SCENARIO_H_
#define FAASNAP_SRC_DAEMON_SCENARIO_H_

#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/json.h"
#include "src/core/platform_config.h"
#include "src/obs/flight_recorder.h"
#include "src/restore/restore_policy.h"
#include "src/runtime/admission.h"
#include "src/workloads/arrival_mix.h"
#include "src/workloads/function_spec.h"

namespace faasnap {

// One test-phase input selector: a fixed Table 2 input or a Figure 8 ratio.
struct TestInputSpec {
  enum class Kind { kInputA, kInputB, kRatio };
  Kind kind = Kind::kInputB;
  double ratio = 1.0;
  std::string label;  // as written in the config
};

// One value of a restore matrix's "sweep": the scenario's platform with the
// swept key set to the value, and the value's compact JSON text as its label.
struct SweepValue {
  std::string label;
  PlatformConfig platform;
};

// The "cluster" object of a cluster scenario.
struct ClusterScenario {
  // Hosts, worker threads, quantum, router and warm pool. RunClusterScenario
  // supplies `platform` and `host.admission` from the scenario's shared keys.
  ClusterConfig config;
  ArrivalMixConfig mix;
  int arrival_count = 100;
  uint64_t workload_seed = 42;
};

struct Scenario {
  std::string name = "experiment";
  std::vector<FunctionSpec> functions;

  // Platform knobs resolved from the shared keys (device, cores, guest vCPUs,
  // FaaSnap tunables, fault path, placement, chaos); platform.seed is
  // base_seed.
  PlatformConfig platform;
  uint64_t base_seed = 1;

  // "admission" block: every host of a cluster admits through an
  // AdmissionController configured by it. A restore matrix has none.
  AdmissionConfig admission;

  // Restore matrix.
  std::vector<RestoreMode> systems = {RestoreMode::kFirecracker, RestoreMode::kReap,
                                      RestoreMode::kFaasnap, RestoreMode::kCached};
  TestInputSpec record_input{TestInputSpec::Kind::kInputA, 1.0, "A"};
  std::vector<TestInputSpec> test_inputs = {{TestInputSpec::Kind::kInputB, 1.0, "B"}};
  int reps = 3;
  // Each value is its own cell: that many simultaneous invocations of one
  // platform, restored from one shared snapshot or from one snapshot each.
  std::vector<int> parallelism = {1};
  bool distinct_snapshots = false;
  // The "sweep" values, one cell each beside parallelism; empty without one.
  std::vector<SweepValue> sweep;

  // Observability outputs; empty = disabled. trace_out receives a Perfetto-
  // loadable Chrome trace (one track per repetition of a cell), metrics_out
  // the metrics registry snapshot. Both cover the whole experiment.
  std::string trace_out;
  std::string metrics_out;

  // Windowed metrics timeline: one JSONL line per virtual-time window that saw
  // activity (src/obs/metrics_timeline.h). A zero `timeline_window` keeps the
  // MetricsTimeline default.
  std::string timeline_out;
  Duration timeline_window;

  // Tail-based invocation forensics ("forensics" config block). When enabled,
  // spans record into the flight recorder's recycling buffer instead of the
  // run-wide tracer: trace_out then holds only the retained (slowest-K +
  // non-ok) invocations, and forensics_out the streaming digest document.
  bool forensics = false;
  ForensicsConfig forensics_config;
  std::string forensics_out;

  // Set when the document has a "cluster" object.
  std::optional<ClusterScenario> cluster;

  // True when any observability output or forensics is requested.
  bool observed() const {
    return !trace_out.empty() || !metrics_out.empty() || !timeline_out.empty() ||
           !forensics_out.empty() || forensics;
  }
};

// Parses a scenario document; InvalidArgument naming the first bad key.
Result<Scenario> ParseScenario(const JsonValue& root);

// Reads and parses a scenario file.
Result<Scenario> LoadScenario(const std::string& path);

}  // namespace faasnap

#endif  // FAASNAP_SRC_DAEMON_SCENARIO_H_
