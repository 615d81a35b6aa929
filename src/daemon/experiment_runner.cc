#include "src/daemon/experiment_runner.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>

#include "src/common/json_writer.h"
#include "src/common/table.h"
#include "src/obs/observability.h"
#include "src/obs/trace_export.h"
#include "src/runtime/platform.h"

namespace faasnap {

namespace {

void TallyOutcome(ExperimentCell* cell, const InvocationReport& report) {
  switch (report.outcome) {
    case InvocationOutcome::kOk:
      cell->ok++;
      break;
    case InvocationOutcome::kDegraded:
      cell->degraded++;
      break;
    case InvocationOutcome::kFailed:
      cell->failed++;
      break;
    default:  // only an admission layer sheds, and a restore matrix has none
      FAASNAP_CHECK(false);
  }
}

WorkloadInput ResolveInput(const TestInputSpec& spec, const FunctionSpec& function,
                           uint64_t content_seed) {
  switch (spec.kind) {
    case TestInputSpec::Kind::kInputA:
      return MakeInputA(function);
    case TestInputSpec::Kind::kInputB:
      return MakeInputB(function);
    case TestInputSpec::Kind::kRatio:
      // A fixed-input function keeps input A's contents at any size, as in
      // MakeInputB and a burst's members.
      return MakeScaledInput(function, spec.ratio,
                             function.fixed_input ? MakeInputA(function).content_seed
                                                  : content_seed);
  }
  FAASNAP_CHECK(false);
  return MakeInputA(function);
}

double Megabytes(ByteCount bytes) { return static_cast<double>(bytes.value()) / 1e6; }
double Mebibytes(ByteCount bytes) {
  return static_cast<double>(bytes.value()) / static_cast<double>(kMiB);
}
double Count(uint64_t n) { return static_cast<double>(n); }

bool HasSweep(const std::vector<ExperimentCell>& cells) {
  return std::any_of(cells.begin(), cells.end(),
                     [](const ExperimentCell& cell) { return !cell.sweep.empty(); });
}

// The restored snapshot's fields of a cell, measured once per recorded
// snapshot and recorded once per invocation.
struct SnapshotSizes {
  double loading_set_regions = 0;
  double loading_set_mib = 0;
  double ws_nonzero_mib = 0;
  double cold_set_mib = 0;
  double released_set_mib = 0;
  double unused_set_mib = 0;
  double reap_ws_mib = 0;
  double vanilla_nonzero_mib = 0;
};

SnapshotSizes MeasureSnapshot(const FunctionSnapshot& snapshot) {
  const auto mib = [](uint64_t pages) {
    return Mebibytes(PagesToBytes(PageCount::FromPages(pages)));
  };
  const PageRangeSet ws = snapshot.ws_groups.AllPages();
  const PageRangeSet& nonzero = snapshot.memory_sanitized.nonzero;
  const PageRangeSet zero = snapshot.memory_sanitized.ZeroRegions();
  SnapshotSizes sizes;
  sizes.loading_set_regions = Count(snapshot.loading_set.regions.size());
  sizes.loading_set_mib = mib(snapshot.loading_set.total_pages.value());
  sizes.ws_nonzero_mib = mib(ws.Intersect(nonzero).page_count());
  sizes.cold_set_mib = mib(nonzero.Subtract(ws).page_count());
  sizes.released_set_mib = mib(ws.Intersect(zero).page_count());
  sizes.unused_set_mib = mib(zero.Subtract(ws).page_count());
  sizes.reap_ws_mib = mib(snapshot.reap_ws.size_pages().value());
  sizes.vanilla_nonzero_mib = mib(snapshot.memory_vanilla.nonzero.page_count());
  return sizes;
}

void RecordReport(ExperimentCell* cell, const SnapshotSizes& snapshot,
                  const InvocationReport& report) {
  cell->total_ms.Record(report.total_time().millis());
  cell->setup_ms.Record(report.setup_time.millis());
  cell->invocation_ms.Record(report.invocation_time.millis());
  cell->fetch_ms.Record(report.fetch_time.millis());
  cell->fetch_mb.Record(Megabytes(report.fetch_bytes));
  cell->guest_pagefault_mb.Record(Megabytes(report.guest_pagefault_bytes));
  cell->fault_ms.Record(report.faults.total_fault_time.millis());
  cell->fault_wait_ms.Record(report.faults.total_wait_time.millis());
  cell->major_faults.Record(static_cast<double>(report.faults.major_faults()));
  cell->inflight_waits.Record(
      static_cast<double>(report.faults.count(FaultClass::kInFlightWait)));
  cell->fault_block_requests.Record(static_cast<double>(report.faults.fault_disk_requests));
  cell->footprint_mib.Record(
      Mebibytes(PagesToBytes(report.anon_resident_pages + report.page_cache_pages)));
  cell->loading_set_regions.Record(snapshot.loading_set_regions);
  cell->loading_set_mib.Record(snapshot.loading_set_mib);
  cell->mmap_calls.Record(Count(report.mmap_calls));
  const FaultMetrics& faults = report.faults;
  cell->batch_installs.Record(Count(faults.batch_installs));
  cell->batch_installed_pages.Record(Count(faults.batch_installed_pages.value()));
  cell->huge_installs.Record(Count(faults.huge_installs));
  cell->huge_splits.Record(Count(faults.huge_splits));
  cell->coalesced_pages.Record(Count(faults.coalesced_pages.value()));
  cell->fault_latency.Merge(faults.latency_histogram);
  cell->ws_nonzero_mib.Record(snapshot.ws_nonzero_mib);
  cell->cold_set_mib.Record(snapshot.cold_set_mib);
  cell->released_set_mib.Record(snapshot.released_set_mib);
  cell->unused_set_mib.Record(snapshot.unused_set_mib);
  cell->reap_ws_mib.Record(snapshot.reap_ws_mib);
  cell->vanilla_nonzero_mib.Record(snapshot.vanilla_nonzero_mib);
  TallyOutcome(cell, report);
}

// One repetition of one cell on a fresh platform: record (one snapshot, or one
// per burst member), drop caches, then `parallelism` simultaneous invocations.
// Nothing here depends on the scenario's other cells.
void RunRep(const Scenario& scenario, const PlatformConfig& cell_platform,
            const TraceGenerator& generator, const TestInputSpec& input_spec, int parallelism,
            size_t system_index, int rep, Observability* obs, ExperimentCell* cell) {
  const FunctionSpec& spec = generator.spec();
  const RestoreMode system = scenario.systems[system_index];
  PlatformConfig platform_config = cell_platform;
  platform_config.seed = scenario.base_seed + static_cast<uint64_t>(rep) * 7919;
  Platform platform(platform_config);
  if (obs != nullptr) {
    std::string track =
        spec.name + " input=" + input_spec.label + " parallelism=" + std::to_string(parallelism);
    if (!cell->sweep.empty()) {
      track += " sweep=" + cell->sweep;
    }
    track += " system=" + cell->system + " rep=" + std::to_string(rep);
    if (!obs->forensics.enabled()) {
      // Under forensics the platform records into the recorder's recycling
      // buffer; the run-wide tracer stays empty (cell spans aside) and per-rep
      // tracks would never be garbage-collected.
      obs->spans.BeginTrack(track);
    }
    obs->timeline.BeginEpoch(track);
    platform.set_observability(obs);
  }

  const WorkloadInput record_input =
      ResolveInput(scenario.record_input, spec, /*content_seed=*/0xA);
  std::vector<FunctionSnapshot> snapshots;
  std::vector<SnapshotSizes> sizes;
  const int snapshot_count = scenario.distinct_snapshots ? parallelism : 1;
  for (int i = 0; i < snapshot_count; ++i) {
    snapshots.push_back(platform.Record(generator, record_input));
    sizes.push_back(MeasureSnapshot(snapshots.back()));
  }
  platform.DropCaches();

  // Burst member i restores from its own snapshot when they are distinct and
  // gets its own contents unless the function's input is fixed.
  const WorkloadInput test_input =
      ResolveInput(input_spec, spec, 0x7E57 + static_cast<uint64_t>(rep) * 131);
  auto snapshot_of = [&](uint64_t i) -> const FunctionSnapshot& {
    return snapshots[i % snapshots.size()];
  };
  auto sizes_of = [&](uint64_t i) -> const SnapshotSizes& { return sizes[i % sizes.size()]; };
  auto trace_of = [&](uint64_t i) {
    WorkloadInput member = test_input;
    if (!spec.fixed_input) {
      member.content_seed += i * 977;
    }
    return generator.Generate(member);
  };

  // Covers every invocation of this (system, rep) cell; arg0 = system index,
  // so trace tooling can split cells apart.
  const SpanId cell_span =
      obs != nullptr ? obs->spans.Begin(platform.sim()->now(), ObsLane::kDaemon,
                                        obsname::kExperimentCell, system_index)
                     : kNoSpan;
  int resolved = 0;
  for (int i = 0; i < parallelism; ++i) {
    platform.InvokeAsync(snapshot_of(i), system, trace_of(i), [&, i](InvocationReport report) {
      RecordReport(cell, sizes_of(i), report);
      ++resolved;
    });
  }
  platform.sim()->Run();
  FAASNAP_CHECK(resolved == parallelism);
  if (obs != nullptr) {
    obs->spans.End(cell_span, platform.sim()->now());
  }
}

}  // namespace

Result<ExperimentResults> RunExperiment(const Scenario& scenario) {
  ExperimentResults results;
  results.name = scenario.name;

  // One bundle for the whole experiment; each repetition (its own Platform and
  // t=0) records onto its own trace track (or timeline epoch).
  std::unique_ptr<Observability> obs;
  std::unique_ptr<std::ofstream> timeline_out;
  if (scenario.observed()) {
    obs = std::make_unique<Observability>();
    if (!scenario.timeline_out.empty()) {
      timeline_out = std::make_unique<std::ofstream>(scenario.timeline_out, std::ios::trunc);
      if (!timeline_out->good()) {
        return IoError("opening timeline output " + scenario.timeline_out);
      }
      MetricsTimelineConfig timeline_config;
      if (scenario.timeline_window > Duration::Zero()) {
        timeline_config.window = scenario.timeline_window;
      }
      std::ofstream* sink = timeline_out.get();
      obs->timeline.Configure(&obs->metrics, timeline_config,
                              [sink](const std::string& line) { *sink << line << "\n"; });
    }
    if (scenario.forensics) {
      obs->forensics.Configure(scenario.forensics_config, &obs->metrics);
    }
  }

  // Without a sweep, one unlabelled value: the scenario's platform.
  const std::vector<SweepValue> sweep =
      scenario.sweep.empty() ? std::vector<SweepValue>{{"", scenario.platform}} : scenario.sweep;
  for (const FunctionSpec& spec : scenario.functions) {
    const TraceGenerator generator(spec, scenario.platform.layout);
    for (const TestInputSpec& input_spec : scenario.test_inputs) {
      for (int parallelism : scenario.parallelism) {
        for (const SweepValue& value : sweep) {
          for (size_t s = 0; s < scenario.systems.size(); ++s) {
            ExperimentCell cell;
            cell.function = spec.name;
            cell.system = std::string(RestoreModeName(scenario.systems[s]));
            cell.test_input = input_spec.label;
            cell.parallelism = parallelism;
            cell.sweep = value.label;
            for (int rep = 0; rep < scenario.reps; ++rep) {
              RunRep(scenario, value.platform, generator, input_spec, parallelism, s, rep,
                     obs.get(), &cell);
            }
            results.cells.push_back(std::move(cell));
          }
        }
      }
    }
  }

  if (obs != nullptr) {
    if (!scenario.trace_out.empty()) {
      std::ofstream out(scenario.trace_out, std::ios::trunc);
      // Forensics replaces full tracing: export the retained (slowest-K +
      // non-ok) invocations instead of the (empty) run-wide tracer.
      out << (obs->forensics.enabled() ? obs->forensics.ExportRetainedTrace()
                                       : ExportChromeTrace(obs->spans));
      if (!out.good()) {
        return IoError("writing trace to " + scenario.trace_out);
      }
    }
    if (!scenario.metrics_out.empty()) {
      std::ofstream out(scenario.metrics_out, std::ios::trunc);
      out << obs->metrics.ToJson();
      if (!out.good()) {
        return IoError("writing metrics to " + scenario.metrics_out);
      }
    }
    if (obs->timeline.enabled()) {
      obs->timeline.Flush(SimTime());
      timeline_out->flush();
      if (!timeline_out->good()) {
        return IoError("writing timeline to " + scenario.timeline_out);
      }
    }
    if (!scenario.forensics_out.empty()) {
      std::ofstream out(scenario.forensics_out, std::ios::trunc);
      out << obs->forensics.SummaryToJson();
      if (!out.good()) {
        return IoError("writing forensics to " + scenario.forensics_out);
      }
    }
  }
  return results;
}

Result<ClusterStats> RunClusterScenario(const Scenario& scenario) {
  if (scenario.observed()) {
    return InvalidArgumentError(
        "trace, metrics, timeline and forensics outputs are not supported in a cluster scenario");
  }
  const ClusterScenario& cluster = *scenario.cluster;
  ClusterConfig config = cluster.config;
  config.platform = scenario.platform;
  config.host.admission = scenario.admission;
  ClusterSimulator simulator(config);
  for (const FunctionSpec& spec : scenario.functions) {
    simulator.AddFunction(spec);
  }
  return simulator.Run(SampleArrivalMix(scenario.functions.size(), cluster.arrival_count,
                                        cluster.mix, cluster.workload_seed));
}

std::string ExperimentResults::ToTable() const {
  // The sweep column appears only when some cell has a sweep label, and the
  // outcomes column only when some cell degraded or failed, so an unswept,
  // fault-free table is unchanged.
  const bool any_sweep = HasSweep(cells);
  bool any_non_ok = false;
  for (const ExperimentCell& cell : cells) {
    any_non_ok = any_non_ok || !cell.all_ok();
  }
  std::vector<std::string> header = {"function", "test input", "parallelism"};
  if (any_sweep) {
    header.push_back("sweep");
  }
  header.insert(header.end(), {"system", "total (ms)", "setup (ms)", "invoke (ms)"});
  if (any_non_ok) {
    header.push_back("ok/deg/fail");
  }
  TextTable table(header);
  for (const ExperimentCell& cell : cells) {
    std::vector<std::string> row = {cell.function, cell.test_input,
                                    std::to_string(cell.parallelism)};
    if (any_sweep) {
      row.push_back(cell.sweep);
    }
    row.insert(row.end(), {cell.system,
                           FormatCell("%.1f +- %.1f", cell.total_ms.mean(), cell.total_ms.stddev()),
                           FormatCell("%.1f", cell.setup_ms.mean()),
                           FormatCell("%.1f", cell.invocation_ms.mean())});
    if (any_non_ok) {
      row.push_back(std::to_string(cell.ok) + "/" + std::to_string(cell.degraded) + "/" +
                    std::to_string(cell.failed));
    }
    table.AddRow(row);
  }
  return "# " + name + "\n\n" + table.ToString();
}

std::string ExperimentResults::ToJson() const {
  const bool any_sweep = HasSweep(cells);
  JsonWriter json;
  json.BeginObject().Field("name", name).Key("cells").BeginArray();
  for (const ExperimentCell& cell : cells) {
    json.BeginObject()
        .Field("function", cell.function)
        .Field("system", cell.system)
        .Field("test_input", cell.test_input)
        .Field("parallelism", static_cast<int64_t>(cell.parallelism));
    if (any_sweep) {
      json.Field("sweep", cell.sweep);
    }
    json.Field("total_ms_mean", cell.total_ms.mean())
        .Field("total_ms_std", cell.total_ms.stddev())
        .Field("setup_ms_mean", cell.setup_ms.mean())
        .Field("invocation_ms_mean", cell.invocation_ms.mean())
        .Field("fetch_ms_mean", cell.fetch_ms.mean())
        .Field("fetch_mb_mean", cell.fetch_mb.mean())
        .Field("guest_pagefault_mb_mean", cell.guest_pagefault_mb.mean())
        .Field("fault_ms_mean", cell.fault_ms.mean())
        .Field("fault_wait_ms_mean", cell.fault_wait_ms.mean())
        .Field("major_faults_mean", cell.major_faults.mean())
        .Field("inflight_waits_mean", cell.inflight_waits.mean())
        .Field("fault_block_requests_mean", cell.fault_block_requests.mean())
        .Field("footprint_mib_mean", cell.footprint_mib.mean())
        .Field("loading_set_regions_mean", cell.loading_set_regions.mean())
        .Field("loading_set_mib_mean", cell.loading_set_mib.mean())
        .Field("mmap_calls_mean", cell.mmap_calls.mean())
        .Field("batch_installs_mean", cell.batch_installs.mean())
        .Field("batch_installed_pages_mean", cell.batch_installed_pages.mean())
        .Field("huge_installs_mean", cell.huge_installs.mean())
        .Field("huge_splits_mean", cell.huge_splits.mean())
        .Field("coalesced_pages_mean", cell.coalesced_pages.mean())
        .Field("ws_nonzero_mib_mean", cell.ws_nonzero_mib.mean())
        .Field("cold_set_mib_mean", cell.cold_set_mib.mean())
        .Field("released_set_mib_mean", cell.released_set_mib.mean())
        .Field("unused_set_mib_mean", cell.unused_set_mib.mean())
        .Field("reap_ws_mib_mean", cell.reap_ws_mib.mean())
        .Field("vanilla_nonzero_mib_mean", cell.vanilla_nonzero_mib.mean());
    // The mean count per invocation in each bucket, overflow last.
    const auto invocations = static_cast<double>(cell.total_ms.count());
    json.Key("fault_latency_buckets_mean").BeginArray();
    for (int i = 0; i < cell.fault_latency.num_buckets(); ++i) {
      json.Value(static_cast<double>(cell.fault_latency.bucket_count(i)) / invocations);
    }
    json.EndArray();
    if (!cell.all_ok()) {
      json.Field("ok", cell.ok).Field("degraded", cell.degraded).Field("failed", cell.failed);
    }
    json.Field("reps", cell.total_ms.count())
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.TakeString();
}

}  // namespace faasnap
