// Extension: observability soak harness — bounded-memory forensics + timeline
// under a long invocation rotation.
//
// Full tracing cannot survive a soak run: span memory grows with run length.
// This harness runs a long rotation of invocations (default 2000; the
// acceptance soak uses 100000) with the flight recorder and the windowed
// metrics timeline both enabled, light deterministic chaos mixed in so
// degraded/failed outcomes occur, and then checks the observability
// invariants the tail-sampling design promises:
//
//   * every invocation is accounted: outcome counts sum to N, none unanalyzed;
//   * retention is exactly slowest-K plus every non-ok outcome (up to the
//     cap, overflow counted) — nothing more survives;
//   * every retained invocation's critical-path phases partition its invoke
//     window exactly (Sum() == total), whatever the outcome;
//   * the span buffer recycles and never overflows: memory tracks concurrent
//     spans, not run length;
//   * the timeline streams valid JSONL lines whose windows advance
//     monotonically within each epoch.
//
// Usage: ext_soak [invocations] [seed] [--no-chaos] [--slowest-k=K]
//                 [--timeline-out=PATH] [--forensics-out=PATH]
//                 [--trace-out=PATH]
// Same seed => same schedule => identical tallies and digests.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json.h"

namespace faasnap {
namespace bench {
namespace {

PlatformConfig MakeSoakConfig(uint64_t seed, bool chaos) {
  PlatformConfig config;
  config.seed = seed;
  if (!chaos) {
    return config;
  }
  // ext_chaos's fault mix: enough pressure that a soak-length run keeps a
  // steady stream of degraded/failed outcomes feeding the non-ok retention
  // path. Memory files on the remote tier give outage windows a target.
  config.remote_disk = EbsIo2Profile();
  config.placement.memory_files = StorageTier::kRemote;
  config.placement.reap_ws = StorageTier::kRemote;
  config.chaos.enabled = true;
  config.chaos.seed = seed;
  config.chaos.read_error_rate = 0.02;
  config.chaos.read_delay_rate = 0.05;
  config.chaos.read_delay = Duration::Millis(2);
  // Corruption is a pure function of (seed, file_id) and the run registers
  // only ~a dozen snapshot files; a high rate guarantees some (function, mode)
  // cells demote or fail every rotation, feeding the non-ok retention path.
  config.chaos.corrupt_file_rate = 0.3;
  config.chaos.loader_stall_rate = 0.05;
  config.chaos.loader_stall = Duration::Millis(1);
  config.chaos.remote_outage_mean_gap = Duration::Millis(50);
  config.chaos.remote_outage_duration = Duration::Millis(5);
  return config;
}

struct TimelineCheck {
  int64_t lines = 0;
  int64_t parse_errors = 0;
  int64_t order_errors = 0;
  int64_t last_epoch = -1;
  int64_t last_end_ns = 0;
  size_t max_line_bytes = 0;
};

int Run(int invocations, uint64_t seed, bool chaos, size_t slowest_k,
        const char* timeline_path, const char* forensics_path, const char* trace_path) {
  PrintBanner("Extension: observability soak (forensics + timeline)",
              "bounded memory: retained = slowest-K + non-ok, buffer recycles");

  Observability obs;
  ForensicsConfig forensics_config;
  forensics_config.slowest_k = slowest_k;
  obs.forensics.Configure(forensics_config, &obs.metrics);

  std::unique_ptr<std::ofstream> timeline_out;
  if (timeline_path != nullptr) {
    timeline_out = std::make_unique<std::ofstream>(timeline_path);
  }
  TimelineCheck timeline;
  MetricsTimelineConfig timeline_config;
  timeline_config.window = Duration::Millis(10);
  obs.timeline.Configure(&obs.metrics, timeline_config, [&](const std::string& line) {
    ++timeline.lines;
    timeline.max_line_bytes = std::max(timeline.max_line_bytes, line.size());
    Result<JsonValue> doc = ParseJson(line);
    if (!doc.ok()) {
      ++timeline.parse_errors;
      return;
    }
    // Windows advance monotonically within an epoch; epochs never rewind.
    const int64_t epoch = doc->GetIntOr("epoch", -1);
    const int64_t start_ns = doc->GetIntOr("start_ns", -1);
    const int64_t end_ns = doc->GetIntOr("end_ns", -1);
    if (epoch < timeline.last_epoch || start_ns < 0 || end_ns <= start_ns ||
        (epoch == timeline.last_epoch && start_ns < timeline.last_end_ns)) {
      ++timeline.order_errors;
    }
    timeline.last_epoch = epoch;
    timeline.last_end_ns = end_ns;
    if (timeline_out != nullptr) {
      *timeline_out << line << "\n";
    }
  });
  obs.timeline.BeginEpoch("soak");

  Platform platform(MakeSoakConfig(seed, chaos));
  platform.set_observability(&obs);

  const std::vector<std::string> functions = {"json", "pyaes", "image"};
  const std::vector<RestoreMode> modes = {RestoreMode::kFaasnap, RestoreMode::kReap,
                                          RestoreMode::kFirecracker,
                                          RestoreMode::kFaasnapPerRegion};

  struct Registered {
    std::unique_ptr<TraceGenerator> generator;
    FunctionSnapshot snapshot;
  };
  std::vector<Registered> registered;
  for (const std::string& name : functions) {
    Result<FunctionSpec> spec = FindFunction(name);
    FAASNAP_CHECK_OK(spec.status());
    Registered r;
    r.generator = std::make_unique<TraceGenerator>(*spec, platform.config().layout);
    r.snapshot = platform.Record(*r.generator, MakeInputA(*spec));
    registered.push_back(std::move(r));
  }

  const FlightRecorder& rec = obs.forensics;
  std::map<std::string, int> tally;
  for (int i = 0; i < invocations; ++i) {
    Registered& r = registered[static_cast<size_t>(i) % registered.size()];
    const RestoreMode mode = modes[static_cast<size_t>(i) % modes.size()];
    platform.DropCaches();
    InvocationReport report =
        platform.Invoke(r.snapshot, mode, *r.generator, MakeInputA(r.generator->spec()));
    tally[report.OutcomeTag()]++;
  }
  obs.timeline.Flush(platform.sim()->now());

  std::printf("## outcome tally (%d invocations, seed %llu%s)\n", invocations,
              static_cast<unsigned long long>(seed), chaos ? ", chaos on" : ", chaos off");
  for (const auto& [tag, count] : tally) {
    std::printf("  %-40s %d\n", tag.c_str(), count);
  }

  const int64_t ok = rec.outcome_count(InvocationOutcome::kOk);
  const int64_t degraded = rec.outcome_count(InvocationOutcome::kDegraded);
  const int64_t failed = rec.outcome_count(InvocationOutcome::kFailed);
  const int64_t non_ok = degraded + failed;
  std::printf(
      "## forensics\n"
      "  invocations        %lld (ok %lld, degraded %lld, failed %lld)\n"
      "  retained slowest   %zu (K = %zu)\n"
      "  retained non-ok    %zu (+%lld dropped past cap %zu)\n"
      "  span buffer        capacity %zu, %llu overflowed, %lld recycles\n"
      "  timeline           %lld lines, longest %zu bytes\n",
      static_cast<long long>(rec.invocations()), static_cast<long long>(ok),
      static_cast<long long>(degraded), static_cast<long long>(failed),
      rec.retained_slowest().size(), forensics_config.slowest_k, rec.retained_non_ok().size(),
      static_cast<long long>(rec.dropped_non_ok()), forensics_config.max_non_ok,
      forensics_config.buffer_capacity,
      static_cast<unsigned long long>(obs.forensics.buffer()->dropped_records()),
      static_cast<long long>(rec.recycles()), static_cast<long long>(timeline.lines),
      timeline.max_line_bytes);

  int violations = 0;
  const auto check = [&](bool ok_cond, const char* what) {
    if (!ok_cond) {
      std::printf("VIOLATION: %s\n", what);
      ++violations;
    }
  };
  check(rec.invocations() == invocations, "every invocation is counted");
  check(ok + degraded + failed == invocations, "outcome counts sum to N");
  check(rec.unanalyzed() == 0, "every invocation has a critical-path breakdown");
  const size_t want_slowest = std::min(forensics_config.slowest_k, static_cast<size_t>(ok));
  check(rec.retained_slowest().size() == want_slowest, "slowest-K retained exactly");
  check(rec.retained_non_ok().size() + static_cast<size_t>(rec.dropped_non_ok()) ==
            static_cast<size_t>(non_ok),
        "every non-ok invocation retained or counted as dropped");
  check(rec.retained_non_ok().size() ==
            std::min(forensics_config.max_non_ok, static_cast<size_t>(non_ok)),
        "non-ok retention fills up to the cap");
  check(obs.forensics.buffer()->dropped_records() == 0, "span buffer never overflowed");
  check(rec.recycles() > 0, "span buffer recycled (memory tracks concurrency)");
  for (const std::vector<FlightRecorder::RetainedInvocation>* set :
       {&rec.retained_slowest(), &rec.retained_non_ok()}) {
    for (const FlightRecorder::RetainedInvocation& inv : *set) {
      check(inv.breakdown.Sum() == inv.breakdown.total,
            "retained breakdown phases partition the invoke window");
      check(!inv.spans.empty(), "retained invocation kept its span tree");
    }
  }
  check(timeline.lines > 0, "timeline emitted at least one window");
  check(timeline.parse_errors == 0, "every timeline line is valid JSON");
  check(timeline.order_errors == 0, "timeline windows advance monotonically");

  if (forensics_path != nullptr) {
    std::ofstream out(forensics_path);
    out << rec.SummaryToJson();
    std::printf("wrote forensics digest to %s\n", forensics_path);
  }
  if (trace_path != nullptr) {
    std::ofstream out(trace_path);
    out << rec.ExportRetainedTrace();
    std::printf("wrote retained trace to %s\n", trace_path);
  }

  if (violations == 0) {
    std::printf("SOAK INVARIANT PASS: %d invocations, retained %zu slowest + %zu non-ok, "
                "%lld buffer recycles\n",
                invocations, rec.retained_slowest().size(), rec.retained_non_ok().size(),
                static_cast<long long>(rec.recycles()));
    return 0;
  }
  std::printf("SOAK INVARIANT FAIL: %d violations\n", violations);
  return 1;
}

}  // namespace
}  // namespace bench
}  // namespace faasnap

int main(int argc, char** argv) {
  int invocations = 2000;
  uint64_t seed = 0x50AC;
  bool chaos = true;
  size_t slowest_k = 16;
  const char* timeline_out = nullptr;
  const char* forensics_out = nullptr;
  const char* trace_out = nullptr;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-chaos") == 0) {
      chaos = false;
    } else if (std::strncmp(argv[i], "--slowest-k=", 12) == 0) {
      slowest_k = static_cast<size_t>(std::strtoull(argv[i] + 12, nullptr, 10));
    } else if (std::strncmp(argv[i], "--timeline-out=", 15) == 0) {
      timeline_out = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--forensics-out=", 16) == 0) {
      forensics_out = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (positional == 0) {
      invocations = std::atoi(argv[i]);
      ++positional;
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    }
  }
  return faasnap::bench::Run(invocations, seed, chaos, slowest_k, timeline_out, forensics_out,
                             trace_out);
}
