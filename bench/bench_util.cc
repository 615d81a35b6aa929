#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "src/obs/trace_export.h"

namespace faasnap {
namespace bench {

namespace {

TraceGenerator MakeGenerator(const std::string& function, const GuestLayout& layout) {
  Result<FunctionSpec> spec = FindFunction(function);
  FAASNAP_CHECK_OK(spec.status());
  return TraceGenerator(*spec, layout);
}

// Owns the process-wide bundle and flushes it at exit, so every bench driver
// gets --trace-out-style artifacts without touching its argument parsing.
struct ObsSink {
  std::unique_ptr<Observability> obs;
  std::unique_ptr<std::ofstream> timeline_out;
  std::string trace_path;
  std::string metrics_path;
  std::string timeline_path;
  std::string forensics_path;

  ObsSink() {
    const char* trace = std::getenv("FAASNAP_TRACE_OUT");
    const char* metrics = std::getenv("FAASNAP_METRICS_OUT");
    const char* timeline = std::getenv("FAASNAP_TIMELINE_OUT");
    const char* forensics = std::getenv("FAASNAP_FORENSICS_OUT");
    if (trace != nullptr) {
      trace_path = trace;
    }
    if (metrics != nullptr) {
      metrics_path = metrics;
    }
    if (timeline != nullptr) {
      timeline_path = timeline;
    }
    if (forensics != nullptr) {
      forensics_path = forensics;
    }
    if (trace_path.empty() && metrics_path.empty() && timeline_path.empty() &&
        forensics_path.empty()) {
      return;
    }
    obs = std::make_unique<Observability>();
    if (!timeline_path.empty()) {
      timeline_out = std::make_unique<std::ofstream>(timeline_path);
      MetricsTimelineConfig config;
      if (const char* window_us = std::getenv("FAASNAP_TIMELINE_WINDOW_US")) {
        config.window = Duration::Micros(std::atoll(window_us));
      }
      std::ofstream* out = timeline_out.get();
      obs->timeline.Configure(&obs->metrics, config,
                              [out](const std::string& line) { *out << line << "\n"; });
    }
    if (!forensics_path.empty()) {
      // FAASNAP_FORENSICS_OUT enables tail-based forensics: spans go to the
      // recorder's recycling buffer instead of the run-wide tracer, and the
      // trace artifact (if also requested) holds only retained invocations.
      obs->forensics.Configure(ForensicsConfig{}, &obs->metrics);
    }
  }

  ~ObsSink() {
    if (obs == nullptr) {
      return;
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      out << (obs->forensics.enabled() ? obs->forensics.ExportRetainedTrace()
                                       : ExportChromeTrace(obs->spans));
      std::fprintf(stderr, "bench: wrote trace to %s\n", trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      out << obs->metrics.ToJson();
      std::fprintf(stderr, "bench: wrote metrics to %s\n", metrics_path.c_str());
    }
    if (obs->timeline.enabled()) {
      obs->timeline.Flush(SimTime());
      timeline_out->flush();
      std::fprintf(stderr, "bench: wrote timeline to %s\n", timeline_path.c_str());
    }
    if (!forensics_path.empty()) {
      std::ofstream out(forensics_path);
      out << obs->forensics.SummaryToJson();
      std::fprintf(stderr, "bench: wrote forensics to %s\n", forensics_path.c_str());
    }
  }
};

}  // namespace

Observability* BenchObservability() {
  static ObsSink sink;
  return sink.obs.get();
}

Experiment::Experiment(const std::string& function, PlatformConfig config)
    : platform_(config), generator_(MakeGenerator(function, config.layout)) {
  if (Observability* obs = BenchObservability()) {
    if (!obs->forensics.enabled()) {
      // Under forensics the platform records into the recorder's recycling
      // buffer; the run-wide tracer stays empty and needs no track.
      obs->spans.BeginTrack(function);
    }
    obs->timeline.BeginEpoch(function);
    platform_.set_observability(obs);
  }
}

void Experiment::Record(const WorkloadInput& record_input) {
  FAASNAP_CHECK(!recorded_);
  snapshot_ = platform_.Record(generator_, record_input);
  recorded_ = true;
}

InvocationReport Experiment::Invoke(RestoreMode mode, const WorkloadInput& test_input) {
  FAASNAP_CHECK(recorded_);
  platform_.DropCaches();
  return platform_.Invoke(snapshot_, mode, generator_, test_input);
}

void PrintBanner(const std::string& figure, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace bench
}  // namespace faasnap
