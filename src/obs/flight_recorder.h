// FlightRecorder: always-on per-invocation forensics with tail-based span
// retention.
//
// Full tracing keeps every span of every invocation — unaffordable past a few
// thousand invocations. The flight recorder inverts the deal: components
// record spans into a small *buffer* tracer exactly as they would into the
// real one, and at invoke end the recorder decides the invocation's fate:
//
//   * every invocation feeds the streaming digests — outcome counts plus
//     per-phase critical-path histograms (AnalyzeInvokeSpan partitions the
//     invoke window exactly, for ok, degraded, and failed outcomes alike);
//   * full span detail is *retained* only for the slowest-K invocations and
//     every non-ok outcome (up to a cap) — tail sampling: the p99 cold start
//     in a million-invocation soak run still exports a complete span tree;
//   * everything else is dropped when the buffer recycles.
//
// The buffer recycles (SpanTracer::Clear) once no invocation is in flight and
// no span is still open, so its footprint tracks the *concurrent* span count,
// not run length. Clear preserves the intern table, keeping name ids cached by
// components (FaultEngine et al.) valid across recycles.
//
// Like every obs component the recorder is passive and deterministic: it is
// driven synchronously from Platform's invoke-completion path on the
// simulation thread and never schedules events or reads clocks. When a
// MetricsRegistry is supplied, the forensics series (`forensics.invocations`,
// `forensics.retained`, ...) are registered there — only then, following the
// conditional-registration rule, so recorder-free metric snapshots stay
// bit-identical.

#ifndef FAASNAP_SRC_OBS_FLIGHT_RECORDER_H_
#define FAASNAP_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/invocation_outcome.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_tracer.h"

namespace faasnap {

struct ForensicsConfig {
  // Retain full span detail for the K slowest ok invocations...
  size_t slowest_k = 16;
  // ...and for every non-ok invocation up to this cap (first-come, the same
  // drop-when-full policy as the span tracer; overflow is counted). Shed
  // outcomes count as non-ok: an overloaded host's drops are exactly what a
  // post-incident reader wants span detail for.
  size_t max_non_ok = 1024;
  // Span-buffer capacity: bounds *concurrent* spans, not run length.
  size_t buffer_capacity = size_t{1} << 16;
};

class FlightRecorder {
 public:
  // One retained invocation: a self-contained span tree (parents and names
  // rebased into this struct) plus its exact phase partition.
  struct RetainedInvocation {
    uint64_t seq = 0;  // invocation ordinal within the recorder's lifetime
    std::string function;
    InvocationOutcome outcome = InvocationOutcome::kOk;
    Duration total;
    CriticalPathBreakdown breakdown;
    std::vector<SpanRecord> spans;   // rec.name indexes `names`, 1-based parents
    std::vector<std::string> names;  // local intern table
  };

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Enables the recorder. `metrics` may be null (digest counters then live
  // only in SummaryToJson); if given it must outlive the recorder.
  void Configure(const ForensicsConfig& config, MetricsRegistry* metrics);

  bool enabled() const { return buffer_ != nullptr; }

  // The buffer components record into while forensics is active (Platform
  // points its span sink here instead of at a run-wide tracer).
  SpanTracer* buffer() { return buffer_.get(); }

  // Invocation lifecycle, driven by Platform. Begin marks a request in
  // flight; End analyzes + commits-or-drops the buffered spans and recycles
  // the buffer when nothing else is in flight. `invoke_span` may be kNoSpan
  // (buffer exhausted): the invocation still counts, with no span detail.
  void OnInvokeBegin();
  void OnInvokeEnd(SpanId invoke_span, InvocationOutcome outcome, std::string_view function,
                   Duration total);

  // Recycles the buffer if safe (no invocation in flight, no open span).
  // Platform calls this after non-invocation phases (Record) too.
  void MaybeRecycle();

  // Streaming totals.
  int64_t invocations() const { return invocations_; }
  int64_t outcome_count(InvocationOutcome outcome) const {
    return outcome_counts_[static_cast<int>(outcome)];
  }
  int64_t dropped_non_ok() const { return dropped_non_ok_; }
  int64_t unanalyzed() const { return unanalyzed_; }
  int64_t recycles() const { return recycles_; }

  // Retained sets (tests, exporters). Slowest-K is heap-ordered, not sorted.
  const std::vector<RetainedInvocation>& retained_slowest() const { return slowest_; }
  const std::vector<RetainedInvocation>& retained_non_ok() const { return non_ok_; }

  // Chrome-trace JSON of every retained invocation, one track per invocation
  // ("inv <seq> <function> <outcome>"), ordered by seq.
  std::string ExportRetainedTrace() const;

  // Digest document: outcome counts, retention counts, per-phase latency
  // histograms (count/total/p50/p95/p99 per phase), and the retained index.
  std::string SummaryToJson() const;

 private:
  RetainedInvocation Extract(SpanId invoke_span, InvocationOutcome outcome,
                             std::string_view function, Duration total,
                             const CriticalPathBreakdown& breakdown) const;

  ForensicsConfig config_;
  std::unique_ptr<SpanTracer> buffer_;

  // Streaming digests: every invocation lands here, retained or not.
  int64_t invocations_ = 0;
  int64_t outcome_counts_[kInvocationOutcomeCount] = {};
  int64_t unanalyzed_ = 0;  // invoke span missing (buffer full): no breakdown
  int64_t recycles_ = 0;
  std::unique_ptr<Log2Histogram> total_digest_;
  std::vector<std::unique_ptr<Log2Histogram>> phase_digests_;  // kPhaseCount

  // Tail retention.
  std::vector<RetainedInvocation> slowest_;  // min-heap by (total, seq)
  std::vector<RetainedInvocation> non_ok_;
  int64_t dropped_non_ok_ = 0;
  size_t in_flight_ = 0;

  // Conditionally registered series (null without a registry).
  Counter* outcome_metrics_[kInvocationOutcomeCount] = {};
  Counter* retained_slowest_metric_ = nullptr;
  Counter* retained_non_ok_metric_ = nullptr;
  Counter* dropped_non_ok_metric_ = nullptr;
  Log2Histogram* total_metric_ = nullptr;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_OBS_FLIGHT_RECORDER_H_
