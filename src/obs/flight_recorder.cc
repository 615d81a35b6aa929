#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/common/json_writer.h"
#include "src/common/status.h"
#include "src/obs/trace_export.h"

namespace faasnap {

namespace {

// Must match CriticalPathBreakdown's partition categories.
constexpr std::string_view kPhaseNames[] = {"dispatch",  "setup_cpu", "setup_disk",
                                            "guest_run", "fault_cpu", "uffd_wait",
                                            "disk_wait", "other"};
constexpr size_t kPhaseCount = sizeof(kPhaseNames) / sizeof(kPhaseNames[0]);

Duration PhaseValue(const CriticalPathBreakdown& bd, size_t phase) {
  switch (phase) {
    case 0:
      return bd.dispatch;
    case 1:
      return bd.setup_cpu;
    case 2:
      return bd.setup_disk;
    case 3:
      return bd.guest_run;
    case 4:
      return bd.fault_cpu;
    case 5:
      return bd.uffd_wait;
    case 6:
      return bd.disk_wait;
    default:
      return bd.other;
  }
}

// Lexicographic (total, seq): used both as the heap order (front = fastest)
// and as the strict "candidate beats the current fastest" eviction test —
// seq breaks ties deterministically.
bool Slower(Duration a_total, uint64_t a_seq, Duration b_total, uint64_t b_seq) {
  if (a_total != b_total) {
    return a_total > b_total;
  }
  return a_seq > b_seq;
}

// Heap comparator: "slower orders earlier" makes the *fastest* retained
// invocation the heap front, i.e. the eviction candidate.
bool HeapBefore(const FlightRecorder::RetainedInvocation& a,
                const FlightRecorder::RetainedInvocation& b) {
  return Slower(a.total, a.seq, b.total, b.seq);
}

// Latency histogram spanning 1us .. ~16s: wide enough for whole invocations.
constexpr Duration kDigestLower = Duration::Micros(1);
constexpr int kDigestBuckets = 24;

void HistogramFields(JsonWriter* json, const Log2Histogram& h) {
  json->Field("count", h.total_count())
      .Field("total_ns", static_cast<int64_t>(h.total_time().nanos()));
  if (h.total_count() > 0) {
    json->Field("mean_ns", static_cast<int64_t>(h.mean().nanos()))
        .Field("p50_ns", static_cast<int64_t>(h.EstimateQuantile(0.50).nanos()))
        .Field("p95_ns", static_cast<int64_t>(h.EstimateQuantile(0.95).nanos()))
        .Field("p99_ns", static_cast<int64_t>(h.EstimateQuantile(0.99).nanos()));
  }
}

}  // namespace

void FlightRecorder::Configure(const ForensicsConfig& config, MetricsRegistry* metrics) {
  FAASNAP_CHECK(buffer_ == nullptr && "flight recorder configured twice");
  FAASNAP_CHECK(config.buffer_capacity > 0);
  config_ = config;
  buffer_ = std::make_unique<SpanTracer>(config.buffer_capacity);
  total_digest_ = std::make_unique<Log2Histogram>(kDigestLower, kDigestBuckets);
  phase_digests_.reserve(kPhaseCount);
  for (size_t i = 0; i < kPhaseCount; ++i) {
    phase_digests_.push_back(std::make_unique<Log2Histogram>(kDigestLower, kDigestBuckets));
  }
  if (metrics != nullptr) {
    for (int i = 0; i < kInvocationOutcomeCount; ++i) {
      outcome_metrics_[i] = metrics->GetCounter(
          "forensics.invocations",
          {{"outcome", std::string(InvocationOutcomeName(static_cast<InvocationOutcome>(i)))}});
    }
    retained_slowest_metric_ =
        metrics->GetCounter("forensics.retained", {{"reason", "slowest"}});
    retained_non_ok_metric_ =
        metrics->GetCounter("forensics.retained", {{"reason", "non_ok"}});
    dropped_non_ok_metric_ = metrics->GetCounter("forensics.dropped_non_ok");
    total_metric_ =
        metrics->GetHistogram("forensics.total_ns", {}, kDigestLower, kDigestBuckets);
  }
}

void FlightRecorder::OnInvokeBegin() {
  if (!enabled()) {
    return;
  }
  ++in_flight_;
}

void FlightRecorder::OnInvokeEnd(SpanId invoke_span, InvocationOutcome outcome,
                                 std::string_view function, Duration total) {
  if (!enabled()) {
    return;
  }
  const uint64_t seq = static_cast<uint64_t>(invocations_);
  ++invocations_;
  const size_t idx = static_cast<size_t>(outcome);
  ++outcome_counts_[idx];
  if (outcome_metrics_[idx] != nullptr) {
    outcome_metrics_[idx]->Add();
  }
  total_digest_->Record(total);
  if (total_metric_ != nullptr) {
    total_metric_->Record(total);
  }

  std::optional<CriticalPathBreakdown> bd = AnalyzeInvokeSpan(*buffer_, invoke_span);
  if (!bd.has_value()) {
    // Buffer exhausted before the invoke span was opened: the invocation
    // still counts in the digests above, just with no phase attribution.
    ++unanalyzed_;
  } else {
    for (size_t i = 0; i < kPhaseCount; ++i) {
      phase_digests_[i]->Record(PhaseValue(*bd, i));
    }
    if (outcome != InvocationOutcome::kOk) {
      if (non_ok_.size() < config_.max_non_ok) {
        non_ok_.push_back(Extract(invoke_span, outcome, function, total, *bd));
        non_ok_.back().seq = seq;
        if (retained_non_ok_metric_ != nullptr) {
          retained_non_ok_metric_->Add();
        }
      } else {
        ++dropped_non_ok_;
        if (dropped_non_ok_metric_ != nullptr) {
          dropped_non_ok_metric_->Add();
        }
      }
    } else if (config_.slowest_k > 0) {
      const bool room = slowest_.size() < config_.slowest_k;
      if (room || Slower(total, seq, slowest_.front().total, slowest_.front().seq)) {
        if (!room) {
          std::pop_heap(slowest_.begin(), slowest_.end(), HeapBefore);
          slowest_.pop_back();
        }
        slowest_.push_back(Extract(invoke_span, outcome, function, total, *bd));
        slowest_.back().seq = seq;
        std::push_heap(slowest_.begin(), slowest_.end(), HeapBefore);
        if (retained_slowest_metric_ != nullptr) {
          retained_slowest_metric_->Add();
        }
      }
    }
  }

  if (in_flight_ > 0) {
    --in_flight_;
  }
  MaybeRecycle();
}

void FlightRecorder::MaybeRecycle() {
  if (!enabled() || in_flight_ != 0) {
    return;
  }
  if (buffer_->records().empty() || buffer_->open_spans() != 0) {
    return;
  }
  buffer_->Clear();
  ++recycles_;
}

FlightRecorder::RetainedInvocation FlightRecorder::Extract(
    SpanId invoke_span, InvocationOutcome outcome, std::string_view function, Duration total,
    const CriticalPathBreakdown& breakdown) const {
  RetainedInvocation out;
  out.function = std::string(function);
  out.outcome = outcome;
  out.total = total;
  out.breakdown = breakdown;
  const std::vector<SpanRecord>& records = buffer_->records();
  if (invoke_span == kNoSpan || invoke_span > records.size()) {
    return out;
  }
  const SpanRecord& invoke = records[invoke_span - 1];
  const int64_t lo = invoke.start.nanos();
  const int64_t hi = invoke.end.nanos();

  // Subtree membership, memoized along each parent chain.
  std::vector<int8_t> member(records.size() + 1, 0);  // 0 unknown, 1 in, 2 out
  member[invoke_span] = 1;
  std::vector<SpanId> path;
  const auto in_subtree = [&](SpanId id) {
    path.clear();
    SpanId cur = id;
    while (cur != kNoSpan && member[cur] == 0) {
      path.push_back(cur);
      cur = records[cur - 1].parent;
    }
    const int8_t verdict = cur == kNoSpan ? 2 : member[cur];
    for (SpanId p : path) {
      member[p] = verdict;
    }
    return verdict == 1;
  };

  std::vector<uint32_t> remap(records.size() + 1, 0);
  std::map<uint32_t, uint32_t> name_map;  // buffer name id -> local id
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& rec = records[i];
    const SpanId id = static_cast<SpanId>(i + 1);
    bool keep = in_subtree(id);
    if (!keep && rec.lane == ObsLane::kDisk && rec.track == invoke.track) {
      // Disk service intervals count against the invocation even when issued
      // by someone else (the analyzer's rule); retain them for the same reason.
      const int64_t s = rec.start.nanos();
      const int64_t e = (rec.open ? invoke.end : rec.end).nanos();
      keep = s < hi && e > lo;
    }
    if (!keep) {
      continue;
    }
    SpanRecord copy = rec;
    copy.parent = remap[rec.parent];  // 0 when the parent was not retained
    copy.track = 0;
    auto [it, inserted] = name_map.emplace(rec.name, static_cast<uint32_t>(out.names.size()));
    if (inserted) {
      out.names.emplace_back(buffer_->name(rec.name));
    }
    copy.name = it->second;
    remap[id] = static_cast<uint32_t>(out.spans.size() + 1);
    out.spans.push_back(copy);
  }
  return out;
}

std::string FlightRecorder::ExportRetainedTrace() const {
  std::vector<const RetainedInvocation*> all;
  all.reserve(slowest_.size() + non_ok_.size());
  for (const RetainedInvocation& inv : slowest_) {
    all.push_back(&inv);
  }
  for (const RetainedInvocation& inv : non_ok_) {
    all.push_back(&inv);
  }
  std::sort(all.begin(), all.end(),
            [](const RetainedInvocation* a, const RetainedInvocation* b) {
              return a->seq < b->seq;
            });

  size_t total_spans = 1;
  for (const RetainedInvocation* inv : all) {
    total_spans += inv->spans.size();
  }
  SpanTracer replay(total_spans);
  for (const RetainedInvocation* inv : all) {
    char label[192];
    std::snprintf(label, sizeof(label), "inv %llu %s %s",
                  static_cast<unsigned long long>(inv->seq), inv->function.c_str(),
                  std::string(InvocationOutcomeName(inv->outcome)).c_str());
    replay.BeginTrack(label);
    std::vector<SpanId> ids(inv->spans.size() + 1, kNoSpan);
    for (size_t j = 0; j < inv->spans.size(); ++j) {
      const SpanRecord& rec = inv->spans[j];
      const SpanId parent = rec.parent == 0 ? kNoSpan : ids[rec.parent];
      const std::string& name = inv->names[rec.name];
      if (rec.instant) {
        ids[j + 1] = replay.Instant(rec.start, rec.lane, name, rec.arg0, rec.arg1, parent);
      } else {
        const SpanId id = replay.Begin(rec.start, rec.lane, name, rec.arg0, rec.arg1, parent);
        if (!rec.open) {
          replay.End(id, rec.end);
        }
        ids[j + 1] = id;
      }
    }
  }
  return ExportChromeTrace(replay);
}

std::string FlightRecorder::SummaryToJson() const {
  if (!enabled()) {
    return "{\"enabled\":false}";
  }
  JsonWriter json;
  json.BeginObject()
      .Field("invocations", invocations_)
      .Field("ok", outcome_counts_[0])
      .Field("degraded", outcome_counts_[1])
      .Field("failed", outcome_counts_[2])
      .Field("shed_queue_full", outcome_counts_[3])
      .Field("shed_deadline", outcome_counts_[4])
      .Field("unanalyzed", unanalyzed_)
      .Field("slowest_k", static_cast<int64_t>(config_.slowest_k))
      .Field("max_non_ok", static_cast<int64_t>(config_.max_non_ok))
      .Field("retained_slowest", static_cast<int64_t>(slowest_.size()))
      .Field("retained_non_ok", static_cast<int64_t>(non_ok_.size()))
      .Field("dropped_non_ok", dropped_non_ok_)
      .Field("recycles", recycles_);

  json.Key("digests").BeginObject();
  json.Key("total").BeginObject();
  HistogramFields(&json, *total_digest_);
  json.EndObject();
  json.Key("phases").BeginObject();
  for (size_t i = 0; i < kPhaseCount; ++i) {
    json.Key(std::string(kPhaseNames[i])).BeginObject();
    HistogramFields(&json, *phase_digests_[i]);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();

  std::vector<const RetainedInvocation*> all;
  all.reserve(slowest_.size() + non_ok_.size());
  for (const RetainedInvocation& inv : slowest_) {
    all.push_back(&inv);
  }
  for (const RetainedInvocation& inv : non_ok_) {
    all.push_back(&inv);
  }
  std::sort(all.begin(), all.end(),
            [](const RetainedInvocation* a, const RetainedInvocation* b) {
              return a->seq < b->seq;
            });
  json.Key("retained").BeginArray();
  for (const RetainedInvocation* inv : all) {
    json.BeginObject()
        .Field("seq", inv->seq)
        .Field("function", inv->function)
        .Field("outcome", std::string(InvocationOutcomeName(inv->outcome)))
        .Field("total_ns", inv->total)
        .Field("spans", static_cast<int64_t>(inv->spans.size()))
        .Field("dispatch_ns", inv->breakdown.dispatch.nanos())
        .Field("setup_cpu_ns", inv->breakdown.setup_cpu.nanos())
        .Field("setup_disk_ns", inv->breakdown.setup_disk.nanos())
        .Field("guest_run_ns", inv->breakdown.guest_run.nanos())
        .Field("fault_cpu_ns", inv->breakdown.fault_cpu.nanos())
        .Field("uffd_wait_ns", inv->breakdown.uffd_wait.nanos())
        .Field("disk_wait_ns", inv->breakdown.disk_wait.nanos())
        .Field("other_ns", inv->breakdown.other.nanos())
        .Field("faults", inv->breakdown.faults)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.TakeString();
}

}  // namespace faasnap
