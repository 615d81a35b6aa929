// Tests for the FlightRecorder: slowest-K tail retention exactness, non-ok
// retention and its overflow cap, buffer recycling bounds, exact critical-path
// partition for degraded/failed invocations, outcome propagation into the
// exported trace, and the digest document.

#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/json.h"
#include "src/obs/observability.h"
#include "src/runtime/platform.h"
#include "src/workloads/function_spec.h"

namespace faasnap {
namespace {

// Records one synthetic invocation into the recorder's buffer: an invoke span
// starting at `start_ns` with a dispatch+setup+invocation skeleton, then
// commits it with `outcome`.
void Invoke(FlightRecorder* rec, int64_t start_ns, int64_t total_ns, InvocationOutcome outcome,
            const std::string& function = "json") {
  rec->OnInvokeBegin();
  SpanTracer* spans = rec->buffer();
  const SimTime start = SimTime::FromNanos(start_ns);
  const SimTime end = SimTime::FromNanos(start_ns + total_ns);
  const SpanId invoke = spans->Begin(start, ObsLane::kDaemon, obsname::kInvoke);
  // dispatch covers the first fifth, setup the next fifth, guest the rest.
  const int64_t fifth = total_ns / 5;
  spans->Complete(start, start + Duration::Nanos(fifth), ObsLane::kDaemon, obsname::kDispatch,
                  0, 0, invoke);
  const SpanId setup = spans->Begin(start + Duration::Nanos(fifth), ObsLane::kDaemon,
                                    obsname::kSetup, 0, 0, invoke);
  spans->End(setup, start + Duration::Nanos(2 * fifth));
  const SpanId invocation = spans->Begin(start + Duration::Nanos(2 * fifth), ObsLane::kVcpu,
                                         obsname::kInvocation, 0, 0, invoke);
  spans->End(invocation, end);
  spans->End(invoke, end, static_cast<uint64_t>(outcome));
  rec->OnInvokeEnd(invoke, outcome, function, Duration::Nanos(total_ns));
}

std::multiset<int64_t> RetainedTotals(const std::vector<FlightRecorder::RetainedInvocation>& v) {
  std::multiset<int64_t> totals;
  for (const auto& r : v) {
    totals.insert(r.total.nanos());
  }
  return totals;
}

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.OnInvokeBegin();
  rec.OnInvokeEnd(kNoSpan, InvocationOutcome::kOk, "json", Duration::Nanos(100));
  rec.MaybeRecycle();
  EXPECT_EQ(rec.invocations(), 0);
  EXPECT_EQ(rec.SummaryToJson(), "{\"enabled\":false}");
}

TEST(FlightRecorderTest, RetainsExactlyTheSlowestK) {
  FlightRecorder rec;
  ForensicsConfig config;
  config.slowest_k = 3;
  rec.Configure(config, nullptr);
  // Interleaved order so retention cannot rely on monotonic arrival.
  const int64_t totals[] = {50'000, 90'000, 10'000, 100'000, 30'000,
                            70'000, 20'000, 80'000, 40'000, 60'000};
  int64_t start = 0;
  for (const int64_t t : totals) {
    Invoke(&rec, start, t, InvocationOutcome::kOk);
    start += 1'000'000;
  }
  EXPECT_EQ(rec.invocations(), 10);
  EXPECT_EQ(rec.outcome_count(InvocationOutcome::kOk), 10);
  const std::multiset<int64_t> kept = RetainedTotals(rec.retained_slowest());
  EXPECT_EQ(kept, (std::multiset<int64_t>{80'000, 90'000, 100'000}));
  EXPECT_TRUE(rec.retained_non_ok().empty());
}

TEST(FlightRecorderTest, SlownessTiesBreakTowardRecentInvocations) {
  FlightRecorder rec;
  ForensicsConfig config;
  config.slowest_k = 2;
  rec.Configure(config, nullptr);
  for (int i = 0; i < 5; ++i) {
    Invoke(&rec, i * 1'000'000, 50'000, InvocationOutcome::kOk);
  }
  std::vector<uint64_t> seqs;
  for (const auto& r : rec.retained_slowest()) {
    seqs.push_back(r.seq);
  }
  std::sort(seqs.begin(), seqs.end());
  // Equal totals: a later arrival ranks as slower, so the retained set drifts
  // toward the most recent exemplars of the tail.
  EXPECT_EQ(seqs, (std::vector<uint64_t>{3, 4}));
}

TEST(FlightRecorderTest, NonOkAlwaysRetainedUpToCap) {
  FlightRecorder rec;
  ForensicsConfig config;
  config.slowest_k = 1;
  config.max_non_ok = 2;
  rec.Configure(config, nullptr);
  // Fast failures: far from the slowest tail, still retained.
  Invoke(&rec, 0, 1'000, InvocationOutcome::kDegraded);
  Invoke(&rec, 1'000'000, 2'000, InvocationOutcome::kFailed);
  Invoke(&rec, 2'000'000, 3'000, InvocationOutcome::kFailed);  // over the cap
  Invoke(&rec, 3'000'000, 999'000, InvocationOutcome::kOk);
  EXPECT_EQ(rec.outcome_count(InvocationOutcome::kDegraded), 1);
  EXPECT_EQ(rec.outcome_count(InvocationOutcome::kFailed), 2);
  ASSERT_EQ(rec.retained_non_ok().size(), 2u);
  EXPECT_EQ(rec.retained_non_ok()[0].outcome, InvocationOutcome::kDegraded);
  EXPECT_EQ(rec.retained_non_ok()[1].outcome, InvocationOutcome::kFailed);
  EXPECT_EQ(rec.dropped_non_ok(), 1);
  // The digests still saw the dropped one.
  EXPECT_EQ(rec.invocations(), 4);
}

TEST(FlightRecorderTest, BufferRecyclesBetweenInvocations) {
  FlightRecorder rec;
  ForensicsConfig config;
  config.slowest_k = 2;
  config.buffer_capacity = 64;  // tiny: 100k-style soaks only work if recycled
  rec.Configure(config, nullptr);
  for (int i = 0; i < 500; ++i) {
    Invoke(&rec, i * 1'000'000, 10'000 + i, InvocationOutcome::kOk);
  }
  EXPECT_EQ(rec.invocations(), 500);
  EXPECT_GT(rec.recycles(), 0);
  // No invocation ever hit the capacity wall: every one was analyzed.
  EXPECT_EQ(rec.unanalyzed(), 0);
  EXPECT_EQ(RetainedTotals(rec.retained_slowest()),
            (std::multiset<int64_t>{10'498, 10'499}));
}

TEST(FlightRecorderTest, MissingInvokeSpanCountsAsUnanalyzed) {
  FlightRecorder rec;
  rec.Configure(ForensicsConfig{}, nullptr);
  rec.OnInvokeBegin();
  rec.OnInvokeEnd(kNoSpan, InvocationOutcome::kOk, "json", Duration::Nanos(5'000));
  EXPECT_EQ(rec.invocations(), 1);
  EXPECT_EQ(rec.unanalyzed(), 1);
}

// Satellite: the critical-path partition must hold for non-ok invocations
// exactly as for ok ones — phases partition the invoke window with no gap.
TEST(FlightRecorderTest, DegradedAndFailedBreakdownsPartitionExactly) {
  FlightRecorder rec;
  rec.Configure(ForensicsConfig{}, nullptr);
  Invoke(&rec, 0, 100'000, InvocationOutcome::kDegraded);
  Invoke(&rec, 1'000'000, 60'000, InvocationOutcome::kFailed);
  ASSERT_EQ(rec.retained_non_ok().size(), 2u);
  for (const auto& r : rec.retained_non_ok()) {
    EXPECT_EQ(r.breakdown.Sum().nanos(), r.total.nanos())
        << "phases must partition the invoke window exactly";
    EXPECT_EQ(r.breakdown.total.nanos(), r.total.nanos());
    // The skeleton spends 1/5 dispatching and 1/5 in setup.
    EXPECT_EQ(r.breakdown.dispatch.nanos(), r.total.nanos() / 5);
    EXPECT_EQ(r.breakdown.setup_cpu.nanos(), r.total.nanos() / 5);
    EXPECT_EQ(r.breakdown.guest_run.nanos(), r.total.nanos() - 2 * (r.total.nanos() / 5));
  }
}

TEST(FlightRecorderTest, OutcomeReachesExportedTrace) {
  FlightRecorder rec;
  ForensicsConfig config;
  config.slowest_k = 1;
  rec.Configure(config, nullptr);
  Invoke(&rec, 0, 80'000, InvocationOutcome::kDegraded, "pyaes");
  Invoke(&rec, 1'000'000, 90'000, InvocationOutcome::kOk, "json");
  const std::string trace = rec.ExportRetainedTrace();
  // One track per retained invocation, labeled with seq, function, outcome.
  EXPECT_NE(trace.find("inv 0 pyaes degraded"), std::string::npos) << trace;
  EXPECT_NE(trace.find("inv 1 json ok"), std::string::npos) << trace;
}

TEST(FlightRecorderTest, SummaryDigestIsValidJsonWithRetainedIndex) {
  FlightRecorder rec;
  ForensicsConfig config;
  config.slowest_k = 2;
  rec.Configure(config, nullptr);
  Invoke(&rec, 0, 40'000, InvocationOutcome::kOk);
  Invoke(&rec, 1'000'000, 90'000, InvocationOutcome::kOk);
  Invoke(&rec, 2'000'000, 5'000, InvocationOutcome::kFailed);
  Result<JsonValue> doc = ParseJson(rec.SummaryToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetIntOr("invocations", -1), 3);
  EXPECT_EQ(doc->GetIntOr("ok", -1), 2);
  EXPECT_EQ(doc->GetIntOr("failed", -1), 1);
  EXPECT_EQ(doc->GetIntOr("retained_slowest", -1), 2);
  EXPECT_EQ(doc->GetIntOr("retained_non_ok", -1), 1);
  Result<JsonValue> retained = doc->Get("retained");
  ASSERT_TRUE(retained.ok() && retained->is_array());
  ASSERT_EQ(retained->array().size(), 3u);
  // Sorted by seq; each entry carries the phase breakdown and outcome.
  EXPECT_EQ(retained->array()[0].GetIntOr("seq", -1), 0);
  EXPECT_EQ(retained->array()[2].GetStringOr("outcome", ""), "failed");
  EXPECT_TRUE(retained->array()[0].Has("guest_run_ns"));
  Result<JsonValue> digests = doc->Get("digests");
  ASSERT_TRUE(digests.ok() && digests->is_object());
  EXPECT_TRUE(digests->Has("total"));
}

// Conditional registration: the forensics series exist only when a registry
// is supplied — and then they mirror the internal tallies.
TEST(FlightRecorderTest, MetricsRegisteredOnlyWithRegistry) {
  MetricsRegistry bare;
  EXPECT_EQ(bare.size(), 0u);

  MetricsRegistry registry;
  FlightRecorder rec;
  ForensicsConfig config;
  config.slowest_k = 1;
  config.max_non_ok = 1;
  rec.Configure(config, &registry);
  EXPECT_GT(registry.size(), 0u);
  Invoke(&rec, 0, 50'000, InvocationOutcome::kOk);
  Invoke(&rec, 1'000'000, 70'000, InvocationOutcome::kDegraded);
  Invoke(&rec, 2'000'000, 80'000, InvocationOutcome::kDegraded);  // over cap
  EXPECT_EQ(registry.GetCounter("forensics.invocations", {{"outcome", "ok"}})->Get(), 1);
  EXPECT_EQ(registry.GetCounter("forensics.invocations", {{"outcome", "degraded"}})->Get(), 2);
  EXPECT_EQ(registry.GetCounter("forensics.retained", {{"reason", "slowest"}})->Get(), 1);
  EXPECT_EQ(registry.GetCounter("forensics.retained", {{"reason", "non_ok"}})->Get(), 1);
  EXPECT_EQ(registry.GetCounter("forensics.dropped_non_ok")->Get(), 1);
}

// End-to-end through Platform: forensics on, invoke through every layer, and
// check the recorder observed the invocations and retained analyzable trees.
TEST(FlightRecorderTest, PlatformDrivesRecorderEndToEnd) {
  Observability obs;
  ForensicsConfig config;
  config.slowest_k = 2;
  obs.forensics.Configure(config, &obs.metrics);
  PlatformConfig platform_config;
  platform_config.seed = 7;
  Platform platform(platform_config);
  platform.set_observability(&obs);
  Result<FunctionSpec> spec = FindFunction("json");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, platform_config.layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
  for (int i = 0; i < 5; ++i) {
    platform.DropCaches();
    InvocationReport report =
        platform.Invoke(snapshot, RestoreMode::kReap, generator, MakeInputA(*spec));
    EXPECT_EQ(report.outcome, InvocationOutcome::kOk);
  }
  EXPECT_EQ(obs.forensics.invocations(), 5);
  EXPECT_EQ(obs.forensics.outcome_count(InvocationOutcome::kOk), 5);
  EXPECT_EQ(obs.forensics.unanalyzed(), 0);
  EXPECT_GT(obs.forensics.recycles(), 0);
  ASSERT_EQ(obs.forensics.retained_slowest().size(), 2u);
  for (const auto& r : obs.forensics.retained_slowest()) {
    EXPECT_EQ(r.breakdown.Sum().nanos(), r.total.nanos());
    EXPECT_FALSE(r.spans.empty());
  }
  // The retained trace is valid JSON and the digest parses.
  EXPECT_TRUE(ParseJson(obs.forensics.ExportRetainedTrace()).ok());
  EXPECT_TRUE(ParseJson(obs.forensics.SummaryToJson()).ok());
}

}  // namespace
}  // namespace faasnap
