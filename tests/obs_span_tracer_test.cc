#include "src/obs/span_tracer.h"

#include <gtest/gtest.h>

#include "src/obs/observability.h"

namespace faasnap {
namespace {

TEST(SpanTracer, NestingAndParenting) {
  SpanTracer spans;
  const SpanId root = spans.Begin(SimTime::FromNanos(0), ObsLane::kDaemon, "invoke");
  const SpanId child =
      spans.Begin(SimTime::FromNanos(10), ObsLane::kVcpu, "fault", /*arg0=*/42, 0, root);
  const SpanId grandchild =
      spans.Begin(SimTime::FromNanos(20), ObsLane::kDisk, "disk.read", 0, 4096, child);
  spans.End(grandchild, SimTime::FromNanos(30));
  spans.End(child, SimTime::FromNanos(40), /*arg1=*/2);
  spans.End(root, SimTime::FromNanos(50));

  ASSERT_EQ(spans.records().size(), 3u);
  const SpanRecord& r = spans.record(root);
  const SpanRecord& c = spans.record(child);
  const SpanRecord& g = spans.record(grandchild);
  EXPECT_EQ(r.parent, kNoSpan);
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(g.parent, child);
  EXPECT_FALSE(r.open);
  EXPECT_EQ(c.start.nanos(), 10);
  EXPECT_EQ(c.end.nanos(), 40);
  EXPECT_EQ(c.arg0, 42u);
  EXPECT_EQ(c.arg1, 2u);  // stored by the End overload
  EXPECT_EQ(spans.name(c.name), "fault");
  EXPECT_EQ(c.lane, ObsLane::kVcpu);
}

TEST(SpanTracer, InstantAndComplete) {
  SpanTracer spans;
  spans.Instant(SimTime::FromNanos(5), ObsLane::kDaemon, "setup.done", 7);
  const SpanId done = spans.Complete(SimTime::FromNanos(10), SimTime::FromNanos(20),
                                     ObsLane::kDisk, "disk.read", 0, 4096);
  const SpanRecord& inst = spans.records()[0];
  EXPECT_TRUE(inst.instant);
  EXPECT_FALSE(inst.open);
  EXPECT_EQ(inst.start.nanos(), inst.end.nanos());
  const SpanRecord& comp = spans.record(done);
  EXPECT_FALSE(comp.instant);
  EXPECT_FALSE(comp.open);
  EXPECT_EQ(comp.end.nanos(), 20);
}

TEST(SpanTracer, CountsPastCapacityAndDropsNew) {
  SpanTracer spans(/*capacity=*/2);
  EXPECT_NE(spans.Begin(SimTime::FromNanos(0), ObsLane::kVcpu, "fault"), kNoSpan);
  EXPECT_NE(spans.Begin(SimTime::FromNanos(1), ObsLane::kVcpu, "fault"), kNoSpan);
  const SpanId dropped = spans.Begin(SimTime::FromNanos(2), ObsLane::kVcpu, "fault");
  EXPECT_EQ(dropped, kNoSpan);
  spans.End(dropped, SimTime::FromNanos(3));  // no-op, must not crash
  EXPECT_EQ(spans.records().size(), 2u);
  EXPECT_EQ(spans.dropped_records(), 1u);
  // The analysis keeps the head of the run; counters keep counting past the cap.
  EXPECT_EQ(spans.count("fault"), 3);
}

TEST(SpanTracer, TracksTagRecords) {
  SpanTracer spans;
  spans.Begin(SimTime::FromNanos(0), ObsLane::kVcpu, "fault");
  const uint32_t track = spans.BeginTrack("rep1");
  EXPECT_EQ(track, 1u);
  EXPECT_EQ(spans.current_track(), 1u);
  spans.Begin(SimTime::FromNanos(0), ObsLane::kVcpu, "fault");
  EXPECT_EQ(spans.records()[0].track, 0u);
  EXPECT_EQ(spans.records()[1].track, 1u);
  ASSERT_EQ(spans.track_names().size(), 2u);
  EXPECT_EQ(spans.track_names()[1], "rep1");
}

TEST(SpanTracer, ClearResetsEverything) {
  SpanTracer spans;
  spans.BeginTrack("rep1");
  spans.Begin(SimTime::FromNanos(0), ObsLane::kVcpu, "fault");
  spans.Clear();
  EXPECT_TRUE(spans.records().empty());
  EXPECT_EQ(spans.count("fault"), 0);
  EXPECT_EQ(spans.current_track(), 0u);
  EXPECT_EQ(spans.track_names().size(), 1u);
}

TEST(SpanTracer, LaneNamesAreStable) {
  EXPECT_EQ(ObsLaneName(ObsLane::kVcpu), "vCPU");
  EXPECT_EQ(ObsLaneName(ObsLane::kLoader), "loader");
  EXPECT_EQ(ObsLaneName(ObsLane::kUffd), "uffd");
  EXPECT_EQ(ObsLaneName(ObsLane::kDisk), "disk");
}

}  // namespace
}  // namespace faasnap
