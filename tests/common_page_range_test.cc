#include "src/common/page_range.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/common/rng.h"

namespace faasnap {
namespace {

TEST(PageRange, BasicAccessors) {
  PageRange r{10, 5};
  EXPECT_EQ(r.end(), 15u);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(14));
  EXPECT_FALSE(r.Contains(15));
  EXPECT_FALSE(r.Contains(9));
}

TEST(PageRange, Overlaps) {
  PageRange a{0, 10};
  EXPECT_TRUE(a.Overlaps(PageRange{5, 10}));
  EXPECT_TRUE(a.Overlaps(PageRange{9, 1}));
  EXPECT_FALSE(a.Overlaps(PageRange{10, 5}));
  EXPECT_FALSE(a.Overlaps(PageRange{20, 5}));
}

TEST(PageRangeSet, AddCoalescesAbuttingRanges) {
  PageRangeSet s;
  s.Add(0, 4);
  s.Add(4, 4);
  ASSERT_EQ(s.range_count(), 1u);
  EXPECT_EQ(s.ranges()[0], (PageRange{0, 8}));
  EXPECT_EQ(s.page_count(), 8u);
}

TEST(PageRangeSet, AddCoalescesOverlappingRanges) {
  PageRangeSet s;
  s.Add(0, 10);
  s.Add(5, 10);
  ASSERT_EQ(s.range_count(), 1u);
  EXPECT_EQ(s.ranges()[0], (PageRange{0, 15}));
}

TEST(PageRangeSet, AddKeepsDisjointRangesSeparate) {
  PageRangeSet s;
  s.Add(0, 4);
  s.Add(8, 4);
  EXPECT_EQ(s.range_count(), 2u);
  EXPECT_EQ(s.page_count(), 8u);
}

TEST(PageRangeSet, AddBridgingRangeMergesNeighbors) {
  PageRangeSet s;
  s.Add(0, 4);
  s.Add(8, 4);
  s.Add(4, 4);
  ASSERT_EQ(s.range_count(), 1u);
  EXPECT_EQ(s.ranges()[0], (PageRange{0, 12}));
}

TEST(PageRangeSet, RemoveSplitsRange) {
  PageRangeSet s;
  s.Add(0, 10);
  s.Remove(3, 4);
  ASSERT_EQ(s.range_count(), 2u);
  EXPECT_EQ(s.ranges()[0], (PageRange{0, 3}));
  EXPECT_EQ(s.ranges()[1], (PageRange{7, 3}));
  EXPECT_EQ(s.page_count(), 6u);
}

TEST(PageRangeSet, RemoveWholeRange) {
  PageRangeSet s;
  s.Add(5, 5);
  s.Remove(0, 100);
  EXPECT_TRUE(s.empty());
}

TEST(PageRangeSet, RemoveTrimsEdges) {
  PageRangeSet s;
  s.Add(10, 10);
  s.Remove(5, 8);   // trims front to [13, 20)
  s.Remove(18, 10); // trims back to [13, 18)
  ASSERT_EQ(s.range_count(), 1u);
  EXPECT_EQ(s.ranges()[0], (PageRange{13, 5}));
}

TEST(PageRangeSet, Contains) {
  PageRangeSet s;
  s.Add(10, 5);
  s.Add(100, 1);
  EXPECT_TRUE(s.Contains(10));
  EXPECT_TRUE(s.Contains(14));
  EXPECT_FALSE(s.Contains(15));
  EXPECT_TRUE(s.Contains(100));
  EXPECT_FALSE(s.Contains(99));
  EXPECT_FALSE(s.Contains(0));
}

TEST(PageRangeSet, Intersect) {
  PageRangeSet a;
  a.Add(0, 10);
  a.Add(20, 10);
  PageRangeSet b;
  b.Add(5, 20);
  PageRangeSet c = a.Intersect(b);
  ASSERT_EQ(c.range_count(), 2u);
  EXPECT_EQ(c.ranges()[0], (PageRange{5, 5}));
  EXPECT_EQ(c.ranges()[1], (PageRange{20, 5}));
}

TEST(PageRangeSet, IntersectEmpty) {
  PageRangeSet a;
  a.Add(0, 10);
  PageRangeSet b;
  b.Add(10, 10);
  EXPECT_TRUE(a.Intersect(b).empty());
  EXPECT_TRUE(a.Intersect(PageRangeSet()).empty());
}

TEST(PageRangeSet, Union) {
  PageRangeSet a;
  a.Add(0, 5);
  PageRangeSet b;
  b.Add(5, 5);
  b.Add(20, 5);
  PageRangeSet u = a.Union(b);
  ASSERT_EQ(u.range_count(), 2u);
  EXPECT_EQ(u.ranges()[0], (PageRange{0, 10}));
  EXPECT_EQ(u.ranges()[1], (PageRange{20, 5}));
}

TEST(PageRangeSet, Subtract) {
  PageRangeSet a;
  a.Add(0, 100);
  PageRangeSet b;
  b.Add(10, 10);
  b.Add(50, 10);
  PageRangeSet d = a.Subtract(b);
  ASSERT_EQ(d.range_count(), 3u);
  EXPECT_EQ(d.page_count(), 80u);
  EXPECT_FALSE(d.Contains(15));
  EXPECT_TRUE(d.Contains(9));
  EXPECT_TRUE(d.Contains(20));
}

TEST(PageRangeSet, ComplementWithin) {
  PageRangeSet a;
  a.Add(2, 3);
  a.Add(8, 2);
  PageRangeSet c = a.ComplementWithin(PageCount::FromPages(12));
  ASSERT_EQ(c.range_count(), 3u);
  EXPECT_EQ(c.ranges()[0], (PageRange{0, 2}));
  EXPECT_EQ(c.ranges()[1], (PageRange{5, 3}));
  EXPECT_EQ(c.ranges()[2], (PageRange{10, 2}));
}

TEST(PageRangeSet, ComplementOfEmptyIsWholeSpace) {
  PageRangeSet empty;
  PageRangeSet c = empty.ComplementWithin(PageCount::FromPages(100));
  ASSERT_EQ(c.range_count(), 1u);
  EXPECT_EQ(c.ranges()[0], (PageRange{0, 100}));
}

// The paper's section 4.6 merge: regions separated by <= threshold pages are merged,
// including the gap pages.
TEST(PageRangeSet, MergeWithGapToleranceIncludesGapPages) {
  PageRangeSet s;
  s.Add(0, 4);
  s.Add(6, 4);    // gap of 2
  s.Add(50, 4);   // gap of 40
  PageRangeSet merged = s.MergeWithGapTolerance(PageCount::FromPages(32));
  ASSERT_EQ(merged.range_count(), 2u);
  EXPECT_EQ(merged.ranges()[0], (PageRange{0, 10}));  // gap pages 4,5 included
  EXPECT_EQ(merged.ranges()[1], (PageRange{50, 4}));
  EXPECT_EQ(merged.page_count(), 14u);
}

TEST(PageRangeSet, MergeWithZeroToleranceIsIdentity) {
  PageRangeSet s;
  s.Add(0, 4);
  s.Add(5, 4);
  PageRangeSet merged = s.MergeWithGapTolerance(PageCount::FromPages(0));
  EXPECT_EQ(merged, s);
}

TEST(PageRangeSet, MergeGapExactlyAtThreshold) {
  PageRangeSet s;
  s.Add(0, 1);
  s.Add(33, 1);  // gap of 32
  EXPECT_EQ(s.MergeWithGapTolerance(PageCount::FromPages(32)).range_count(), 1u);
  EXPECT_EQ(s.MergeWithGapTolerance(PageCount::FromPages(31)).range_count(), 2u);
}

// Property-style sweep: union/intersect/subtract against a bitmap oracle.
class PageRangeSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageRangeSetPropertyTest, SetAlgebraMatchesBitmapOracle) {
  Rng rng(GetParam());
  constexpr uint64_t kSpace = 256;
  std::vector<bool> bits_a(kSpace, false);
  std::vector<bool> bits_b(kSpace, false);
  PageRangeSet a;
  PageRangeSet b;
  for (int i = 0; i < 40; ++i) {
    const uint64_t first = rng.NextBelow(kSpace);
    const uint64_t count = 1 + rng.NextBelow(16);
    const uint64_t clamped = std::min(count, kSpace - first);
    if (rng.NextBool(0.5)) {
      a.Add(first, clamped);
      for (uint64_t p = first; p < first + clamped; ++p) bits_a[p] = true;
    } else {
      b.Add(first, clamped);
      for (uint64_t p = first; p < first + clamped; ++p) bits_b[p] = true;
    }
    if (rng.NextBool(0.2)) {
      const uint64_t rf = rng.NextBelow(kSpace);
      const uint64_t rc = std::min<uint64_t>(1 + rng.NextBelow(8), kSpace - rf);
      a.Remove(rf, rc);
      for (uint64_t p = rf; p < rf + rc; ++p) bits_a[p] = false;
    }
  }
  const PageRangeSet u = a.Union(b);
  const PageRangeSet inter = a.Intersect(b);
  const PageRangeSet diff = a.Subtract(b);
  const PageRangeSet comp = a.ComplementWithin(PageCount::FromPages(kSpace));
  for (uint64_t p = 0; p < kSpace; ++p) {
    EXPECT_EQ(a.Contains(p), bits_a[p]) << "page " << p;
    EXPECT_EQ(u.Contains(p), bits_a[p] || bits_b[p]) << "page " << p;
    EXPECT_EQ(inter.Contains(p), bits_a[p] && bits_b[p]) << "page " << p;
    EXPECT_EQ(diff.Contains(p), bits_a[p] && !bits_b[p]) << "page " << p;
    EXPECT_EQ(comp.Contains(p), !bits_a[p]) << "page " << p;
  }
  // Structural invariants: sorted, disjoint, coalesced.
  const std::vector<const PageRangeSet*> all = {&a, &b, &u, &inter, &diff, &comp};
  for (const PageRangeSet* s : all) {
    const auto& rs = s->ranges();
    for (size_t i = 1; i < rs.size(); ++i) {
      EXPECT_GT(rs[i].first, rs[i - 1].end());  // strict gap: coalesced
    }
    uint64_t total = 0;
    for (const auto& r : rs) total += r.count;
    EXPECT_EQ(total, s->page_count());
  }
}

TEST(PageRangeSet, GtestPrintsTheRuns) {
  const PageRangeSet set({PageRange{3, 2}, PageRange{10, 1}});
  EXPECT_EQ(::testing::PrintToString(set), set.ToString());
  EXPECT_EQ(::testing::PrintToString(set), "{[3,5), [10,11)}");
  EXPECT_EQ(::testing::PrintToString(PageRange{7, 3}), "[7,10)");
}

TEST(PageRangeSetBuilder, AddRangeCoalescesLikeAddPage) {
  PageRangeSet::Builder ranges;
  PageRangeSet::Builder pages;
  for (const PageRange r : {PageRange{5, 3}, PageRange{6, 4}, PageRange{10, 2}, PageRange{1, 2},
                            PageRange{30, 0}, PageRange{20, 5}}) {
    ranges.Add(r);
    for (PageIndex p = r.first; p < r.end(); ++p) {
      pages.AddPage(p);
    }
  }
  EXPECT_EQ(std::move(ranges).Build(), std::move(pages).Build());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageRangeSetPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace faasnap
