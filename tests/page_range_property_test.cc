// Randomized property tests for PageRangeSet against a naive reference model.
//
// The reference is a std::set<PageIndex> holding every member page explicitly.
// Each operation on the PageRangeSet is mirrored on the reference, and the two
// representations are compared after every step. This catches boundary bugs
// (off-by-one at run edges, bad coalescing, incremental page-count drift) that
// hand-picked cases miss, and it pins the optimized single-pass merge
// implementations of Union/Subtract to the obviously-correct semantics.

#include "src/common/page_range.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace faasnap {
namespace {

constexpr PageIndex kSpacePages = 512;

// Expands a PageRangeSet into explicit page membership.
std::set<PageIndex> Explode(const PageRangeSet& s) {
  std::set<PageIndex> pages;
  for (const PageRange& r : s.ranges()) {
    for (PageIndex p = r.first; p < r.end(); ++p) {
      pages.insert(p);
    }
  }
  return pages;
}

// Checks the set's structural invariants plus equivalence with the reference.
void CheckAgainstReference(const PageRangeSet& s, const std::set<PageIndex>& ref) {
  // Invariants: sorted, disjoint, non-abutting, no empty runs, exact page count.
  uint64_t total = 0;
  PageIndex prev_end = 0;
  bool first_range = true;
  for (const PageRange& r : s.ranges()) {
    ASSERT_GT(r.count, 0u);
    if (!first_range) {
      ASSERT_GT(r.first, prev_end) << "ranges must be disjoint and non-abutting";
    }
    first_range = false;
    prev_end = r.end();
    total += r.count;
  }
  ASSERT_EQ(s.page_count(), total);
  ASSERT_EQ(s.page_count(), ref.size());
  ASSERT_EQ(Explode(s), ref);
}

PageRange RandomRange(Rng& rng) {
  const PageIndex first = rng.NextBelow(kSpacePages);
  const uint64_t count = 1 + rng.NextBelow(48);
  return PageRange{first, std::min<uint64_t>(count, kSpacePages - first)};
}

// Builds a random (set, reference) pair with `ops` Add/Remove mutations.
void BuildRandom(Rng& rng, int ops, PageRangeSet* s, std::set<PageIndex>* ref) {
  for (int i = 0; i < ops; ++i) {
    const PageRange r = RandomRange(rng);
    if (rng.NextBool(0.65)) {
      s->Add(r);
      for (PageIndex p = r.first; p < r.end(); ++p) ref->insert(p);
    } else {
      s->Remove(r.first, r.count);
      for (PageIndex p = r.first; p < r.end(); ++p) ref->erase(p);
    }
  }
}

TEST(PageRangePropertyTest, AddRemoveMatchesReference) {
  Rng rng(0x1234abcd);
  for (int round = 0; round < 20; ++round) {
    PageRangeSet s;
    std::set<PageIndex> ref;
    for (int i = 0; i < 120; ++i) {
      const PageRange r = RandomRange(rng);
      if (rng.NextBool(0.6)) {
        s.Add(r);
        for (PageIndex p = r.first; p < r.end(); ++p) ref.insert(p);
      } else {
        s.Remove(r.first, r.count);
        for (PageIndex p = r.first; p < r.end(); ++p) ref.erase(p);
      }
      ASSERT_NO_FATAL_FAILURE(CheckAgainstReference(s, ref))
          << "round " << round << " op " << i;
    }
  }
}

TEST(PageRangePropertyTest, QueriesMatchReference) {
  Rng rng(0x9e3779b9);
  for (int round = 0; round < 30; ++round) {
    PageRangeSet s;
    std::set<PageIndex> ref;
    BuildRandom(rng, 60, &s, &ref);

    for (int q = 0; q < 200; ++q) {
      const PageIndex p = rng.NextBelow(kSpacePages);
      ASSERT_EQ(s.Contains(p), ref.count(p) > 0) << "page " << p;
    }
    for (int q = 0; q < 200; ++q) {
      const PageRange r = RandomRange(rng);
      bool all = true, any = false;
      for (PageIndex p = r.first; p < r.end(); ++p) {
        const bool in = ref.count(p) > 0;
        all = all && in;
        any = any || in;
      }
      ASSERT_EQ(s.ContainsRange(r), all) << r.ToString();
      ASSERT_EQ(s.Overlaps(r), any) << r.ToString();
    }
    // Empty intervals are trivially contained and never overlap.
    ASSERT_TRUE(s.ContainsRange(PageRange{rng.NextBelow(kSpacePages), 0}));
  }
}

TEST(PageRangePropertyTest, SetAlgebraMatchesReference) {
  Rng rng(0xfaa5aa9);
  for (int round = 0; round < 40; ++round) {
    PageRangeSet a, b;
    std::set<PageIndex> ref_a, ref_b;
    BuildRandom(rng, 50, &a, &ref_a);
    BuildRandom(rng, 50, &b, &ref_b);

    std::set<PageIndex> ref_union = ref_a;
    ref_union.insert(ref_b.begin(), ref_b.end());
    std::set<PageIndex> ref_sub, ref_inter;
    for (PageIndex p : ref_a) {
      if (ref_b.count(p)) {
        ref_inter.insert(p);
      } else {
        ref_sub.insert(p);
      }
    }

    ASSERT_NO_FATAL_FAILURE(CheckAgainstReference(a.Union(b), ref_union));
    ASSERT_NO_FATAL_FAILURE(CheckAgainstReference(b.Union(a), ref_union));
    ASSERT_NO_FATAL_FAILURE(CheckAgainstReference(a.Subtract(b), ref_sub));
    ASSERT_NO_FATAL_FAILURE(CheckAgainstReference(a.Intersect(b), ref_inter));
    ASSERT_NO_FATAL_FAILURE(CheckAgainstReference(b.Intersect(a), ref_inter));

    // The in-place forms must agree exactly with the returning forms.
    PageRangeSet a_union = a;
    a_union.UnionInPlace(b);
    ASSERT_EQ(a_union, a.Union(b));
    PageRangeSet a_sub = a;
    a_sub.SubtractInPlace(b);
    ASSERT_EQ(a_sub, a.Subtract(b));

    // Aliasing: x op x must behave like set algebra with itself.
    PageRangeSet a_self = a;
    a_self.UnionInPlace(a_self);
    ASSERT_EQ(a_self, a);
    PageRangeSet a_clear = a;
    a_clear.SubtractInPlace(a_clear);
    ASSERT_TRUE(a_clear.empty());
    ASSERT_EQ(a_clear.page_count(), 0u);
  }
}

TEST(PageRangePropertyTest, ComplementAndGapMergeMatchReference) {
  Rng rng(0x51f15eed);
  for (int round = 0; round < 30; ++round) {
    PageRangeSet s;
    std::set<PageIndex> ref;
    BuildRandom(rng, 40, &s, &ref);

    std::set<PageIndex> ref_complement;
    for (PageIndex p = 0; p < kSpacePages; ++p) {
      if (!ref.count(p)) ref_complement.insert(p);
    }
    ASSERT_NO_FATAL_FAILURE(
        CheckAgainstReference(s.ComplementWithin(PageCount::FromPages(kSpacePages)), ref_complement));

    // Gap-tolerant merge: a page is in the result iff it is in the set or lies
    // in a gap of width <= tol between two member pages.
    const uint64_t tol = rng.NextBelow(40);
    std::set<PageIndex> ref_merged = ref;
    for (auto it = ref.begin(); it != ref.end(); ++it) {
      auto next = std::next(it);
      if (next == ref.end()) break;
      if (*next - *it - 1 <= tol) {
        for (PageIndex p = *it + 1; p < *next; ++p) ref_merged.insert(p);
      }
    }
    ASSERT_NO_FATAL_FAILURE(
        CheckAgainstReference(s.MergeWithGapTolerance(PageCount::FromPages(tol)), ref_merged))
        << "tol " << tol;
  }
}

// The sort-built set equals one AddPage per page, whatever the order: random
// multisets with duplicates, then the same pages ascending and reversed.
TEST(PageRangePropertyTest, BuilderMatchesRepeatedAddPage) {
  Rng rng(0xb011d3);
  for (int round = 0; round < 60; ++round) {
    std::vector<PageIndex> pages;
    const uint64_t n = rng.NextBelow(300);
    for (uint64_t i = 0; i < n; ++i) {
      // Short sequential bursts, repeats of earlier pages, and isolated pages.
      if (!pages.empty() && rng.NextBool(0.3)) {
        pages.push_back(std::min<PageIndex>(pages.back() + 1, kSpacePages - 1));
      } else if (!pages.empty() && rng.NextBool(0.2)) {
        pages.push_back(pages[rng.NextBelow(pages.size())]);
      } else {
        pages.push_back(rng.NextBelow(kSpacePages));
      }
    }
    std::vector<PageIndex> ascending = pages;
    std::sort(ascending.begin(), ascending.end());
    const std::vector<PageIndex> reversed(ascending.rbegin(), ascending.rend());
    const std::vector<PageIndex>* orders[] = {&pages, &ascending, &reversed};
    for (const std::vector<PageIndex>* order : orders) {
      PageRangeSet expected;
      PageRangeSet::Builder builder;
      std::set<PageIndex> ref;
      for (PageIndex p : *order) {
        expected.AddPage(p);
        builder.AddPage(p);
        ref.insert(p);
      }
      const PageRangeSet built = std::move(builder).Build();
      ASSERT_NO_FATAL_FAILURE(CheckAgainstReference(built, ref)) << "round " << round;
      ASSERT_EQ(built, expected) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace faasnap
