// Page-granular interval containers.
//
// Snapshot files, working sets, and loading sets are all described as sets of
// guest-physical page ranges. PageRange is a half-open [first, first+count) run of
// page indices; PageRangeSet keeps an ordered, disjoint, coalesced collection with
// the set algebra FaaSnap needs: union, intersection, subtraction, gap-tolerant
// merging (the <=32-page region merge of paper section 4.6), and containment tests.

#ifndef FAASNAP_SRC_COMMON_PAGE_RANGE_H_
#define FAASNAP_SRC_COMMON_PAGE_RANGE_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace faasnap {

// Index of a 4 KiB page within some address space or file.
using PageIndex = uint64_t;

// Half-open run of pages [first, first + count).
struct PageRange {
  PageIndex first = 0;
  uint64_t count = 0;

  PageIndex end() const { return first + count; }
  bool empty() const { return count == 0; }
  bool Contains(PageIndex page) const { return page >= first && page < end(); }
  bool Overlaps(const PageRange& other) const {
    return first < other.end() && other.first < end();
  }

  bool operator==(const PageRange& other) const = default;
  std::string ToString() const;
};

// Ordered, disjoint, coalesced set of page ranges.
class PageRangeSet {
 public:
  // Builds a set from pages given in any order with one sort and coalesce in
  // Build(), instead of one ordered insert per page. A page that repeats or
  // extends the last run coalesces onto it, so pages that arrive in ascending
  // order keep no per-page temporary.
  class Builder {
   public:
    void AddPage(PageIndex page) {
      if (!runs_.empty()) {
        PageRange& last = runs_.back();
        if (last.Contains(page)) {
          return;
        }
        if (page == last.end()) {
          ++last.count;
          return;
        }
      }
      runs_.push_back(PageRange{page, 1});
    }
    // Adds every page of `range`; a range that overlaps or continues the last
    // one coalesces onto it.
    void Add(PageRange range) {
      if (range.empty()) {
        return;
      }
      if (!runs_.empty()) {
        PageRange& last = runs_.back();
        if (range.first >= last.first && range.first <= last.end()) {
          last.count = std::max(last.end(), range.end()) - last.first;
          return;
        }
      }
      runs_.push_back(range);
    }
    PageRangeSet Build() &&;

   private:
    std::vector<PageRange> runs_;
  };

  PageRangeSet() = default;
  explicit PageRangeSet(std::vector<PageRange> ranges);

  // Inserts [first, first+count), coalescing with abutting/overlapping runs.
  void Add(PageIndex first, uint64_t count);
  void Add(const PageRange& r) { Add(r.first, r.count); }
  void AddPage(PageIndex page) { Add(page, 1); }

  // Removes [first, first+count) from the set (splitting runs as needed).
  void Remove(PageIndex first, uint64_t count);

  bool Contains(PageIndex page) const;
  // True iff every page of [first, first+count) is in the set (a single run must
  // cover the whole interval, since the set is coalesced). Empty intervals are
  // trivially contained.
  bool ContainsRange(PageIndex first, uint64_t count) const;
  bool ContainsRange(const PageRange& r) const { return ContainsRange(r.first, r.count); }
  // True iff any page of `r` is in the set.
  bool Overlaps(const PageRange& r) const;
  bool empty() const { return ranges_.empty(); }
  size_t range_count() const { return ranges_.size(); }
  uint64_t page_count() const { return page_total_; }

  const std::vector<PageRange>& ranges() const { return ranges_; }

  // Set algebra. All results are coalesced. Union/Subtract are single-pass linear
  // merges of the two sorted range lists; the InPlace variants reuse this set's
  // storage and avoid the deep copy of the returning forms.
  PageRangeSet Union(const PageRangeSet& other) const;
  PageRangeSet Intersect(const PageRangeSet& other) const;
  PageRangeSet Subtract(const PageRangeSet& other) const;
  void UnionInPlace(const PageRangeSet& other);
  void SubtractInPlace(const PageRangeSet& other);

  // Pages in [0, space) not in the set.
  PageRangeSet ComplementWithin(PageCount space) const;

  // Merges runs separated by gaps of at most `max_gap`, *including* the gap
  // pages in the result (paper section 4.6: "merges these adjacent regions by
  // including the pages in between them"). max_gap == 0 returns a copy.
  PageRangeSet MergeWithGapTolerance(PageCount max_gap) const;

  bool operator==(const PageRangeSet& other) const { return ranges_ == other.ranges_; }
  std::string ToString() const;

 private:
  // Appends a range known to start at or after the end of the last range,
  // coalescing with it if abutting. The fast path for algorithms that emit
  // ranges in ascending order.
  void AppendCoalescing(PageIndex first, uint64_t count);

  std::vector<PageRange> ranges_;  // sorted by first, disjoint, non-abutting
  uint64_t page_total_ = 0;  // running page count, maintained by every mutation
};

// Print ToString(); gtest uses these for failed assertions on ranges and sets.
std::ostream& operator<<(std::ostream& os, const PageRange& range);
std::ostream& operator<<(std::ostream& os, const PageRangeSet& set);

}  // namespace faasnap

#endif  // FAASNAP_SRC_COMMON_PAGE_RANGE_H_
