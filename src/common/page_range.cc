#include "src/common/page_range.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "src/common/status.h"

namespace faasnap {

namespace {

// Single-pass merge of two sorted, disjoint, coalesced range lists into their
// union. Returns the total page count of the result.
uint64_t MergeUnion(const std::vector<PageRange>& a, const std::vector<PageRange>& b,
                    std::vector<PageRange>* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  uint64_t total = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const PageRange& next =
        (j == b.size() || (i < a.size() && a[i].first <= b[j].first)) ? a[i++] : b[j++];
    if (!out->empty() && next.first <= out->back().end()) {
      const PageIndex merged_end = std::max(out->back().end(), next.end());
      total += merged_end - out->back().end();
      out->back().count = merged_end - out->back().first;
    } else {
      out->push_back(next);
      total += next.count;
    }
  }
  return total;
}

// Single-pass a - b over sorted, disjoint, coalesced lists. Returns the total
// page count of the result. The output is automatically coalesced: surviving
// pieces of one a-run are separated by removed pages, and distinct a-runs were
// already separated by at least one page.
uint64_t MergeSubtract(const std::vector<PageRange>& a, const std::vector<PageRange>& b,
                       std::vector<PageRange>* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  uint64_t total = 0;
  size_t j = 0;
  for (const PageRange& r : a) {
    PageIndex cursor = r.first;
    const PageIndex a_end = r.end();
    while (j < b.size() && b[j].end() <= cursor) {
      ++j;
    }
    size_t k = j;
    while (cursor < a_end && k < b.size() && b[k].first < a_end) {
      if (b[k].first > cursor) {
        out->push_back(PageRange{cursor, b[k].first - cursor});
        total += b[k].first - cursor;
      }
      cursor = std::max(cursor, b[k].end());
      if (b[k].end() > a_end) {
        break;  // this b-run may also clip the next a-run; do not advance past it
      }
      ++k;
    }
    if (cursor < a_end) {
      out->push_back(PageRange{cursor, a_end - cursor});
      total += a_end - cursor;
    }
    j = k;
  }
  return total;
}

}  // namespace

std::string PageRange::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%llu,%llu)", static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(end()));
  return buf;
}

PageRangeSet::PageRangeSet(std::vector<PageRange> ranges) {
  for (const PageRange& r : ranges) {
    Add(r);
  }
}

PageRangeSet PageRangeSet::Builder::Build() && {
  const auto by_first = [](const PageRange& a, const PageRange& b) { return a.first < b.first; };
  if (!std::is_sorted(runs_.begin(), runs_.end(), by_first)) {
    std::sort(runs_.begin(), runs_.end(), by_first);
  }
  // Coalesce in place: runs sorted by first may overlap or abut.
  size_t kept = 0;
  for (const PageRange& r : runs_) {
    if (kept > 0 && r.first <= runs_[kept - 1].end()) {
      PageRange& last = runs_[kept - 1];
      last.count = std::max(last.end(), r.end()) - last.first;
    } else {
      runs_[kept++] = r;
    }
  }
  runs_.resize(kept);
  runs_.shrink_to_fit();
  PageRangeSet set;
  for (const PageRange& r : runs_) {
    set.page_total_ += r.count;
  }
  set.ranges_ = std::move(runs_);
  return set;
}

void PageRangeSet::AppendCoalescing(PageIndex first, uint64_t count) {
  if (count == 0) {
    return;
  }
  if (!ranges_.empty() && ranges_.back().end() == first) {
    ranges_.back().count += count;
  } else {
    ranges_.push_back(PageRange{first, count});
  }
  page_total_ += count;
}

void PageRangeSet::Add(PageIndex first, uint64_t count) {
  if (count == 0) {
    return;
  }
  PageRange incoming{first, count};
  // Find first existing range whose end >= incoming.first (possible coalesce target).
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), incoming.first,
      [](const PageRange& r, PageIndex v) { return r.end() < v; });
  PageIndex new_first = incoming.first;
  PageIndex new_end = incoming.end();
  uint64_t absorbed = 0;
  auto erase_begin = it;
  while (it != ranges_.end() && it->first <= new_end) {
    new_first = std::min(new_first, it->first);
    new_end = std::max(new_end, it->end());
    absorbed += it->count;
    ++it;
  }
  auto pos = ranges_.erase(erase_begin, it);
  ranges_.insert(pos, PageRange{new_first, new_end - new_first});
  page_total_ += (new_end - new_first) - absorbed;
}

void PageRangeSet::Remove(PageIndex first, uint64_t count) {
  if (count == 0 || ranges_.empty()) {
    return;
  }
  const PageIndex rem_end = first + count;
  // First range whose end > first, i.e. the first run the removal can touch.
  auto it = std::lower_bound(ranges_.begin(), ranges_.end(), first,
                             [](const PageRange& r, PageIndex v) { return r.end() <= v; });
  if (it == ranges_.end() || it->first >= rem_end) {
    return;
  }
  // Removal strictly inside a single run: split it in place.
  if (it->first < first && it->end() > rem_end) {
    const PageRange right{rem_end, it->end() - rem_end};
    it->count = first - it->first;
    ranges_.insert(it + 1, right);
    page_total_ -= count;
    return;
  }
  // Trim a left partial overlap.
  if (it->first < first) {
    page_total_ -= it->end() - first;
    it->count = first - it->first;
    ++it;
  }
  // Drop runs fully covered by the removal.
  auto erase_begin = it;
  while (it != ranges_.end() && it->end() <= rem_end) {
    page_total_ -= it->count;
    ++it;
  }
  // Trim a right partial overlap.
  if (it != ranges_.end() && it->first < rem_end) {
    page_total_ -= rem_end - it->first;
    const PageIndex old_end = it->end();
    it->first = rem_end;
    it->count = old_end - rem_end;
  }
  ranges_.erase(erase_begin, it);
}

bool PageRangeSet::Contains(PageIndex page) const {
  auto it = std::upper_bound(ranges_.begin(), ranges_.end(), page,
                             [](PageIndex v, const PageRange& r) { return v < r.first; });
  if (it == ranges_.begin()) {
    return false;
  }
  --it;
  return it->Contains(page);
}

bool PageRangeSet::ContainsRange(PageIndex first, uint64_t count) const {
  if (count == 0) {
    return true;
  }
  auto it = std::upper_bound(ranges_.begin(), ranges_.end(), first,
                             [](PageIndex v, const PageRange& r) { return v < r.first; });
  if (it == ranges_.begin()) {
    return false;
  }
  --it;
  return it->first <= first && first + count <= it->end();
}

bool PageRangeSet::Overlaps(const PageRange& r) const {
  if (r.empty()) {
    return false;
  }
  // First run whose end > r.first; it overlaps iff it starts before r ends.
  auto it = std::lower_bound(ranges_.begin(), ranges_.end(), r.first,
                             [](const PageRange& range, PageIndex v) { return range.end() <= v; });
  return it != ranges_.end() && it->first < r.end();
}

PageRangeSet PageRangeSet::Union(const PageRangeSet& other) const {
  PageRangeSet out;
  out.page_total_ = MergeUnion(ranges_, other.ranges_, &out.ranges_);
  return out;
}

void PageRangeSet::UnionInPlace(const PageRangeSet& other) {
  if (other.ranges_.empty()) {
    return;
  }
  if (ranges_.empty()) {
    ranges_ = other.ranges_;
    page_total_ = other.page_total_;
    return;
  }
  std::vector<PageRange> merged;
  page_total_ = MergeUnion(ranges_, other.ranges_, &merged);
  ranges_ = std::move(merged);
}

PageRangeSet PageRangeSet::Intersect(const PageRangeSet& other) const {
  PageRangeSet out;
  size_t i = 0;
  size_t j = 0;
  while (i < ranges_.size() && j < other.ranges_.size()) {
    const PageRange& a = ranges_[i];
    const PageRange& b = other.ranges_[j];
    const PageIndex lo = std::max(a.first, b.first);
    const PageIndex hi = std::min(a.end(), b.end());
    if (lo < hi) {
      out.ranges_.push_back(PageRange{lo, hi - lo});
      out.page_total_ += hi - lo;
    }
    if (a.end() < b.end()) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

PageRangeSet PageRangeSet::Subtract(const PageRangeSet& other) const {
  PageRangeSet out;
  out.page_total_ = MergeSubtract(ranges_, other.ranges_, &out.ranges_);
  return out;
}

void PageRangeSet::SubtractInPlace(const PageRangeSet& other) {
  if (ranges_.empty() || other.ranges_.empty()) {
    return;
  }
  std::vector<PageRange> result;
  page_total_ = MergeSubtract(ranges_, other.ranges_, &result);
  ranges_ = std::move(result);
}

PageRangeSet PageRangeSet::ComplementWithin(PageCount space) const {
  const uint64_t space_limit = space.value();
  PageRangeSet out;
  PageIndex cursor = 0;
  for (const PageRange& r : ranges_) {
    if (r.first >= space_limit) {
      break;
    }
    if (r.first > cursor) {
      out.AppendCoalescing(cursor, r.first - cursor);
    }
    cursor = std::max<PageIndex>(cursor, r.end());
  }
  if (cursor < space_limit) {
    out.AppendCoalescing(cursor, space_limit - cursor);
  }
  return out;
}

PageRangeSet PageRangeSet::MergeWithGapTolerance(PageCount max_gap) const {
  const uint64_t gap_limit = max_gap.value();
  PageRangeSet out;
  if (ranges_.empty()) {
    return out;
  }
  out.ranges_.reserve(ranges_.size());
  PageRange cur = ranges_[0];
  for (size_t i = 1; i < ranges_.size(); ++i) {
    const PageRange& next = ranges_[i];
    const uint64_t gap = next.first - cur.end();
    if (gap <= gap_limit) {
      cur.count = next.end() - cur.first;  // absorb the gap pages too
    } else {
      out.AppendCoalescing(cur.first, cur.count);
      cur = next;
    }
  }
  out.AppendCoalescing(cur.first, cur.count);
  return out;
}

std::string PageRangeSet::ToString() const {
  std::string s = "{";
  for (size_t i = 0; i < ranges_.size(); ++i) {
    if (i > 0) {
      s += ", ";
    }
    s += ranges_[i].ToString();
  }
  s += "}";
  return s;
}

std::ostream& operator<<(std::ostream& os, const PageRange& range) {
  return os << range.ToString();
}

std::ostream& operator<<(std::ostream& os, const PageRangeSet& set) {
  return os << set.ToString();
}

}  // namespace faasnap
