#include "src/mem/page_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace faasnap {

const PageCache::FileState* PageCache::FindFile(FileId file) const {
  auto it = files_.find(file);
  return it == files_.end() ? nullptr : &it->second;
}

std::map<PageIndex, PageCache::InFlightSpan>::const_iterator PageCache::FirstSpanEndingAfter(
    const FileState& fs, PageIndex page) {
  // Spans are disjoint and start-keyed: the only span that can cover `page` is
  // the last one starting at or before it; later spans start after `page`.
  auto it = fs.in_flight.upper_bound(page);
  if (it != fs.in_flight.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > page) {
      return prev;
    }
  }
  return it;
}

PageCache::PageLookup PageCache::Lookup(FileId file, PageIndex page) const {
  MutexLock lock(mu_);
  const FileState* fs = FindFile(file);
  if (fs == nullptr) {
    return PageLookup{};
  }
  // The present set's ranges are sorted and disjoint: the only candidate is the
  // last range starting at or before `page`.
  const std::vector<PageRange>& present = fs->present.ranges();
  auto run = std::upper_bound(present.begin(), present.end(), page,
                              [](PageIndex v, const PageRange& r) { return v < r.first; });
  if (run != present.begin() && std::prev(run)->Contains(page)) {
    return PageLookup{PageState::kPresent, *std::prev(run)};
  }
  auto it = FirstSpanEndingAfter(*fs, page);
  if (it != fs->in_flight.end() && it->first <= page) {
    return PageLookup{PageState::kInFlight, PageRange{page, 0}};
  }
  return PageLookup{PageState::kAbsent, PageRange{page, 0}};
}

PageCache::ReadHandle PageCache::BeginRead(FileId file, PageRange range) {
  FAASNAP_CHECK(file != kInvalidFileId);
  FAASNAP_CHECK(!range.empty());
  MutexLock lock(mu_);
  const ReadHandle handle = next_handle_++;
  FileState& fs = files_[file];
  // The disjointness invariant the interval index relies on: callers only read
  // pages that are neither present nor already in flight.
  auto overlap = FirstSpanEndingAfter(fs, range.first);
  FAASNAP_CHECK((overlap == fs.in_flight.end() || overlap->first >= range.end()) &&
                "BeginRead overlapping an in-flight read");
  fs.in_flight.emplace(range.first, InFlightSpan{range.end(), handle});
  reads_.emplace(handle, InFlightRead{file, range, {}});
  if (reads_begun_ != nullptr) {
    reads_begun_->Add(1);
    read_pages_->Add(static_cast<int64_t>(range.count));
  }
  return handle;
}

PageCache::InFlightRead PageCache::TakeRead(ReadHandle handle) {
  auto it = reads_.find(handle);
  FAASNAP_CHECK(it != reads_.end());
  InFlightRead read = std::move(it->second);
  reads_.erase(it);
  files_[read.file].in_flight.erase(read.range.first);
  return read;
}

void PageCache::CompleteRead(ReadHandle handle) {
  std::vector<Waiter> waiters;
  {
    MutexLock lock(mu_);
    InFlightRead read = TakeRead(handle);
    FileState& fs = files_[read.file];
    const uint64_t before = fs.present.page_count();
    fs.present.Add(read.range);
    NotePresentDelta(fs.present.page_count() - before);
    waiters = std::move(read.waiters);
  }
  // Waiters run unlocked: a woken faulter may re-enter the cache immediately.
  const Status ok = OkStatus();
  for (Waiter& waiter : waiters) {
    waiter(ok);
  }
}

void PageCache::FailRead(ReadHandle handle, const Status& status) {
  FAASNAP_CHECK(!status.ok());
  std::vector<Waiter> waiters;
  {
    MutexLock lock(mu_);
    InFlightRead read = TakeRead(handle);
    if (metrics_ != nullptr) {
      if (failed_reads_ == nullptr) {
        failed_reads_ = metrics_->GetCounter("page_cache.failed_reads");
      }
      failed_reads_->Add(1);
    }
    waiters = std::move(read.waiters);
  }
  // Waiters run unlocked (see CompleteRead).
  for (Waiter& waiter : waiters) {
    waiter(status);
  }
}

void PageCache::WaitFor(FileId file, PageIndex page, Waiter done) {
  MutexLock lock(mu_);
  FileState& fs = files_[file];
  auto it = FirstSpanEndingAfter(fs, page);
  if (it != fs.in_flight.end() && it->first <= page) {
    if (waiters_ != nullptr) {
      waiters_->Add(1);
    }
    reads_[it->second.handle].waiters.push_back(std::move(done));
    return;
  }
  // Contract: the page must be in flight. Reaching here is a caller bug.
  FAASNAP_CHECK(false && "WaitFor on a page that is not in flight");
}

void PageCache::Insert(FileId file, PageRange range) {
  FAASNAP_CHECK(file != kInvalidFileId);
  MutexLock lock(mu_);
  FileState& fs = files_[file];
  const uint64_t before = fs.present.page_count();
  fs.present.Add(range);
  const uint64_t added = fs.present.page_count() - before;
  NotePresentDelta(added);
  if (inserted_pages_ != nullptr) {
    inserted_pages_->Add(static_cast<int64_t>(added));
  }
}

PageRangeSet PageCache::AbsentIn(FileId file, PageRange range) const {
  PageRangeSet out;
  if (range.empty()) {
    return out;
  }
  MutexLock lock(mu_);
  const FileState* fs = FindFile(file);
  if (fs == nullptr) {
    out.Add(range);
    return out;
  }
  // Sweep the window against the two coverage sources without materializing
  // their union: both are sorted and internally disjoint, so one forward pass
  // over each suffices.
  const std::vector<PageRange>& present = fs->present.ranges();
  auto pit = std::lower_bound(present.begin(), present.end(), range.first,
                              [](const PageRange& r, PageIndex v) { return r.end() <= v; });
  auto fit = FirstSpanEndingAfter(*fs, range.first);
  PageIndex cursor = range.first;
  const PageIndex window_end = range.end();
  while (cursor < window_end) {
    while (pit != present.end() && pit->end() <= cursor) {
      ++pit;
    }
    while (fit != fs->in_flight.end() && fit->second.end <= cursor) {
      ++fit;
    }
    PageIndex covered_until = cursor;
    if (pit != present.end() && pit->first <= cursor) {
      covered_until = std::max(covered_until, pit->end());
    }
    if (fit != fs->in_flight.end() && fit->first <= cursor) {
      covered_until = std::max(covered_until, fit->second.end);
    }
    if (covered_until > cursor) {
      cursor = covered_until;
      continue;
    }
    // Absent from `cursor` to the next covering interval (or window end).
    PageIndex next_covered = window_end;
    if (pit != present.end()) {
      next_covered = std::min(next_covered, pit->first);
    }
    if (fit != fs->in_flight.end()) {
      next_covered = std::min(next_covered, fit->first);
    }
    out.Add(cursor, next_covered - cursor);
    cursor = next_covered;
  }
  return out;
}

bool PageCache::AllPresent(FileId file, PageRange range) const {
  if (range.empty()) {
    return true;
  }
  MutexLock lock(mu_);
  const FileState* fs = FindFile(file);
  return fs != nullptr && fs->present.ContainsRange(range);
}

PageRange PageCache::InFlightSpanCovering(FileId file, PageIndex page) const {
  MutexLock lock(mu_);
  const FileState* fs = FindFile(file);
  if (fs == nullptr) {
    return PageRange{page, 0};
  }
  auto it = FirstSpanEndingAfter(*fs, page);
  if (it != fs->in_flight.end() && it->first <= page) {
    return PageRange{it->first, it->second.end - it->first};
  }
  return PageRange{page, 0};
}

PageRange PageCache::PresentRunAround(FileId file, PageIndex page, uint64_t max_before,
                                      uint64_t max_after) const {
  MutexLock lock(mu_);
  const FileState* fs = FindFile(file);
  if (fs == nullptr) {
    return PageRange{page, 0};
  }
  // The present set's ranges are sorted and disjoint: the only candidate is the
  // last range starting at or before `page`.
  const std::vector<PageRange>& runs = fs->present.ranges();
  auto it = std::upper_bound(runs.begin(), runs.end(), page,
                             [](PageIndex v, const PageRange& r) { return v < r.first; });
  if (it == runs.begin()) {
    return PageRange{page, 0};
  }
  --it;
  if (!it->Contains(page)) {
    return PageRange{page, 0};
  }
  const PageIndex lo = std::max(it->first, page >= max_before ? page - max_before : 0);
  const PageIndex hi = std::min(it->end(), page + max_after + 1);
  return PageRange{lo, hi - lo};
}

PageRangeSet PageCache::PresentPages(FileId file) const {
  MutexLock lock(mu_);
  const FileState* fs = FindFile(file);
  return fs == nullptr ? PageRangeSet() : fs->present;
}

void PageCache::DropAll() {
  MutexLock lock(mu_);
  FAASNAP_CHECK(reads_.empty() && "DropAll with reads in flight");
  files_.clear();
  NotePresentDelta(-static_cast<int64_t>(present_total_));
}

void PageCache::CopyFrom(const PageCache& source) {
  std::map<FileId, FileState> files;
  ReadHandle next_handle = 0;
  uint64_t present_total = 0;
  {
    MutexLock lock(source.mu_);
    FAASNAP_CHECK(source.reads_.empty() && "CopyFrom with reads in flight");
    files = source.files_;
    next_handle = source.next_handle_;
    present_total = source.present_total_;
  }
  MutexLock lock(mu_);
  FAASNAP_CHECK(reads_.empty() && metrics_ == nullptr);
  files_ = std::move(files);
  next_handle_ = next_handle;
  present_total_ = present_total;
}

void PageCache::DropFile(FileId file) {
  MutexLock lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return;
  }
  FAASNAP_CHECK(it->second.in_flight.empty() && "DropFile with reads in flight");
  NotePresentDelta(-static_cast<int64_t>(it->second.present.page_count()));
  files_.erase(it);
}

uint64_t PageCache::present_page_count() const {
  MutexLock lock(mu_);
  return present_total_;
}

void PageCache::NotePresentDelta(int64_t delta) {
  present_total_ = static_cast<uint64_t>(static_cast<int64_t>(present_total_) + delta);
  if (present_pages_gauge_ != nullptr) {
    present_pages_gauge_->Set(static_cast<double>(present_total_));
  }
}

void PageCache::set_observability(MetricsRegistry* metrics) {
  MutexLock lock(mu_);
  metrics_ = metrics;
  failed_reads_ = nullptr;  // re-resolved lazily on the first failure
  if (metrics == nullptr) {
    reads_begun_ = nullptr;
    read_pages_ = nullptr;
    inserted_pages_ = nullptr;
    waiters_ = nullptr;
    present_pages_gauge_ = nullptr;
    return;
  }
  reads_begun_ = metrics->GetCounter("page_cache.reads_begun");
  read_pages_ = metrics->GetCounter("page_cache.read_pages");
  inserted_pages_ = metrics->GetCounter("page_cache.inserted_pages");
  waiters_ = metrics->GetCounter("page_cache.waiters");
  present_pages_gauge_ = metrics->GetGauge("page_cache.present_pages");
  present_pages_gauge_->Set(static_cast<double>(present_total_));
}

}  // namespace faasnap
