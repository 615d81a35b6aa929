// Host OS page cache model.
//
// One PageCache instance models the whole host's cache; it is shared by every VM,
// the FaaSnap loader, and readahead — the sharing is what Figure 10's same-snapshot
// burst results depend on ("the guests are in effect loading the cache for each
// other"). State per (file, page):
//
//   kAbsent   — not cached; a read must go to the device,
//   kInFlight — a device read covering the page has been issued; faulters can sleep
//               on it instead of issuing a duplicate read,
//   kPresent  — cached; access is a minor fault.
//
// The cache is passive with respect to IO: callers (FaultEngine, the FaaSnap
// loader, REAP's fetcher) issue device reads themselves and bracket them with
// BeginRead/CompleteRead so concurrent actors coordinate through cache state.
//
// Thread safety: all state (present sets, the in-flight interval index, waiter
// lists) is guarded by one mutex; waiters are always invoked with the lock
// released, so a woken waiter may immediately re-enter the cache (BeginRead a
// retry, WaitFor another page) without deadlocking.

#ifndef FAASNAP_SRC_MEM_PAGE_CACHE_H_
#define FAASNAP_SRC_MEM_PAGE_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/mutex.h"
#include "src/common/page_range.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics_registry.h"
#include "src/sim/simulation.h"

namespace faasnap {

class PageCache {
 public:
  enum class PageState { kAbsent, kInFlight, kPresent };

  // Opaque token for an in-flight read; returned by BeginRead.
  using ReadHandle = uint64_t;

  PageCache() = default;
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // One page's state and, when it is present, the present run holding it
  // (empty otherwise), from one locked search: the fault path answers the
  // later pages of that run without asking again.
  struct PageLookup {
    PageState state = PageState::kAbsent;
    PageRange present;
  };
  PageLookup Lookup(FileId file, PageIndex page) const FAASNAP_EXCLUDES(mu_);

  PageState GetState(FileId file, PageIndex page) const { return Lookup(file, page).state; }
  bool IsPresent(FileId file, PageIndex page) const {
    return GetState(file, page) == PageState::kPresent;
  }

  // Marks `range` of `file` as in flight. The caller must later call CompleteRead
  // with the returned handle (typically from the device-completion callback).
  ReadHandle BeginRead(FileId file, PageRange range) FAASNAP_EXCLUDES(mu_);

  // Installs the read's pages as present and wakes all waiters registered on
  // them with OkStatus(). Waiters run with the lock released.
  void CompleteRead(ReadHandle handle) FAASNAP_EXCLUDES(mu_);

  // Retires a failed read: the pages are NOT installed (they return to kAbsent,
  // so a later access may retry the IO) and all waiters are woken with
  // `status`, which must be non-OK. Waiters left unnotified would sleep
  // forever — every BeginRead must end in CompleteRead or FailRead.
  void FailRead(ReadHandle handle, const Status& status) FAASNAP_EXCLUDES(mu_);

  // Waiter callback: receives OkStatus() when the page became present, or the
  // read's failure when the covering IO failed (page still absent).
  using Waiter = std::function<void(const Status&)>;

  // Registers `done` to run when `page` (which must be kInFlight) settles.
  void WaitFor(FileId file, PageIndex page, Waiter done) FAASNAP_EXCLUDES(mu_);

  // Directly installs pages as present (snapshot preload for the Cached baseline,
  // pages written by the VMM, etc.).
  void Insert(FileId file, PageRange range) FAASNAP_EXCLUDES(mu_);

  // Subset of `range` that is absent (not present and not in flight). This is what
  // a prefetcher still needs to read.
  PageRangeSet AbsentIn(FileId file, PageRange range) const FAASNAP_EXCLUDES(mu_);

  // True iff every page of `range` is present (a huge-region install requires the
  // whole 2 MiB of backing data cached).
  bool AllPresent(FileId file, PageRange range) const FAASNAP_EXCLUDES(mu_);

  // The in-flight read span covering `page`, or an empty range at `page` if no
  // read covers it. Fault coalescing joins this IO for the whole span instead of
  // taking one inflight-wait fault per page.
  PageRange InFlightSpanCovering(FileId file, PageIndex page) const FAASNAP_EXCLUDES(mu_);

  // The contiguous present run containing `page`, clamped to at most `max_before`
  // pages before and `max_after` after it; empty at `page` if not present. This
  // is the run a batched uffd handler can install from one pread buffer.
  PageRange PresentRunAround(FileId file, PageIndex page, uint64_t max_before,
                             uint64_t max_after) const FAASNAP_EXCLUDES(mu_);

  // All present pages of `file` — the model's mincore(2) over a mapped file.
  PageRangeSet PresentPages(FileId file) const FAASNAP_EXCLUDES(mu_);

  // echo 3 > /proc/sys/vm/drop_caches between experiments (section 6.1).
  // Requires no reads in flight.
  void DropAll() FAASNAP_EXCLUDES(mu_);
  void DropFile(FileId file) FAASNAP_EXCLUDES(mu_);

  // Takes `source`'s present pages and read-handle counter. Neither cache may
  // have a read in flight, and this one must have no metrics attached (its
  // present-pages gauge would go stale).
  void CopyFrom(const PageCache& source) FAASNAP_EXCLUDES(mu_);

  // Total pages cached across all files (page-cache memory footprint, section 7.3).
  uint64_t present_page_count() const FAASNAP_EXCLUDES(mu_);

  // Attaches metrics: pages read into / inserted into the cache, reads begun,
  // waiters registered, and a footprint gauge. Null detaches; detached cost is
  // one branch per operation.
  void set_observability(MetricsRegistry* metrics) FAASNAP_EXCLUDES(mu_);

 private:
  struct InFlightRead {
    FileId file = kInvalidFileId;
    PageRange range;
    std::vector<Waiter> waiters;
  };

  // Shared tail of CompleteRead/FailRead: unlinks the read and returns it.
  InFlightRead TakeRead(ReadHandle handle) FAASNAP_REQUIRES(mu_);

  // One outstanding read's interval, indexed by its start page in
  // FileState::in_flight. In-flight intervals of one file are pairwise disjoint
  // (BeginRead is only issued for absent pages), so a start-keyed ordered map
  // supports O(log n) point and range queries.
  struct InFlightSpan {
    PageIndex end = 0;  // exclusive
    ReadHandle handle = 0;
  };

  struct FileState {
    PageRangeSet present;
    std::map<PageIndex, InFlightSpan> in_flight;  // key: range.first
  };

  const FileState* FindFile(FileId file) const FAASNAP_REQUIRES(mu_);

  // Adjusts the running footprint count (and gauge, when attached).
  void NotePresentDelta(int64_t delta) FAASNAP_REQUIRES(mu_);

  // Iterator to the first in-flight span of `fs` with end > page, or end().
  static std::map<PageIndex, InFlightSpan>::const_iterator FirstSpanEndingAfter(
      const FileState& fs, PageIndex page);

  mutable Mutex mu_;
  std::map<FileId, FileState> files_ FAASNAP_GUARDED_BY(mu_);
  std::map<ReadHandle, InFlightRead> reads_ FAASNAP_GUARDED_BY(mu_);
  ReadHandle next_handle_ FAASNAP_GUARDED_BY(mu_) = 1;

  Counter* reads_begun_ FAASNAP_GUARDED_BY(mu_) = nullptr;
  Counter* read_pages_ FAASNAP_GUARDED_BY(mu_) = nullptr;
  Counter* inserted_pages_ FAASNAP_GUARDED_BY(mu_) = nullptr;
  Counter* waiters_ FAASNAP_GUARDED_BY(mu_) = nullptr;
  // Registered lazily on the first failure (reads only fail under fault
  // injection), so fault-free runs keep a bit-identical metrics snapshot.
  Counter* failed_reads_ FAASNAP_GUARDED_BY(mu_) = nullptr;
  MetricsRegistry* metrics_ FAASNAP_GUARDED_BY(mu_) = nullptr;
  Gauge* present_pages_gauge_ FAASNAP_GUARDED_BY(mu_) = nullptr;
  // Running count of present pages across files: present_page_count() and the gauge.
  uint64_t present_total_ FAASNAP_GUARDED_BY(mu_) = 0;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_MEM_PAGE_CACHE_H_
