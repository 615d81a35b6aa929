// Record-phase working-set recorders.
//
// FaasnapRecorder implements host page recording (paper sections 4.4, 5): the
// daemon polls the guest's RSS and, once at least one group's worth (1024) of new
// pages is resident, runs a mincore scan over the mapped memory file. Each scan's
// newly present pages form the next working set group. Because mincore sees the
// host page cache, pages pulled in by readahead — never faulted on by the guest —
// are recorded too; that is precisely what makes the working set tolerant of
// input changes.
//
// ReapRecorder reproduces REAP's record phase: userfaultfd reports each faulting
// guest page; the fault-order page list becomes the working set file. Readahead
// pages are NOT captured (the comparison the paper draws in section 4.4).

#ifndef FAASNAP_SRC_CORE_RECORDER_H_
#define FAASNAP_SRC_CORE_RECORDER_H_

#include <cstdint>
#include <vector>

#include "src/common/page_range.h"
#include "src/mem/address_space.h"
#include "src/mem/fault_metrics.h"
#include "src/mem/page_cache.h"
#include "src/snapshot/snapshot_files.h"

namespace faasnap {

class FaasnapRecorder {
 public:
  // `memory_file` is the clean snapshot's memory file, mapped 1:1 over guest
  // physical memory during the record invocation, so cache presence at file page p
  // corresponds to guest page p.
  FaasnapRecorder(const PageCache* cache, FileId memory_file, uint64_t group_size = 1024);

  // Vm access observer: counts newly resident pages and triggers scans.
  void OnAccess(PageIndex page, FaultClass cls);

  // Final scan; returns the recorded groups. The recorder is spent afterwards.
  WorkingSetGroups Finish();

  uint64_t scan_count() const { return scan_count_; }

 private:
  void Scan();

  const PageCache* cache_;
  FileId memory_file_;
  uint64_t group_size_;
  uint64_t new_resident_since_scan_ = 0;
  PageRangeSet::Builder pending_resident_;  // first-touched pages since the last scan
  PageRangeSet recorded_;          // union of all groups so far
  WorkingSetGroups groups_;
  uint64_t scan_count_ = 0;
};

class ReapRecorder {
 public:
  // Vm access observer: records each first fault in order.
  void OnAccess(PageIndex page, FaultClass cls);

  // The fault-ordered working set (file id assigned by the caller).
  ReapWorkingSetFile Finish() &&;

  PageCount recorded_pages() const { return PageCount::FromPages(pages_.size()); }

 private:
  std::vector<PageIndex> pages_;
  std::vector<bool> seen_;  // first-touch bitmap, grown to the highest page seen
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_CORE_RECORDER_H_
