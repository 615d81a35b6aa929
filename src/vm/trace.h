// Invocation traces: the memory behavior of one function invocation.
//
// A trace is the sequence of (compute, page access) steps the guest performs while
// serving a request, plus which pages it frees when the invocation finishes. The
// trace is the interface between the workload models (Table 2 functions) and the
// Vm executor: snapshot-restore policies never see function semantics, only the
// page accesses — exactly the information the host kernel sees in reality.
//
// Run-length format. The trace is stored as runs: `pages` consecutive guest
// pages from `first` on, each accessed after `compute` of CPU work, all reads
// or all writes. The guest executes a run page by page, exactly as the expanded
// sequence of one-page steps (ExpandedOps) would, so how a sequence is cut
// into runs changes no simulated result; maximal runs only make the trace and
// its execution cheaper. TraceGenerator emits maximal runs, so TouchedPages,
// WrittenPages and TotalCompute cost O(runs), and so does the guest's lookup
// work for pages that share a mapping and a cached span. access_count() and
// every prefix count (WrittenPages, the Vm's InvocationResult::access_count)
// count pages, not runs: a prefix may end in the middle of a run.

#ifndef FAASNAP_SRC_VM_TRACE_H_
#define FAASNAP_SRC_VM_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/page_range.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace faasnap {

// One page access of the expanded trace.
struct TraceOp {
  Duration compute;  // CPU work performed before the access
  PageIndex page = 0;
  bool is_write = false;

  bool operator==(const TraceOp&) const = default;
};

// Accesses to pages [first, first + pages), in order, each after `compute`.
// 24 bytes: a scattered trace holds about one run per page.
struct TraceRun {
  PageIndex first = 0;
  uint32_t pages = 1;
  bool is_write = false;
  Duration compute;  // CPU work performed before each page's access

  PageIndex end() const { return first + pages; }
};
static_assert(sizeof(TraceRun) == 24);

struct InvocationTrace {
  std::vector<TraceRun> runs;
  // Compute after the last access (result serialization, response).
  Duration trailing_compute;
  // Guest pages freed when the invocation completes (transient allocations). With
  // the modified guest kernel these are sanitized to zero (section 4.5).
  PageRangeSet freed_at_end;

  // Appends `count` (> 0) accesses from `first` on, extending the last run
  // when they continue it (next page, same compute, same write bit). Inline:
  // the generator appends scattered pages one by one.
  void Append(PageIndex first, uint64_t count, Duration compute, bool is_write) {
    if (!runs.empty()) {
      TraceRun& last = runs.back();
      if (last.end() == first && last.compute == compute && last.is_write == is_write &&
          count <= UINT32_MAX - last.pages) {
        last.pages += static_cast<uint32_t>(count);
        return;
      }
    }
    FAASNAP_CHECK(count <= UINT32_MAX && "a run spans at most 2^32 - 1 pages");
    runs.push_back(TraceRun{first, static_cast<uint32_t>(count), is_write, compute});
  }
  void Append(const TraceOp& op) { Append(op.page, 1, op.compute, op.is_write); }

  // Page accesses in the trace. O(runs).
  uint64_t access_count() const;
  // Distinct pages touched. O(runs).
  PageRangeSet TouchedPages() const;
  // Pages written by the first `pages_executed` accesses (the prefix a Vm
  // executed). O(runs).
  PageRangeSet WrittenPages(uint64_t pages_executed) const;
  // Total CPU time in the trace. O(runs).
  Duration TotalCompute() const;
  // The one-access-per-page view, O(pages): for tests and tools that compare
  // traces independently of how they are cut into runs.
  std::vector<TraceOp> ExpandedOps() const;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_VM_TRACE_H_
