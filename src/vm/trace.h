// Invocation traces: the memory behavior of one function invocation.
//
// A trace is the sequence of (compute, page access) steps the guest performs while
// serving a request, plus which pages it frees when the invocation finishes. The
// trace is the interface between the workload models (Table 2 functions) and the
// Vm executor: snapshot-restore policies never see function semantics, only the
// page accesses — exactly the information the host kernel sees in reality.

#ifndef FAASNAP_SRC_VM_TRACE_H_
#define FAASNAP_SRC_VM_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/page_range.h"
#include "src/common/sim_time.h"

namespace faasnap {

struct TraceOp {
  Duration compute;  // CPU work performed before the access
  PageIndex page = 0;
  bool is_write = false;
};

struct InvocationTrace {
  std::vector<TraceOp> ops;
  // Compute after the last access (result serialization, response).
  Duration trailing_compute;
  // Guest pages freed when the invocation completes (transient allocations). With
  // the modified guest kernel these are sanitized to zero (section 4.5).
  PageRangeSet freed_at_end;

  uint64_t access_count() const { return ops.size(); }
  // Distinct pages touched (upper bound: ops may repeat pages).
  PageRangeSet TouchedPages() const;
  // Pages written by the first `op_count` ops (the prefix a Vm executed).
  PageRangeSet WrittenPages(uint64_t op_count) const;
  // Total CPU time in the trace.
  Duration TotalCompute() const;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_VM_TRACE_H_
