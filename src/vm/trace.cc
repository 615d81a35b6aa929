#include "src/vm/trace.h"

#include <algorithm>
#include <utility>

#include "src/common/status.h"

namespace faasnap {

uint64_t InvocationTrace::access_count() const {
  uint64_t pages = 0;
  for (const TraceRun& run : runs) {
    pages += run.pages;
  }
  return pages;
}

PageRangeSet InvocationTrace::TouchedPages() const {
  PageRangeSet::Builder touched;
  for (const TraceRun& run : runs) {
    touched.Add(PageRange{run.first, run.pages});
  }
  return std::move(touched).Build();
}

PageRangeSet InvocationTrace::WrittenPages(uint64_t pages_executed) const {
  PageRangeSet::Builder written;
  uint64_t left = pages_executed;
  for (size_t i = 0; i < runs.size() && left > 0; ++i) {
    const uint64_t taken = std::min<uint64_t>(left, runs[i].pages);
    if (runs[i].is_write) {
      written.Add(PageRange{runs[i].first, taken});
    }
    left -= taken;
  }
  FAASNAP_CHECK(left == 0 && "more pages executed than the trace holds");
  return std::move(written).Build();
}

Duration InvocationTrace::TotalCompute() const {
  Duration total = trailing_compute;
  for (const TraceRun& run : runs) {
    total += run.compute * static_cast<int64_t>(run.pages);
  }
  return total;
}

std::vector<TraceOp> InvocationTrace::ExpandedOps() const {
  std::vector<TraceOp> ops;
  ops.reserve(access_count());
  for (const TraceRun& run : runs) {
    for (PageIndex page = run.first; page < run.end(); ++page) {
      ops.push_back(TraceOp{run.compute, page, run.is_write});
    }
  }
  return ops;
}

}  // namespace faasnap
