#include "src/vm/trace.h"

#include <utility>

#include "src/common/status.h"

namespace faasnap {

PageRangeSet InvocationTrace::TouchedPages() const {
  PageRangeSet::Builder touched;
  for (const TraceOp& op : ops) {
    touched.AddPage(op.page);
  }
  return std::move(touched).Build();
}

PageRangeSet InvocationTrace::WrittenPages(uint64_t op_count) const {
  FAASNAP_CHECK(op_count <= ops.size());
  PageRangeSet::Builder written;
  for (uint64_t i = 0; i < op_count; ++i) {
    if (ops[i].is_write) {
      written.AddPage(ops[i].page);
    }
  }
  return std::move(written).Build();
}

Duration InvocationTrace::TotalCompute() const {
  Duration total = trailing_compute;
  for (const TraceOp& op : ops) {
    total += op.compute;
  }
  return total;
}

}  // namespace faasnap
