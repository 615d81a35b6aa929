// Guest physical memory layout.
//
// The evaluation guest is a 2 GiB Debian VM (section 6.1). We carve its physical
// address space into zones that correspond to how the paper's functions use
// memory; workload trace generators place their accesses inside these zones and
// the snapshot builders derive zero/non-zero classification from them:
//
//   boot    — kernel text/data and boot-time allocations: non-zero, almost never
//             touched during an invocation (the bulk of the "cold set", >100 MiB,
//             section 4.8),
//   stable  — runtime, libraries, function code, and long-lived data (a loaded
//             Python list, ResNet weights): non-zero, re-read every invocation,
//   window  — input-dependent transient data: the function touches a
//             content-selected subset each invocation,
//   scratch — large sequential anonymous allocations (the mmap function, frame
//             buffers, matrices), freed when the invocation ends.

#ifndef FAASNAP_SRC_VM_GUEST_LAYOUT_H_
#define FAASNAP_SRC_VM_GUEST_LAYOUT_H_

#include <cstdint>

#include "src/common/page_range.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace faasnap {

// The most vCPUs a guest may have: Firecracker caps a microVM at 32. The bound
// also keeps a burst's runnable-vCPU count (parallelism x vcpus) far from the
// range of CpuModel's int counter.
inline constexpr int kMaxGuestVcpus = 32;

struct GuestConfig {
  PageCount mem_pages = BytesToPages(GiB(2));
  int vcpus = 2;  // the paper uses 1 vCPU in section 3 and 2 vCPUs in section 6
};

struct GuestLayout {
  PageCount total_pages;
  PageRange boot;
  PageRange stable;
  PageRange window;
  PageRange scratch;

  // The standard 2 GiB layout used throughout the evaluation:
  //   boot    [0,      30720)   120 MiB
  //   stable  [30720,  190720)  625 MiB (read-list's 526 MiB set + scatter span)
  //   window  [190720, 346112)  607 MiB (fits pagerank at 4x input)
  //   scratch [346112, 524288)  696 MiB (fits ffmpeg's buffers at 4x input)
  static GuestLayout Default2GiB();

  // Sanity: zones are disjoint, ordered, and inside [0, total_pages).
  Status Validate() const;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_VM_GUEST_LAYOUT_H_
