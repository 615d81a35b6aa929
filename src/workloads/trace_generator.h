// Trace generation for the Table 2 functions.
//
// A TraceGenerator turns a FunctionSpec plus a concrete input into an
// InvocationTrace over the guest layout:
//
//   1. stable pages: a fixed scattered permutation (runtime/library init order,
//      identical every invocation) followed by a sequential remainder (linear data
//      reads: the Python list, model weights);
//   2. input pages: a content-seeded subset of a window sized
//      window_factor * input_pages — different content selects different pages
//      (the image-diff effect); larger inputs use larger windows, pushing accesses
//      beyond any previously recorded working set (the Figure 8 effect);
//   3. anon pages: a sequential first-touch write sweep over the scratch zone
//      (the mmap-function / buffer-allocation pattern).
//
// Transient pages (2) and (3) are freed when the invocation ends; compute is
// spread uniformly across the accesses. Generate emits maximal runs (see
// vm/trace.h), so the sequential parts cost O(1) and only the scattered and
// window pages are placed one by one.

#ifndef FAASNAP_SRC_WORKLOADS_TRACE_GENERATOR_H_
#define FAASNAP_SRC_WORKLOADS_TRACE_GENERATOR_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/vm/guest_layout.h"
#include "src/vm/trace.h"
#include "src/workloads/function_spec.h"

namespace faasnap {

// A concrete invocation input: which content (seed) and how big (profile).
struct WorkloadInput {
  uint64_t content_seed = 1;
  InputProfile profile;
};

// Table 2's input A / input B. Fixed-input functions get the same seed for both.
WorkloadInput MakeInputA(const FunctionSpec& spec);
WorkloadInput MakeInputB(const FunctionSpec& spec);

// The largest ratio MakeScaledInput accepts. Every catalog function's scaled
// sizes must fit their integer types. Page counts scale linearly from at most
// mmap's 512 MiB (131,072 pages), so 1.3e11 pages at the bound, far inside
// uint64. Compute scales as ratio^compute_exponent; the steepest is matmul's
// 700 ms x ratio^1.5, which is 7e8 ns x 1e9 = 7e17 ns at the bound, inside
// int64 nanoseconds (9.2e18) with room for the rest of the invocation.
inline constexpr double kMaxInputRatio = 1e6;

// Figure 8: an input whose size is `ratio` times input A (contents differ from A).
// `ratio` must be in (0, kMaxInputRatio].
WorkloadInput MakeScaledInput(const FunctionSpec& spec, double ratio, uint64_t content_seed);

class TraceGenerator {
 public:
  // Aborts (CHECK) if the spec cannot fit the layout.
  TraceGenerator(FunctionSpec spec, GuestLayout layout);

  InvocationTrace Generate(const WorkloadInput& input) const;

  // Non-zero pages of the function's "clean" snapshot (freshly booted VM with the
  // runtime initialized): the boot zone plus the stable pages.
  PageRangeSet CleanSnapshotNonZero() const;

  // The clustered-scatter placement of the runtime/library pages: short runs
  // separated by small gaps, with occasional large jumps. This is what makes a
  // minimal function's loading set consist of >1000 regions before merging
  // (section 4.6), and what blunts kernel readahead for vanilla restore.
  const std::vector<PageRange>& scattered_runs() const { return scattered_runs_; }
  // Long-lived sequential data (the Python list, model weights) after the span.
  const PageRange& sequential_stable() const { return sequential_stable_; }

  // Pages placed in the scattered span (slightly more than any one input touches;
  // the remainder models input-dependent code paths).
  uint64_t TotalScatteredPlaced() const;

  const FunctionSpec& spec() const { return spec_; }
  const GuestLayout& layout() const { return layout_; }

 private:
  FunctionSpec spec_;
  GuestLayout layout_;
  std::vector<PageRange> scattered_runs_;
  PageRange sequential_stable_;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_WORKLOADS_TRACE_GENERATOR_H_
