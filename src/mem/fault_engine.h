// FaultEngine: resolves guest page accesses against the host memory subsystem.
//
// This is the simulation's equivalent of the host kernel's fault path plus KVM's
// kvm_mmu_page_fault: given a guest-physical page access it consults the VM's
// address-space layering (anonymous vs file-backed), the shared page cache, the
// readahead policy, and the block device, then retires the access after the right
// amount of simulated time, recording the fault class and latency.
//
// userfaultfd is modeled by registering a region with a UffdHandler: not-present
// faults inside the region are delivered to the handler (REAP's userspace monitor)
// instead of the kernel file-backed path.

#ifndef FAASNAP_SRC_MEM_FAULT_ENGINE_H_
#define FAASNAP_SRC_MEM_FAULT_ENGINE_H_

#include <functional>

#include "src/common/page_range.h"
#include "src/mem/address_space.h"
#include "src/mem/cost_model.h"
#include "src/mem/fault_metrics.h"
#include "src/mem/page_cache.h"
#include "src/mem/readahead.h"
#include "src/obs/span_tracer.h"
#include "src/sim/simulation.h"
#include "src/storage/storage_router.h"

namespace faasnap {

// Userspace fault handler interface (REAP's userfaultfd monitor).
class UffdHandler {
 public:
  virtual ~UffdHandler() = default;

  // Resolve the fault on `guest_page`: make the page's contents available and
  // call `done(OkStatus())` (on the simulation clock) when the UFFDIO_COPY could
  // be issued, or `done(error)` if the contents could not be produced (e.g. the
  // backing read failed terminally). The engine accounts the uffd round-trip
  // cost and installs the page on success; on failure it routes the error to
  // the failure sink.
  virtual void HandleFault(PageIndex guest_page, std::function<void(const Status&)> done) = 0;

  // Batched variant (batched-uffd-install lever): the handler may resolve a
  // whole contiguous run around `guest_page` from one pread buffer and report
  // it so the engine installs the run with a single multi-page UFFDIO_COPY.
  // `run` must contain `guest_page`; the engine trims it to pages that are
  // still uninstalled and within one mapping. The default forwards to the
  // single-page HandleFault, so existing handlers keep working unchanged.
  virtual void HandleFaultBatched(PageIndex guest_page,
                                  std::function<void(const Status&, PageRange)> done) {
    HandleFault(guest_page, [guest_page, done = std::move(done)](const Status& status) {
      done(status, PageRange{guest_page, 1});
    });
  }
};

class FaultEngine {
 public:
  // All pointers must outlive the engine. `file_size_pages` bounds readahead
  // windows at end-of-file for any file id the address space references.
  FaultEngine(Simulation* sim, PageCache* cache, StorageRouter* storage, AddressSpace* space,
              ReadaheadPolicy* readahead, std::function<PageCount(FileId)> file_size_pages,
              HostCostModel costs = {});

  // Routes not-present faults on `region` to `handler` (userfaultfd registration).
  void RegisterUffd(PageRangeSet region, UffdHandler* handler);

  // Performs a guest access to `page`.
  //  * Returns true if the access retired synchronously; `done` is NOT called —
  //    the caller continues in line (this keeps hot loops from flooding the
  //    event queue). Either the page was already installed (no fault), or —
  //    only when `retired` is non-null — a fixed-cost fault (uffd-preinstalled,
  //    anonymous, page-cache minor, huge-install) retired inline: the clock was
  //    fast-forwarded to its end and it was recorded exactly as the evented
  //    retire would have. `*retired` then holds the class (kNoFault or the
  //    fault's).
  //  * Returns false if a fault is in progress; `done(fault_class)` fires on the
  //    sim clock once the access retires.
  // Pass a non-null `retired` only from the last action of an event callback;
  // Simulation::TryFastForward checks the rest of the fast-forward rule.
  //
  // The no-fault check stays inline so the overwhelmingly common "page already
  // installed" case costs a lookup and a counter bump; the fault machinery
  // (including span recording) lives out of line in AccessSlow.
  bool Access(PageIndex page, std::function<void(FaultClass)> done,
              FaultClass* retired = nullptr) {
    if (space_->install_state(page) == PageInstallState::kPresent) {
      // No-faults are counted (including the registry counter) but never enter
      // the handling-time histograms: a zero-duration sample per touched page
      // would drown the real fault latencies in the percentile summaries.
      metrics_.RecordFault(FaultClass::kNoFault, Duration::Zero());
      if (class_counters_[0] != nullptr) {
        class_counters_[0]->Add(1);
      }
      if (retired != nullptr) {
        *retired = FaultClass::kNoFault;
      }
      return true;
    }
    return AccessSlow(page, std::move(done), retired);
  }

  // Makes a file page readable through the page cache (issuing a device read with
  // readahead on a miss) and calls `done(status, state_before)` at data-ready
  // time; a non-OK status means the covering read failed terminally and the page
  // is still absent. Used by the major-fault path and by REAP's handler pread.
  // Disk traffic is charged to fault metrics iff `charge_to_faults`. `parent`
  // links issued disk-read spans to the causing span.
  void EnsureFilePage(FileId file, PageIndex page, bool charge_to_faults,
                      std::function<void(const Status&, PageCache::PageState)> done,
                      SpanId parent = kNoSpan);

  // Sink for accesses that fail terminally (a device read error survived
  // retries/failover). The engine cannot resolve the fault, so instead of
  // retiring the access it reports the error here; the owning Vm aborts the
  // invocation with the status. Must be installed whenever failures are
  // possible (i.e. under fault injection).
  void set_failure_sink(std::function<void(const Status&)> sink) {
    failure_sink_ = std::move(sink);
  }

  // Enables fault-path levers (batched uffd installs, huge regions, fault
  // coalescing). Must be set before set_observability so the lever counters are
  // registered iff their lever is on — disabled runs keep a bit-identical
  // metrics snapshot. All levers default to off.
  void set_fault_path(const FaultPathConfig& fault_path) { fault_path_ = fault_path; }
  const FaultPathConfig& fault_path() const { return fault_path_; }

  // Records one batched UFFDIO_COPY covering `pages` contiguous pages (metrics,
  // counters, and the batch-size histogram). Called by the batched fault path
  // and by REAP's run-granular working-set install.
  void NoteBatchInstall(uint64_t pages);

  const FaultMetrics& metrics() const { return metrics_; }
  FaultMetrics& mutable_metrics() { return metrics_; }
  const HostCostModel& costs() const { return costs_; }
  AddressSpace* address_space() { return space_; }
  PageCache* page_cache() { return cache_; }
  StorageRouter* storage() { return storage_; }

  // Attaches span tracing and metrics. Every fault becomes a span on the vCPU
  // lane (child of the current invocation span); uffd round trips and issued
  // disk reads nest under it. Metrics: per-class fault counters and handling
  // histograms. Null pointers detach; detached cost is one branch per fault.
  void set_observability(SpanTracer* spans, MetricsRegistry* metrics);

  // Span all subsequent fault spans parent to (the running invocation's span).
  void set_invocation_span(SpanId span) { invocation_span_ = span; }

  // Extra vCPU-block time charged per uffd-handled fault (context switches while
  // KVM waits for the vCPU to be ready; section 6.4). Exposed for calibration.
  Duration uffd_vcpu_block_extra() const { return uffd_vcpu_block_extra_; }
  void set_uffd_vcpu_block_extra(Duration d) { uffd_vcpu_block_extra_ = d; }

 private:
  // The not-present tail of Access: classifies and retires the fault.
  bool AccessSlow(PageIndex page, std::function<void(FaultClass)> done, FaultClass* retired);

  bool FinishFault(PageIndex page, FaultClass cls, SimTime fault_start, Duration tail_cost,
                   Duration extra_wait, SpanId fault_span, std::function<void(FaultClass)> done,
                   FaultClass* retired = nullptr);

  // Run-granular retire (the lever paths): one fault sample for `page`, with
  // every other page of `run` installed as `neighbor_state` in the same event
  // (kPresent for huge installs and coalesced runs, kSoftPresent for batched
  // uffd copies the guest has not touched yet). With a non-null `retired` the
  // fault retires inline when Simulation::TryFastForward allows it: returns
  // true with `*retired` set and `done` dropped. Otherwise schedules the
  // retire event and returns false.
  bool FinishFaultRun(PageRange run, PageIndex page, FaultClass cls,
                      PageInstallState neighbor_state, SimTime fault_start, Duration tail_cost,
                      Duration extra_wait, SpanId fault_span,
                      std::function<void(FaultClass)> done, FaultClass* retired = nullptr);

  // The retire body shared by the evented and inline paths: fault metrics,
  // span end, class counter and histogram, lever accounting, install state.
  void RetireFault(PageRange run, PageIndex page, FaultClass cls,
                   PageInstallState neighbor_state, SimTime fault_start, Duration extra_wait,
                   SpanId fault_span);

  // Clamps `run` to the maximal contiguous sub-run around `page` whose pages
  // are still uninstalled and share `page`'s mapping.
  PageRange TrimToUninstalled(PageRange run, PageIndex page) const;

  // Whether a huge-eligible region can actually be installed whole: fully
  // inside one mapping, fully uninstalled, and (for file backings) fully cached.
  bool HugeInstallable(PageRange region) const;

  // Terminal-failure tail of AccessSlow: closes the fault span and routes the
  // error to the failure sink (the access never retires; `done` is dropped).
  void FailAccess(PageIndex page, SpanId fault_span, const Status& status);

  Simulation* sim_;
  PageCache* cache_;
  StorageRouter* storage_;
  AddressSpace* space_;
  ReadaheadPolicy* readahead_;
  std::function<PageCount(FileId)> file_size_pages_;
  HostCostModel costs_;
  FaultPathConfig fault_path_;
  FaultMetrics metrics_;

  PageIndex last_minor_page_ = static_cast<PageIndex>(-2);

  SpanTracer* spans_ = nullptr;
  uint32_t fault_name_ = 0;         // pre-interned obsname::kFault
  uint32_t uffd_resolve_name_ = 0;  // pre-interned obsname::kUffdResolve
  SpanId invocation_span_ = kNoSpan;
  // Per-class counters and handling-time histograms; null when detached. The
  // no-fault slot never gets a histogram (no-faults have no handling latency)
  // and the huge-install slot only registers when the huge lever is on.
  Counter* class_counters_[static_cast<int>(FaultClass::kClassCount)] = {};
  Log2Histogram* class_histograms_[static_cast<int>(FaultClass::kClassCount)] = {};
  // Lever counters; registered in set_observability iff the lever is enabled,
  // so disabled runs keep a bit-identical metrics snapshot.
  Counter* batch_installs_ctr_ = nullptr;
  Counter* batch_pages_ctr_ = nullptr;
  Log2Histogram* batch_size_hist_ = nullptr;  // pages per batch, not nanoseconds
  Counter* huge_installs_ctr_ = nullptr;
  Counter* huge_pages_ctr_ = nullptr;
  Counter* huge_splits_ctr_ = nullptr;
  Counter* coalesced_ctr_ = nullptr;

  PageRangeSet uffd_region_;
  UffdHandler* uffd_handler_ = nullptr;
  std::function<void(const Status&)> failure_sink_;
  Duration uffd_vcpu_block_extra_ = Duration::Micros(25);
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_MEM_FAULT_ENGINE_H_
