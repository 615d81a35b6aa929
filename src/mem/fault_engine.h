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
//
// One access path, run-granular. AccessRun serves a run of consecutive guest
// pages, each after its compute burst; Access(page) is its one-page case. Each
// page is classified once, after its burst has ended: present pages retire at
// once, fixed-cost faults retire in line while their time stays within one
// fast-forward bound (Simulation::FastForwardBound, read once per call and
// again after each observer call), and the first page that cannot leaves for
// an event with its class and cost already computed. The walk runs on a local
// clock and commits it, the registry counters and the install bytes of the
// pages it retired at each exit. The mapping run and the page-cache present
// run are looked up lazily and reused for later pages (RunLookups) until the
// current event ends: no event fires within one stretch, so neither can
// change under it. An evented retire reaches the guest through the
// FaultGuest set once per invocation, so no access carries a callback of its
// own.

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
  // call `done(OkStatus(), run)` (on the simulation clock) when the UFFDIO_COPY
  // could be issued, or `done(error, run)` if the contents could not be
  // produced (e.g. the backing read failed terminally). `run` contains
  // `guest_page`: the contiguous run the handler's buffer holds, or the page
  // alone. With the batched-uffd-install lever on, the engine trims it to pages
  // still uninstalled within one mapping and installs them with one multi-page
  // UFFDIO_COPY; with it off, the engine installs the page alone. The engine
  // accounts the uffd round trip and installs on success; on failure it routes
  // the error to the guest (FaultGuest::Fail).
  virtual void HandleFault(PageIndex guest_page,
                           std::function<void(const Status&, PageRange)> done) = 0;
};

// The guest that issues accesses (the Vm): how an access that left AccessRun
// for an event reaches it again.
class FaultGuest {
 public:
  virtual ~FaultGuest() = default;

  // An evented retire finished, after its observer call: the guest continues.
  virtual void Resume() = 0;

  // An access failed terminally (a device read error survived retries or
  // failover). The engine cannot resolve the fault, so the access never
  // retires; the guest aborts its invocation with `status`.
  virtual void Fail(const Status& status) = 0;
};

class FaultEngine {
 public:
  // Called after every access retires — in line or from its retire event —
  // with the clock at that access's retire time (the record phase's hook).
  // In line, AccessRun commits its clock and the install bytes of the pages it
  // retired before each call, and reads the fast-forward bound again after it,
  // so the observer may read the clock and the address space and may schedule.
  using AccessObserver = std::function<void(PageIndex, FaultClass)>;

  // All pointers must outlive the engine. `file_size_pages` bounds readahead
  // windows at end-of-file for any file id the address space references.
  FaultEngine(Simulation* sim, PageCache* cache, StorageRouter* storage, AddressSpace* space,
              ReadaheadPolicy* readahead, std::function<PageCount(FileId)> file_size_pages,
              HostCostModel costs = {});

  // Routes not-present faults on `region` to `handler` (userfaultfd registration).
  void RegisterUffd(PageRangeSet region, UffdHandler* handler);

  // How AccessRun stopped.
  enum class RunStop : uint8_t {
    kDone,   // every page of the run retired in line
    kBurst,  // the compute burst before page *next cannot end in line: the
             // caller schedules its end and calls again from there with
             // `burst_ended`
    kFault,  // page *next - 1 faulted and retires from an event, which
             // resumes the guest (FaultGuest::Resume)
  };

  // Lookups AccessRun keeps between pages: the mapping run and its backing,
  // and the page-cache present run of the last file page looked up. They are
  // exact only while no event fires, so one RunLookups must not outlive the
  // event it was built in; a caller may share it between the AccessRun calls
  // of one event.
  class RunLookups {
   private:
    friend class FaultEngine;
    AddressSpace::Mapping mapping;  // empty run: not looked up yet
    FileId file = kInvalidFileId;
    PageRange present;  // file pages of `file` known present in the cache
  };

  // Run-granular guest execution: performs the accesses to pages
  // [run.first + *next, run.end()) in order and advances *next past every page
  // whose access began. Each page follows a compute burst of `burst` (already
  // scaled; zero for none), except that the burst before page *next has
  // already ended when `burst_ended` (the caller resumes from that burst's
  // event).
  //
  // Each page is classified once, after its burst. A present page retires at
  // once. A fixed-cost fault (uffd-preinstalled, anonymous, page-cache minor,
  // huge install) retires in line when `may_advance` and its resume time is
  // within Simulation::FastForwardBound(), read at entry; otherwise its retire
  // is scheduled with the class and cost already computed and AccessRun
  // returns kFault. Major, in-flight and uffd-handled faults always take the
  // evented path. Bursts likewise end in line only under `may_advance` and
  // within the bound. Pass `may_advance` only from the last action of an event
  // callback.
  //
  // The walk keeps its own clock. Every exit (each RunStop, and before an
  // evented start) commits it with TryFastForward, adds the call's retires to
  // the registry's class counters in one add per class, and writes the
  // install bytes of the pages retired in line; the caller then schedules from
  // the committed clock. The clock and install bytes are also committed before
  // each observer call and before the huge lever reads a region's bytes.
  //
  // Lookups are lazy and shared through `lookups`: a present page needs none,
  // and a fault does at most one address-space search and one page-cache
  // search, none while the page lies in the run of an earlier lookup. The
  // uffd region, when registered, is searched for each not-present page.
  RunStop AccessRun(PageRange run, uint64_t* next, Duration burst, bool burst_ended,
                    bool may_advance, RunLookups* lookups);

  // One access to `page`: AccessRun's one-page case with no burst and no
  // fast-forward. Returns true if it retired synchronously (the page was
  // present); false if a fault is in progress, which retires on the sim clock.
  bool Access(PageIndex page) {
    uint64_t next = 0;
    RunLookups lookups;
    return AccessRun(PageRange{page, 1}, &next, Duration::Zero(), /*burst_ended=*/true,
                     /*may_advance=*/false, &lookups) == RunStop::kDone;
  }

  // The issuing guest, installed once per invocation (the Vm does so around
  // each trace; one guest at a time per engine). Null detaches: evented
  // retires then just retire, and a terminal failure CHECK-fails.
  void set_guest(FaultGuest* guest) { guest_ = guest; }

  // Hook called after every access retires (see AccessObserver); null detaches.
  void set_access_observer(AccessObserver observer) { observer_ = std::move(observer); }

  // Makes a file page readable through the page cache (issuing a device read with
  // readahead on a miss) and calls `done(status, state_before)` at data-ready
  // time; a non-OK status means the covering read failed terminally and the page
  // is still absent. Used by REAP's handler pread; the major-fault path, which
  // has already looked the page up, starts past the lookup (ReadOrWaitFilePage).
  // Disk traffic is charged to fault metrics iff `charge_to_faults`. `parent`
  // links issued disk-read spans to the causing span.
  void EnsureFilePage(FileId file, PageIndex page, bool charge_to_faults,
                      std::function<void(const Status&, PageCache::PageState)> done,
                      SpanId parent = kNoSpan);

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
  // One fault's retire: the faulting page, the run it installs (the page alone,
  // or a huge region, batched uffd copy or coalesced run around it), its class
  // and its start. The extra vCPU-block wait and the neighbors' install state
  // follow from the class: only uffd-handled faults have either. 40 bytes, so
  // the retire event's closure fits EventFn's inline buffer.
  struct PendingRetire {
    PageIndex page = 0;
    PageIndex run_first = 0;
    uint32_t run_count = 1;
    FaultClass cls = FaultClass::kNoFault;
    SimTime fault_start;
    SpanId fault_span = kNoSpan;
  };
  PendingRetire Pending(PageRange run, PageIndex page, FaultClass cls, SimTime fault_start,
                        SpanId fault_span) const;

  Duration ExtraWait(FaultClass cls) const {
    return cls == FaultClass::kUffdHandled ? uffd_vcpu_block_extra_ : Duration::Zero();
  }

  // Evented retire: after `tail_cost` of post-IO kernel work plus the class's
  // extra wait, retires the fault, calls the observer and resumes the guest.
  void ScheduleRetire(const PendingRetire& retire, Duration tail_cost);

  // The retire body shared by the evented and in-line paths, at `retired`:
  // fault metrics, span end, class histogram, lever accounting and a
  // multi-page install's neighbors. The caller adds the class counter and
  // writes the page's own install byte (the in-line walk defers both).
  void RetireFault(const PendingRetire& retire, SimTime retired);

  // The evented starts of AccessRun: a uffd-registered fault delivered to the
  // handler, and a page-cache miss or in-flight page (major, in-flight wait,
  // or a coalesced run with the lever on).
  void StartUffdFault(PageIndex page, SimTime fault_start, SpanId fault_span);
  void StartFileFault(PageIndex page, const AddressSpace::Mapping& mapping,
                      PageCache::PageState cache_state, Duration split_extra,
                      SimTime fault_start, SpanId fault_span);

  // EnsureFilePage past its lookup, for a page whose cache state `state` is
  // known and not present: joins the read in flight, or issues the read with
  // readahead, and calls `done` at data-ready time.
  void ReadOrWaitFilePage(FileId file, PageIndex page, PageCache::PageState state,
                          bool charge_to_faults, PageCache::Waiter done, SpanId parent);

  // Clamps `run` to the maximal contiguous sub-run around `page` whose pages
  // are still uninstalled and share `page`'s mapping.
  PageRange TrimToUninstalled(PageRange run, PageIndex page) const;

  // Whether a huge-eligible region can actually be installed whole: fully
  // inside one mapping, fully uninstalled, and (for file backings) fully cached.
  bool HugeInstallable(PageRange region) const;

  // Terminal-failure tail of an evented fault: closes the fault span and routes
  // the error to the guest (the access never retires).
  void FailAccess(SpanId fault_span, const Status& status);

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
  // Scratch of one AccessRun call with a registry attached: metrics_.counts of
  // each class when the call began counting it (see AccessRun).
  int64_t registry_base_[static_cast<int>(FaultClass::kClassCount)] = {};
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
  FaultGuest* guest_ = nullptr;
  AccessObserver observer_;
  Duration uffd_vcpu_block_extra_ = Duration::Micros(25);
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_MEM_FAULT_ENGINE_H_
