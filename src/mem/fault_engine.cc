#include "src/mem/fault_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/observability.h"

namespace faasnap {

namespace {

// Deterministic per-(page, class) dispersion of the constant fault costs: real
// fault-handling times spread (lock contention, TLB shootdowns, cache misses) as
// Figure 2's distributions show. 95% of faults land in [0.6x, 1.2x] and 5% form a
// 2-4x outlier tail; the mean stays ~1.0x so aggregate calibration is unchanged.
Duration DisperseCost(bool enabled, Duration base, PageIndex page, FaultClass cls) {
  if (!enabled) {
    return base;
  }
  Rng rng(page * 0x9e3779b97f4a7c15ULL ^ (static_cast<uint64_t>(cls) << 56) ^ 0xD15Eull);
  const double u = rng.NextDouble();
  const double v = rng.NextDouble();
  const double factor = u < 0.95 ? 0.6 + 0.6 * v : 2.0 + 2.0 * v;
  return Duration::Nanos(
      static_cast<int64_t>(static_cast<double>(base.nanos()) * factor));
}

}  // namespace

FaultEngine::FaultEngine(Simulation* sim, PageCache* cache, StorageRouter* storage,
                         AddressSpace* space, ReadaheadPolicy* readahead,
                         std::function<PageCount(FileId)> file_size_pages, HostCostModel costs)
    : sim_(sim),
      cache_(cache),
      storage_(storage),
      space_(space),
      readahead_(readahead),
      file_size_pages_(std::move(file_size_pages)),
      costs_(costs) {
  FAASNAP_CHECK(sim_ != nullptr && cache_ != nullptr && storage_ != nullptr &&
                space_ != nullptr && readahead_ != nullptr);
}

void FaultEngine::RegisterUffd(PageRangeSet region, UffdHandler* handler) {
  FAASNAP_CHECK(handler != nullptr);
  uffd_region_ = std::move(region);
  uffd_handler_ = handler;
}

void FaultEngine::set_observability(SpanTracer* spans, MetricsRegistry* metrics) {
  spans_ = spans;
  if (spans_ != nullptr) {
    fault_name_ = spans_->InternName(obsname::kFault);
    uffd_resolve_name_ = spans_->InternName(obsname::kUffdResolve);
  }
  for (int i = 0; i < static_cast<int>(FaultClass::kClassCount); ++i) {
    class_counters_[i] = nullptr;
    class_histograms_[i] = nullptr;
    if (metrics == nullptr) {
      continue;
    }
    const FaultClass cls = static_cast<FaultClass>(i);
    // The huge-install class only exists when the huge lever is on; registering
    // it unconditionally would perturb disabled runs' metric snapshots.
    if (cls == FaultClass::kHugeInstall && !fault_path_.huge_pages) {
      continue;
    }
    const MetricLabels labels = {{"class", std::string(FaultClassName(cls))}};
    class_counters_[i] = metrics->GetCounter("faults.by_class", labels);
    // No handling-time histogram for no-faults: they retire synchronously with
    // zero latency, and zero samples would pollute the percentile summaries.
    if (cls != FaultClass::kNoFault) {
      class_histograms_[i] = metrics->GetHistogram("fault.handling_ns", labels);
    }
  }
  batch_installs_ctr_ = nullptr;
  batch_pages_ctr_ = nullptr;
  batch_size_hist_ = nullptr;
  huge_installs_ctr_ = nullptr;
  huge_pages_ctr_ = nullptr;
  huge_splits_ctr_ = nullptr;
  coalesced_ctr_ = nullptr;
  if (metrics != nullptr && fault_path_.batched_uffd_install) {
    batch_installs_ctr_ = metrics->GetCounter("faults.batch_installs");
    batch_pages_ctr_ = metrics->GetCounter("faults.batch_pages");
    // The batch-size series abuses the log2 histogram as a page-count digest:
    // the "duration" recorded is the page count, so the lower edge is 1 page.
    batch_size_hist_ =
        metrics->GetHistogram("faults.batch_size", {}, Duration::Nanos(1), /*num_buckets=*/11);
  }
  if (metrics != nullptr && fault_path_.huge_pages) {
    huge_installs_ctr_ = metrics->GetCounter("faults.huge_installs");
    huge_pages_ctr_ = metrics->GetCounter("faults.huge_pages");
    huge_splits_ctr_ = metrics->GetCounter("faults.huge_splits");
  }
  if (metrics != nullptr && fault_path_.fault_coalescing) {
    coalesced_ctr_ = metrics->GetCounter("faults.coalesced");
  }
}

void FaultEngine::NoteBatchInstall(uint64_t pages) {
  metrics_.batch_installs++;
  metrics_.batch_installed_pages += PageCount::FromPages(pages);
  if (batch_installs_ctr_ != nullptr) {
    batch_installs_ctr_->Add(1);
    batch_pages_ctr_->Add(static_cast<int64_t>(pages));
    batch_size_hist_->Record(Duration::Nanos(static_cast<int64_t>(pages)));
  }
}

bool FaultEngine::FinishFault(PageIndex page, FaultClass cls, SimTime fault_start,
                              Duration tail_cost, Duration extra_wait, SpanId fault_span,
                              std::function<void(FaultClass)> done, FaultClass* retired) {
  return FinishFaultRun(PageRange{page, 1}, page, cls, PageInstallState::kPresent, fault_start,
                        tail_cost, extra_wait, fault_span, std::move(done), retired);
}

bool FaultEngine::FinishFaultRun(PageRange run, PageIndex page, FaultClass cls,
                                 PageInstallState neighbor_state, SimTime fault_start,
                                 Duration tail_cost, Duration extra_wait, SpanId fault_span,
                                 std::function<void(FaultClass)> done, FaultClass* retired) {
  // Called at IO-completion (or immediately for non-blocking faults); the guest
  // resumes after `tail_cost` of post-IO kernel work plus any scheduler-induced
  // stall (`extra_wait`, e.g. kvm_vcpu_block context switches on uffd faults).
  const SimTime resume = sim_->now() + tail_cost + extra_wait;
  if (retired != nullptr && sim_->TryFastForward(resume)) {
    RetireFault(run, page, cls, neighbor_state, fault_start, extra_wait, fault_span);
    *retired = cls;
    return true;
  }
  sim_->Schedule(resume, [this, run, page, cls, neighbor_state, fault_start, extra_wait,
                          fault_span, done = std::move(done)] {
    RetireFault(run, page, cls, neighbor_state, fault_start, extra_wait, fault_span);
    done(cls);
  });
  return false;
}

void FaultEngine::RetireFault(PageRange run, PageIndex page, FaultClass cls,
                              PageInstallState neighbor_state, SimTime fault_start,
                              Duration extra_wait, SpanId fault_span) {
  const Duration handling = (sim_->now() - fault_start) - extra_wait;
  metrics_.RecordFault(cls, handling, extra_wait);
  if (spans_ != nullptr) {
    spans_->End(fault_span, sim_->now(), static_cast<uint64_t>(cls));
  }
  if (class_counters_[static_cast<int>(cls)] != nullptr) {
    class_counters_[static_cast<int>(cls)]->Add(1);
    if (class_histograms_[static_cast<int>(cls)] != nullptr) {
      class_histograms_[static_cast<int>(cls)]->Record(handling);
    }
  }
  if (cls == FaultClass::kUffdHandled) {
    // The handler resolved the fault with UFFDIO_COPY: anonymous page copies
    // (the whole run when the batched lever produced one).
    space_->NoteAnonCopies(run.count);
    if (fault_path_.batched_uffd_install) {
      NoteBatchInstall(run.count);
    }
  }
  if (cls == FaultClass::kHugeInstall) {
    metrics_.huge_installs++;
    metrics_.huge_installed_pages += PageCount::FromPages(run.count);
    if (huge_installs_ctr_ != nullptr) {
      huge_installs_ctr_->Add(1);
      huge_pages_ctr_->Add(static_cast<int64_t>(run.count));
    }
  }
  if (cls == FaultClass::kInFlightWait && run.count > 1) {
    metrics_.coalesced_pages += PageCount::FromPages(run.count - 1);
    if (coalesced_ctr_ != nullptr) {
      coalesced_ctr_->Add(static_cast<int64_t>(run.count - 1));
    }
  }
  if (run.count > 1) {
    space_->SetInstallState(run, neighbor_state);
  }
  space_->SetInstallState(page, PageInstallState::kPresent);
}

PageRange FaultEngine::TrimToUninstalled(PageRange run, PageIndex page) const {
  if (run.empty() || !run.Contains(page)) {
    return PageRange{page, 1};
  }
  const PageRange mapping = space_->MappingRun(page);
  const PageIndex lo = std::max(run.first, mapping.first);
  const PageIndex hi = std::min(run.end(), mapping.end());
  PageIndex start = page;
  while (start > lo && space_->install_state(start - 1) == PageInstallState::kNotPresent) {
    --start;
  }
  PageIndex end = page + 1;
  while (end < hi && space_->install_state(end) == PageInstallState::kNotPresent) {
    ++end;
  }
  return PageRange{start, end - start};
}

bool FaultEngine::HugeInstallable(PageRange region) const {
  // Regions clamped at the guest end are partial and stay 4 KiB.
  if (region.count < space_->huge_region_pages().value()) {
    return false;
  }
  const PageRange mapping = space_->MappingRun(region.first);
  if (mapping.first > region.first || mapping.end() < region.end()) {
    return false;
  }
  if (!space_->AllInState(region, PageInstallState::kNotPresent)) {
    return false;
  }
  const PageBacking backing = space_->Resolve(region.first);
  if (backing.kind == BackingKind::kAnonymous) {
    return true;
  }
  if (backing.kind != BackingKind::kFile) {
    return false;
  }
  // A file-backed huge mapping needs the whole 2 MiB of backing data resident;
  // anything less falls back to 4 KiB copy-on-touch.
  return cache_->AllPresent(backing.file, PageRange{backing.file_page, region.count});
}

void FaultEngine::FailAccess(PageIndex page, SpanId fault_span, const Status& status) {
  (void)page;  // the span (keyed by fault_span) already identifies the page
  if (spans_ != nullptr) {
    spans_->End(fault_span, sim_->now(), static_cast<uint64_t>(status.code()));
  }
  FAASNAP_CHECK(failure_sink_ != nullptr &&
                "terminal device read failure with no failure sink installed");
  failure_sink_(status);
}

bool FaultEngine::AccessSlow(PageIndex page, std::function<void(FaultClass)> done,
                             FaultClass* retired) {
  const PageInstallState state = space_->install_state(page);
  const SimTime fault_start = sim_->now();
  const SpanId fault_span =
      spans_ != nullptr ? spans_->BeginId(fault_start, ObsLane::kVcpu, fault_name_, page,
                                          0, invocation_span_)
                        : kNoSpan;

  if (state == PageInstallState::kSoftPresent) {
    // Host PTE installed by UFFDIO_COPY; one cheap guest-dimension fault remains.
    return FinishFault(page, FaultClass::kUffdPreinstalled, fault_start,
                       DisperseCost(costs_.cost_dispersion, costs_.uffd_preinstalled_fault,
                                    page, FaultClass::kUffdPreinstalled),
                       Duration::Zero(), fault_span, std::move(done), retired);
  }

  // Not present. userfaultfd interception takes priority over the kernel path.
  if (uffd_handler_ != nullptr && uffd_region_.Contains(page)) {
    const SpanId resolve_span =
        spans_ != nullptr ? spans_->BeginId(fault_start, ObsLane::kUffd, uffd_resolve_name_,
                                            page, 0, fault_span)
                          : kNoSpan;
    if (fault_path_.batched_uffd_install) {
      // Batched lever: the handler reports the run it produced; one multi-page
      // UFFDIO_COPY installs it. The round trip is paid once; neighbors cost
      // only the marginal copy, and the guest first-touches them later as
      // cheap preinstalled faults.
      uffd_handler_->HandleFaultBatched(
          page, [this, page, fault_start, fault_span, resolve_span, done = std::move(done)](
                    const Status& status, PageRange run) mutable {
            if (spans_ != nullptr) {
              spans_->End(resolve_span, sim_->now());
            }
            if (!status.ok()) {
              FailAccess(page, fault_span, status);
              return;
            }
            run = TrimToUninstalled(run, page);
            const Duration cost =
                costs_.uffd_round_trip +
                costs_.uffd_batch_per_page * static_cast<int64_t>(run.count - 1);
            FinishFaultRun(run, page, FaultClass::kUffdHandled,
                           PageInstallState::kSoftPresent, fault_start, cost,
                           uffd_vcpu_block_extra_, fault_span, std::move(done));
          });
      return false;
    }
    uffd_handler_->HandleFault(page, [this, page, fault_start, fault_span, resolve_span,
                                      done = std::move(done)](const Status& status) mutable {
      if (spans_ != nullptr) {
        spans_->End(resolve_span, sim_->now());
      }
      if (!status.ok()) {
        FailAccess(page, fault_span, status);
        return;
      }
      // Handler resolved the contents; account the uffd round trip plus the
      // vCPU-block penalty (guest cannot resume immediately; section 6.4).
      FinishFault(page, FaultClass::kUffdHandled, fault_start, costs_.uffd_round_trip,
                  uffd_vcpu_block_extra_, fault_span, std::move(done));
    });
    return false;
  }

  // Huge-page lever: a fault on an eligible 2 MiB region installs the whole
  // region in one kernel entry when it can actually be mapped huge; otherwise
  // the region splits back to 4 KiB (copy-on-touch), this fault pays the split
  // once, and classification proceeds normally below.
  Duration split_extra = Duration::Zero();
  if (fault_path_.huge_pages &&
      space_->huge_region_state(page) == HugeRegionState::kEligible) {
    const PageRange region = space_->HugeRegionOf(page);
    if (HugeInstallable(region)) {
      space_->SetHugeRegionState(page, HugeRegionState::kInstalled);
      return FinishFaultRun(region, page, FaultClass::kHugeInstall, PageInstallState::kPresent,
                            fault_start,
                            DisperseCost(costs_.cost_dispersion, costs_.huge_fault, page,
                                         FaultClass::kHugeInstall),
                            Duration::Zero(), fault_span, std::move(done), retired);
    }
    space_->SetHugeRegionState(page, HugeRegionState::kSplit);
    metrics_.huge_splits++;
    if (huge_splits_ctr_ != nullptr) {
      huge_splits_ctr_->Add(1);
    }
    split_extra = costs_.huge_split;
  }

  const PageBacking backing = space_->Resolve(page);
  switch (backing.kind) {
    case BackingKind::kAnonymous:
      return FinishFault(page, FaultClass::kAnonymous, fault_start,
                         DisperseCost(costs_.cost_dispersion, costs_.anonymous_fault, page,
                                      FaultClass::kAnonymous) +
                             split_extra,
                         Duration::Zero(), fault_span, std::move(done), retired);
    case BackingKind::kFile: {
      const PageCache::PageState cache_state = cache_->GetState(backing.file, backing.file_page);
      if (cache_state == PageCache::PageState::kPresent) {
        const bool sequential = page == last_minor_page_ + 1;
        last_minor_page_ = page;
        return FinishFault(page, FaultClass::kMinor, fault_start,
                           DisperseCost(costs_.cost_dispersion,
                                        sequential ? costs_.minor_fault_sequential
                                                   : costs_.minor_fault,
                                        page, FaultClass::kMinor) +
                               split_extra,
                           Duration::Zero(), fault_span, std::move(done), retired);
      }
      // Coalescing lever: the page is covered by someone else's in-flight IO.
      // Instead of retiring just this page (and paying a wait per neighbor as
      // each is touched), join the IO and retire the whole contiguous run it
      // covers in one fault.
      if (cache_state == PageCache::PageState::kInFlight && fault_path_.fault_coalescing) {
        const PageRange span = cache_->InFlightSpanCovering(backing.file, backing.file_page);
        const PageRange mapping = space_->MappingRun(page);
        // Translate the file-page span to guest pages, clamped to the mapping
        // run (outside it the file offsets no longer correspond linearly).
        const uint64_t before =
            std::min(backing.file_page - span.first, page - mapping.first);
        const uint64_t after = std::min(span.end() - backing.file_page - 1,
                                        mapping.end() - page - 1);
        const PageRange candidate{page - before, before + after + 1};
        const Duration tail = costs_.inflight_wait_overhead + split_extra;
        EnsureFilePage(backing.file, backing.file_page, /*charge_to_faults=*/true,
                       [this, page, candidate, tail, fault_start, fault_span,
                        done = std::move(done)](const Status& status,
                                                PageCache::PageState) mutable {
                         if (!status.ok()) {
                           FailAccess(page, fault_span, status);
                           return;
                         }
                         const PageRange run = TrimToUninstalled(candidate, page);
                         FinishFaultRun(run, page, FaultClass::kInFlightWait,
                                        PageInstallState::kPresent, fault_start, tail,
                                        Duration::Zero(), fault_span, std::move(done));
                       },
                       fault_span);
        return false;
      }
      // Either already in flight (wait on the existing IO) or absent (issue a read
      // with readahead, then wait). EnsureFilePage handles both.
      const FaultClass cls = cache_state == PageCache::PageState::kInFlight
                                 ? FaultClass::kInFlightWait
                                 : FaultClass::kMajor;
      const Duration tail = (cls == FaultClass::kMajor ? costs_.major_fault_overhead
                                                       : costs_.inflight_wait_overhead) +
                            split_extra;
      EnsureFilePage(backing.file, backing.file_page, /*charge_to_faults=*/true,
                     [this, page, cls, tail, fault_start, fault_span,
                      done = std::move(done)](const Status& status, PageCache::PageState) mutable {
                       if (!status.ok()) {
                         FailAccess(page, fault_span, status);
                         return;
                       }
                       FinishFault(page, cls, fault_start, tail, Duration::Zero(),
                                   fault_span, std::move(done));
                     },
                     fault_span);
      return false;
    }
    case BackingKind::kUnmapped:
      break;
  }
  FAASNAP_CHECK(false && "guest access to unmapped page");
  return true;
}

void FaultEngine::EnsureFilePage(FileId file, PageIndex page, bool charge_to_faults,
                                 std::function<void(const Status&, PageCache::PageState)> done,
                                 SpanId parent) {
  const PageCache::PageState initial = cache_->GetState(file, page);
  switch (initial) {
    case PageCache::PageState::kPresent:
      done(OkStatus(), initial);
      return;
    case PageCache::PageState::kInFlight:
      cache_->WaitFor(file, page, [initial, done = std::move(done)](const Status& status) {
        done(status, initial);
      });
      return;
    case PageCache::PageState::kAbsent:
      break;
  }
  // Miss: read the faulting page plus the readahead window, skipping anything the
  // cache already has or has in flight.
  const PageCount file_pages = file_size_pages_(file);
  const PageRange window = readahead_->WindowFor(file, page, file_pages);
  const PageRangeSet missing = cache_->AbsentIn(file, window);
  FAASNAP_CHECK(missing.Contains(page));
  for (const PageRange& r : missing.ranges()) {
    const PageCache::ReadHandle handle = cache_->BeginRead(file, r);
    if (charge_to_faults) {
      metrics_.fault_disk_requests++;
      metrics_.fault_disk_bytes += PagesToBytes(PageCount::FromPages(r.count));
    }
    // The range holding the faulting page is guest-blocking (demand class);
    // the rest of the readahead window is speculative, so it queues as
    // prefetch and cannot delay other vCPUs' demand faults at the device.
    const ReadClass cls = r.first <= page && page < r.end() ? ReadClass::kDemand
                                                            : ReadClass::kPrefetch;
    // A failed read must still retire the cache entry, or waiters (this fault
    // and anyone who piled onto the in-flight range) would sleep forever.
    storage_->ReadWithStatus(file, PagesToBytes(r.first), PagesToBytes(r.count),
                             [this, handle](Status status) {
                               if (status.ok()) {
                                 cache_->CompleteRead(handle);
                               } else {
                                 cache_->FailRead(handle, status);
                               }
                             },
                             parent, cls);
  }
  cache_->WaitFor(file, page, [initial, done = std::move(done)](const Status& status) {
    done(status, initial);
  });
}

}  // namespace faasnap
