#include "src/mem/fault_engine.h"

#include <algorithm>
#include <bit>
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

FaultEngine::PendingRetire FaultEngine::Pending(PageRange run, PageIndex page, FaultClass cls,
                                                SimTime fault_start, SpanId fault_span) const {
  FAASNAP_CHECK(run.Contains(page) && run.count <= UINT32_MAX);
  return PendingRetire{page, run.first, static_cast<uint32_t>(run.count), cls, fault_start,
                       fault_span};
}

// The retire body of both paths, at `retired`: fault metrics, span end, class
// histogram, lever accounting and the install state of a multi-page install.
// The faulting page's own install byte and the registry's class counter are the
// caller's: an evented retire writes both at once, AccessRun's in-line walk at
// its next sync and exit. Inline, so the walk makes no call per retire.
inline void FaultEngine::RetireFault(const PendingRetire& retire, SimTime retired) {
  const FaultClass cls = retire.cls;
  const Duration extra_wait = ExtraWait(cls);
  const Duration handling = (retired - retire.fault_start) - extra_wait;
  metrics_.RecordFault(cls, handling, extra_wait);
  if (spans_ != nullptr) {
    spans_->End(retire.fault_span, retired, static_cast<uint64_t>(cls));
  }
  if (class_histograms_[static_cast<int>(cls)] != nullptr) {
    class_histograms_[static_cast<int>(cls)]->Record(handling);
  }
  const uint64_t count = retire.run_count;
  if (cls == FaultClass::kUffdHandled) {
    // The handler resolved the fault with UFFDIO_COPY: anonymous page copies
    // (the whole run when the batched lever produced one).
    space_->NoteAnonCopies(count);
    if (fault_path_.batched_uffd_install) {
      NoteBatchInstall(count);
    }
  }
  if (cls == FaultClass::kHugeInstall) {
    metrics_.huge_installs++;
    metrics_.huge_installed_pages += PageCount::FromPages(count);
    if (huge_installs_ctr_ != nullptr) {
      huge_installs_ctr_->Add(1);
      huge_pages_ctr_->Add(static_cast<int64_t>(count));
    }
  }
  if (cls == FaultClass::kInFlightWait && count > 1) {
    metrics_.coalesced_pages += PageCount::FromPages(count - 1);
    if (coalesced_ctr_ != nullptr) {
      coalesced_ctr_->Add(static_cast<int64_t>(count - 1));
    }
  }
  if (count > 1) {
    // Batched uffd copies leave the neighbors host-installed but untouched by
    // the guest; huge installs and coalesced runs install them outright.
    space_->SetInstallState(PageRange{retire.run_first, count},
                            cls == FaultClass::kUffdHandled ? PageInstallState::kSoftPresent
                                                            : PageInstallState::kPresent);
  }
}

void FaultEngine::ScheduleRetire(const PendingRetire& retire, Duration tail_cost) {
  // Called at IO completion, or right after classification for a fixed-cost
  // fault that could not retire in line; the guest resumes after `tail_cost`
  // of post-IO kernel work plus any scheduler-induced stall (the class's extra
  // wait: kvm_vcpu_block context switches on uffd faults).
  auto fire = [this, retire] {
    RetireFault(retire, sim_->now());
    Counter* const counter = class_counters_[static_cast<int>(retire.cls)];
    if (counter != nullptr) {
      counter->Add(1);
    }
    space_->SetInstallState(retire.page, PageInstallState::kPresent);
    if (observer_) {
      observer_(retire.page, retire.cls);
    }
    if (guest_ != nullptr) {
      guest_->Resume();
    }
  };
  static_assert(EventFn::kFitsInline<decltype(fire)>, "the retire event must not allocate");
  sim_->Schedule(sim_->now() + tail_cost + ExtraWait(retire.cls), std::move(fire));
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
  const AddressSpace::Mapping mapping = space_->MappingOf(region.first);
  if (mapping.run.first > region.first || mapping.run.end() < region.end()) {
    return false;
  }
  if (!space_->AllInState(region, PageInstallState::kNotPresent)) {
    return false;
  }
  const PageBacking backing = mapping.At(region.first);
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

void FaultEngine::FailAccess(SpanId fault_span, const Status& status) {
  if (spans_ != nullptr) {
    spans_->End(fault_span, sim_->now(), static_cast<uint64_t>(status.code()));
  }
  FAASNAP_CHECK(guest_ != nullptr && "terminal device read failure with no guest to abort");
  guest_->Fail(status);
}

FaultEngine::RunStop FaultEngine::AccessRun(PageRange run, uint64_t* next, Duration burst,
                                            bool burst_ended, bool may_advance,
                                            RunLookups* lookups) {
  const bool has_burst = burst > Duration::Zero();
  // The walk's clock. A burst ends, and a fixed-cost fault retires, in line
  // when it ends at or before `bound`: the latest time the fast-forward rule
  // accepts, or before `t` without may_advance. Only an observer may schedule
  // during the walk, so the bound is read at entry and after each observer call.
  SimTime t = sim_->now();
  const auto read_bound = [&] {
    return may_advance ? sim_->FastForwardBound() : t + Duration::Nanos(-1);
  };
  SimTime bound = read_bound();
  // Pages retired in line whose install byte is not written yet. The pages
  // between them are no-faults of this walk, already present.
  PageIndex unwritten_first = 0;
  PageIndex unwritten_end = 0;
  // Commits the clock and the install bytes, before anything that reads them.
  const auto sync = [&] {
    if (t != sim_->now()) {
      FAASNAP_CHECK(sim_->TryFastForward(t));
    }
    if (unwritten_first != unwritten_end) {
      space_->SetInstallState(PageRange{unwritten_first, unwritten_end - unwritten_first},
                              PageInstallState::kPresent);
      unwritten_first = unwritten_end;
    }
  };
  // No-faults are counted (including the registry counter) but never enter
  // the handling-time histograms: a zero-duration sample per touched page
  // would drown the real fault latencies in the percentile summaries. The
  // registry's class counters take this call's retires in one add per class at
  // each exit, as deltas of metrics_.counts from registry_base_: based at
  // entry for no-faults and at a fault class's first in-line retire. The
  // classes not yet based are the set bits of `unbased`.
  const bool counting = class_counters_[0] != nullptr;
  uint32_t unbased = 0;
  if (counting) {
    registry_base_[0] = metrics_.count(FaultClass::kNoFault);
    unbased = ~uint32_t{1};
  }
  // Every exit: the sync, then the registry counters, before anything that
  // could end the invocation.
  const auto commit = [&] {
    sync();
    if (!counting) {
      return;
    }
    for (uint32_t based = ~unbased; based != 0; based &= based - 1) {
      const int c = std::countr_zero(based);
      const int64_t retired = metrics_.counts[c] - registry_base_[c];
      if (retired > 0 && class_counters_[c] != nullptr) {
        class_counters_[c]->Add(retired);
      }
    }
  };
  for (bool ended = burst_ended; *next < run.count; ended = false) {
    // The burst ends before the page is classified: a burst that cannot end in
    // line returns here, and the page is classified once, after its event.
    if (!ended && has_burst) {
      if (bound < t + burst) {
        commit();
        return RunStop::kBurst;
      }
      t += burst;
    }
    const PageIndex page = run.first + (*next)++;
    const PageInstallState state = space_->install_state(page);
    if (state == PageInstallState::kPresent) {
      metrics_.RecordFault(FaultClass::kNoFault, Duration::Zero());
      if (observer_) {
        sync();
        observer_(page, FaultClass::kNoFault);
        bound = read_bound();
      }
      continue;
    }

    const SimTime fault_start = t;
    const SpanId fault_span =
        spans_ != nullptr ? spans_->BeginId(fault_start, ObsLane::kVcpu, fault_name_, page,
                                            0, invocation_span_)
                          : kNoSpan;
    PageRange installs{page, 1};
    FaultClass cls = FaultClass::kNoFault;
    Duration base_cost;  // before dispersion
    Duration split_extra;
    if (state == PageInstallState::kSoftPresent) {
      // Host PTE installed by UFFDIO_COPY; one cheap guest-dimension fault remains.
      cls = FaultClass::kUffdPreinstalled;
      base_cost = costs_.uffd_preinstalled_fault;
    } else {
      // Not present. userfaultfd interception takes priority over the kernel path.
      if (uffd_handler_ != nullptr && uffd_region_.Contains(page)) {
        commit();
        StartUffdFault(page, fault_start, fault_span);
        return RunStop::kFault;
      }
      // Huge-page lever: a fault on an eligible 2 MiB region installs the whole
      // region in one kernel entry when it can actually be mapped huge;
      // otherwise the region splits back to 4 KiB (copy-on-touch), this fault
      // pays the split once, and classification proceeds normally below.
      bool huge = false;
      if (fault_path_.huge_pages &&
          space_->huge_region_state(page) == HugeRegionState::kEligible) {
        const PageRange region = space_->HugeRegionOf(page);
        sync();  // HugeInstallable reads the region's install bytes
        if (HugeInstallable(region)) {
          space_->SetHugeRegionState(page, HugeRegionState::kInstalled);
          huge = true;
          installs = region;
          cls = FaultClass::kHugeInstall;
          base_cost = costs_.huge_fault;
        } else {
          space_->SetHugeRegionState(page, HugeRegionState::kSplit);
          metrics_.huge_splits++;
          if (huge_splits_ctr_ != nullptr) {
            huge_splits_ctr_->Add(1);
          }
          split_extra = costs_.huge_split;
        }
      }
      if (!huge) {
        if (!lookups->mapping.run.Contains(page)) {
          lookups->mapping = space_->MappingOf(page);
        }
        const PageBacking backing = lookups->mapping.At(page);
        if (backing.kind == BackingKind::kAnonymous) {
          cls = FaultClass::kAnonymous;
          base_cost = costs_.anonymous_fault;
        } else {
          FAASNAP_CHECK(backing.kind == BackingKind::kFile && "guest access to unmapped page");
          if (backing.file != lookups->file || !lookups->present.Contains(backing.file_page)) {
            const PageCache::PageLookup cached = cache_->Lookup(backing.file, backing.file_page);
            if (cached.state != PageCache::PageState::kPresent) {
              commit();
              StartFileFault(page, lookups->mapping, cached.state, split_extra, fault_start,
                             fault_span);
              return RunStop::kFault;
            }
            lookups->file = backing.file;
            lookups->present = cached.present;
          }
          const bool sequential = page == last_minor_page_ + 1;
          last_minor_page_ = page;
          cls = FaultClass::kMinor;
          base_cost = sequential ? costs_.minor_fault_sequential : costs_.minor_fault;
        }
      }
    }

    // A fixed-cost fault: it retires in line when its resume time is within
    // the bound, else from an event at the same time, with the class and cost
    // computed here. Only a huge install's range needs Pending's check.
    const Duration cost = DisperseCost(costs_.cost_dispersion, base_cost, page, cls) + split_extra;
    const PendingRetire retire =
        installs.count == 1 ? PendingRetire{page, page, 1, cls, fault_start, fault_span}
                            : Pending(installs, page, cls, fault_start, fault_span);
    if (bound < t + cost) {
      commit();
      ScheduleRetire(retire, cost);
      return RunStop::kFault;
    }
    t += cost;
    const uint32_t class_bit = uint32_t{1} << static_cast<int>(cls);
    if ((unbased & class_bit) != 0) {
      unbased &= ~class_bit;
      registry_base_[static_cast<int>(cls)] = metrics_.count(cls);
    }
    RetireFault(retire, t);
    if (unwritten_first == unwritten_end) {
      unwritten_first = page;
    }
    unwritten_end = page + 1;
    if (observer_) {
      sync();
      observer_(page, cls);
      bound = read_bound();
    }
  }
  commit();
  return RunStop::kDone;
}

void FaultEngine::StartUffdFault(PageIndex page, SimTime fault_start, SpanId fault_span) {
  const SpanId resolve_span =
      spans_ != nullptr ? spans_->BeginId(fault_start, ObsLane::kUffd, uffd_resolve_name_, page,
                                          0, fault_span)
                        : kNoSpan;
  uffd_handler_->HandleFault(page, [this, page, fault_start, fault_span, resolve_span](
                                       const Status& status, PageRange run) {
    if (spans_ != nullptr) {
      spans_->End(resolve_span, sim_->now());
    }
    if (!status.ok()) {
      FailAccess(fault_span, status);
      return;
    }
    // Batched lever: one multi-page UFFDIO_COPY installs the run the handler
    // produced. The round trip is paid once; neighbors cost only the marginal
    // copy, and the guest first-touches them later as cheap preinstalled
    // faults. Off, the page alone. The vCPU-block penalty follows from the
    // class (the guest cannot resume immediately; section 6.4).
    run = fault_path_.batched_uffd_install ? TrimToUninstalled(run, page) : PageRange{page, 1};
    const Duration cost =
        costs_.uffd_round_trip + costs_.uffd_batch_per_page * static_cast<int64_t>(run.count - 1);
    ScheduleRetire(Pending(run, page, FaultClass::kUffdHandled, fault_start, fault_span), cost);
  });
}

void FaultEngine::StartFileFault(PageIndex page, const AddressSpace::Mapping& mapping,
                                 PageCache::PageState cache_state, Duration split_extra,
                                 SimTime fault_start, SpanId fault_span) {
  const PageBacking backing = mapping.At(page);
  // Coalescing lever: the page is covered by someone else's in-flight IO.
  // Instead of retiring just this page (and paying a wait per neighbor as
  // each is touched), join the IO and retire the whole contiguous run it
  // covers in one fault.
  if (cache_state == PageCache::PageState::kInFlight && fault_path_.fault_coalescing) {
    const PageRange span = cache_->InFlightSpanCovering(backing.file, backing.file_page);
    // Translate the file-page span to guest pages, clamped to the mapping
    // run (outside it the file offsets no longer correspond linearly).
    const uint64_t before = std::min(backing.file_page - span.first, page - mapping.run.first);
    const uint64_t after =
        std::min(span.end() - backing.file_page - 1, mapping.run.end() - page - 1);
    const PageRange candidate{page - before, before + after + 1};
    const Duration tail = costs_.inflight_wait_overhead + split_extra;
    ReadOrWaitFilePage(backing.file, backing.file_page, cache_state, /*charge_to_faults=*/true,
                       [this, page, candidate, tail, fault_start, fault_span](
                           const Status& status) {
                         if (!status.ok()) {
                           FailAccess(fault_span, status);
                           return;
                         }
                         const PageRange run = TrimToUninstalled(candidate, page);
                         ScheduleRetire(Pending(run, page, FaultClass::kInFlightWait,
                                                fault_start, fault_span),
                                        tail);
                       },
                       fault_span);
    return;
  }
  // Either already in flight (wait on the existing IO) or absent (issue a read
  // with readahead, then wait). ReadOrWaitFilePage handles both.
  const FaultClass cls = cache_state == PageCache::PageState::kInFlight
                             ? FaultClass::kInFlightWait
                             : FaultClass::kMajor;
  const Duration tail = (cls == FaultClass::kMajor ? costs_.major_fault_overhead
                                                   : costs_.inflight_wait_overhead) +
                        split_extra;
  ReadOrWaitFilePage(backing.file, backing.file_page, cache_state, /*charge_to_faults=*/true,
                     [this, page, cls, tail, fault_start, fault_span](const Status& status) {
                       if (!status.ok()) {
                         FailAccess(fault_span, status);
                         return;
                       }
                       ScheduleRetire(
                           Pending(PageRange{page, 1}, page, cls, fault_start, fault_span), tail);
                     },
                     fault_span);
}

void FaultEngine::EnsureFilePage(FileId file, PageIndex page, bool charge_to_faults,
                                 std::function<void(const Status&, PageCache::PageState)> done,
                                 SpanId parent) {
  const PageCache::PageState state = cache_->GetState(file, page);
  if (state == PageCache::PageState::kPresent) {
    done(OkStatus(), state);
    return;
  }
  ReadOrWaitFilePage(file, page, state, charge_to_faults,
                     [state, done = std::move(done)](const Status& status) {
                       done(status, state);
                     },
                     parent);
}

void FaultEngine::ReadOrWaitFilePage(FileId file, PageIndex page, PageCache::PageState state,
                                     bool charge_to_faults, PageCache::Waiter done,
                                     SpanId parent) {
  if (state == PageCache::PageState::kAbsent) {
    // Miss: read the faulting page plus the readahead window, skipping anything
    // the cache already has or has in flight.
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
  }
  cache_->WaitFor(file, page, std::move(done));
}

}  // namespace faasnap
