#include "src/restore/restore_policy.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/obs/observability.h"
#include "src/storage/read_class.h"

namespace faasnap {

std::string_view RestoreModeName(RestoreMode mode) {
  switch (mode) {
    case RestoreMode::kWarm:
      return "warm";
    case RestoreMode::kColdBoot:
      return "cold-boot";
    case RestoreMode::kFirecracker:
      return "firecracker";
    case RestoreMode::kCached:
      return "cached";
    case RestoreMode::kReap:
      return "reap";
    case RestoreMode::kFaasnapConcurrentOnly:
      return "con-paging";
    case RestoreMode::kFaasnapPerRegion:
      return "per-region";
    case RestoreMode::kFaasnap:
      return "faasnap";
  }
  return "unknown";
}

Result<RestoreMode> ParseRestoreMode(std::string_view name) {
  std::string known;
  for (RestoreMode mode :
       {RestoreMode::kWarm, RestoreMode::kColdBoot, RestoreMode::kFirecracker,
        RestoreMode::kCached, RestoreMode::kReap, RestoreMode::kFaasnapConcurrentOnly,
        RestoreMode::kFaasnapPerRegion, RestoreMode::kFaasnap}) {
    if (name == RestoreModeName(mode)) {
      return mode;
    }
    known += (known.empty() ? "" : ", ") + std::string(RestoreModeName(mode));
  }
  return InvalidArgumentError("unknown restore mode: " + std::string(name) + " (use " + known +
                              ")");
}

Duration RestorePolicy::BaseSetupCost(const RestoreEnv& env) const {
  // All snapshot systems pay the VMM process restore. (Daemon dispatch is
  // accounted by the Platform's serialized request queue.)
  return env.config->setup_costs.vmm_restore;
}

namespace {

// Schedules `ready` after the cost of the mmap calls just performed.
void FinishMappingSetup(RestoreEnv* env, uint64_t mmap_calls, std::function<void()> ready) {
  const Duration cost = env->config->host_costs.mmap_call * static_cast<int64_t>(mmap_calls);
  env->sim->ScheduleAfter(cost, std::move(ready));
}

// Whole-file mapping: one mmap covering the entire guest space (vanilla
// Firecracker restore).
void MapWholeFile(RestoreEnv* env, const MemoryFile& memory) {
  env->space->Map({.guest = {0, env->snapshot->guest_pages.value()},
                   .kind = BackingKind::kFile,
                   .file = memory.id,
                   .file_start = 0});
}

// Per-region hierarchy (Figure 4): anonymous base layer, then non-zero regions of
// the memory file MAP_FIXED'd over it.
uint64_t MapPerRegionBase(RestoreEnv* env, const MemoryFile& memory) {
  env->space->Map({.guest = {0, env->snapshot->guest_pages.value()}, .kind = BackingKind::kAnonymous});
  std::vector<MappingRequest> layer;
  layer.reserve(memory.nonzero.range_count());
  for (const PageRange& r : memory.nonzero.ranges()) {
    layer.push_back({.guest = r, .kind = BackingKind::kFile, .file = memory.id,
                     .file_start = r.first});
  }
  env->space->MapLayer(std::move(layer));
  return 1 + memory.nonzero.range_count();
}

// Huge-page lever: marks every 2 MiB-aligned guest window whose loading-set
// coverage meets the density threshold as huge-eligible. Dense windows sit
// inside one (merge-widened) loading region, so the first fault can install
// the whole window; edge windows that pass the threshold but straddle mapping
// boundaries split back to 4 KiB on touch (the copy-on-touch fallback).
void MarkHugeRegionsFromLoadingSet(RestoreEnv* env) {
  const FaultPathConfig& fp = env->config->fault_path;
  if (!fp.huge_pages) {
    return;
  }
  env->space->ConfigureHugeRegions(fp.huge_region_pages);
  const uint64_t region_stride = fp.huge_region_pages.value();
  const uint64_t guest_end = env->snapshot->guest_pages.value();
  std::map<PageIndex, uint64_t> covered;  // window start -> loading-set pages in it
  for (const LoadingRegion& region : env->snapshot->loading_set.regions) {
    PageIndex p = region.guest.first;
    while (p < region.guest.end()) {
      const PageIndex window = p - p % region_stride;
      const PageIndex window_end = std::min(window + region_stride, guest_end);
      const PageIndex segment_end = std::min(region.guest.end(), window_end);
      covered[window] += segment_end - p;
      p = segment_end;
    }
  }
  for (const auto& [window, pages] : covered) {
    // Windows clamped at the guest end cannot be mapped huge.
    if (window + region_stride > guest_end) {
      continue;
    }
    if (static_cast<double>(pages) >=
        fp.huge_density_threshold * static_cast<double>(region_stride)) {
      env->space->MarkHugeEligible(window);
    }
  }
}

class WarmPolicy final : public RestorePolicy {
 public:
  RestoreMode mode() const override { return RestoreMode::kWarm; }

  Duration BaseSetupCost(const RestoreEnv&) const override {
    // The VM is alive; only request dispatch (handled by the daemon queue) happens.
    return Duration::Zero();
  }

  void SetupMemory(RestoreEnv* env, std::function<void()> ready) override {
    // Warm VMs booted from images map guest memory to host anonymous memory; the
    // record invocation's pages are already resident (section 3.3).
    env->space->Map({.guest = {0, env->snapshot->guest_pages.value()}, .kind = BackingKind::kAnonymous});
    for (const PageRange& r : env->snapshot->record_touched.ranges()) {
      env->space->SetInstallState(r, PageInstallState::kPresent);
    }
    ready();
  }
};

// No snapshot exists: boot the VM from its image and initialize the runtime.
// Guest memory is plain anonymous memory; the setup cost dominates everything
// (section 2.1: cold starts take seconds while most invocations are sub-second).
class ColdBootPolicy final : public RestorePolicy {
 public:
  RestoreMode mode() const override { return RestoreMode::kColdBoot; }

  Duration BaseSetupCost(const RestoreEnv& env) const override {
    const auto& costs = env.config->setup_costs;
    return costs.cold_boot_base +
           costs.cold_init_per_page *
               static_cast<int64_t>(env.snapshot->record_touched.page_count());
  }

  void SetupMemory(RestoreEnv* env, std::function<void()> ready) override {
    env->space->Map({.guest = {0, env->snapshot->guest_pages.value()}, .kind = BackingKind::kAnonymous});
    // Initialization leaves the runtime state resident, like a warm VM.
    for (const PageRange& r : env->snapshot->record_touched.ranges()) {
      env->space->SetInstallState(r, PageInstallState::kPresent);
    }
    ready();
  }
};

class FirecrackerPolicy final : public RestorePolicy {
 public:
  RestoreMode mode() const override { return RestoreMode::kFirecracker; }

  void SetupMemory(RestoreEnv* env, std::function<void()> ready) override {
    MapWholeFile(env, env->snapshot->memory_vanilla);
    FinishMappingSetup(env, 1, std::move(ready));
  }
};

class CachedPolicy final : public RestorePolicy {
 public:
  RestoreMode mode() const override { return RestoreMode::kCached; }

  void SetupMemory(RestoreEnv* env, std::function<void()> ready) override {
    // The entire memory file sits in the page cache before the test (the preload
    // is not charged: Cached is the in-memory reference point, section 6.2).
    env->cache->Insert(env->snapshot->memory_vanilla.id,
                       PageRange{0, env->snapshot->guest_pages.value()});
    MapWholeFile(env, env->snapshot->memory_vanilla);
    FinishMappingSetup(env, 1, std::move(ready));
  }
};

// REAP's userspace fault handler: out-of-working-set faults are served by the
// monitor pread()ing the original memory file (section 3.3).
class ReapUffdHandler final : public UffdHandler {
 public:
  void Bind(RestoreEnv* env) { env_ = env; }

  void HandleFault(PageIndex guest_page,
                   std::function<void(const Status&, PageRange)> done) override {
    const FileId mem = env_->snapshot->memory_vanilla.id;
    env_->engine->EnsureFilePage(
        mem, guest_page, /*charge_to_faults=*/true,
        [this, mem, guest_page, done = std::move(done)](const Status& status,
                                                        PageCache::PageState state) mutable {
          if (!status.ok()) {
            done(status, PageRange{guest_page, 1});
            return;
          }
          // With the batched-install lever on, the monitor's pread buffer covers
          // the contiguous cached run around the faulting page (whole-file
          // mapping: guest page == file page), capped at uffd_batch_max_pages
          // and weighted toward pages after the fault, where a streaming guest
          // goes next. Off, it holds the page alone.
          const FaultPathConfig& fault_path = env_->config->fault_path;
          const uint64_t max_batch =
              fault_path.batched_uffd_install ? fault_path.uffd_batch_max_pages.value() : 1;
          PageRange run{guest_page, 1};
          if (max_batch > 1) {
            const uint64_t before = max_batch / 4;
            const PageRange around =
                env_->cache->PresentRunAround(mem, guest_page, before, max_batch - before - 1);
            if (!around.empty()) {
              run = around;
            }
          }
          auto finish = [run, done = std::move(done)]() mutable { done(OkStatus(), run); };
          // The cached-pread charge applies only when the page was already in
          // the cache: on a miss the monitor's pread *is* the device read just
          // accounted, so charging the cached-copy cost again would double-pay.
          if (state == PageCache::PageState::kPresent) {
            env_->sim->ScheduleAfter(env_->config->host_costs.cached_pread_page,
                                     std::move(finish));
          } else {
            finish();
          }
        });
  }

 private:
  RestoreEnv* env_ = nullptr;
};

class ReapPolicy final : public RestorePolicy {
 public:
  RestoreMode mode() const override { return RestoreMode::kReap; }

  void SetupMemory(RestoreEnv* env, std::function<void()> ready) override {
    MapWholeFile(env, env->snapshot->memory_vanilla);
    handler_.Bind(env);
    PageRangeSet whole;
    whole.Add(0, env->snapshot->guest_pages.value());
    env->engine->RegisterUffd(std::move(whole), &handler_);

    // Blocking fetch: the entire working set file in one read that bypasses the
    // page cache (maximizing bandwidth but forgoing cache sharing, section 6.6),
    // then UFFDIO_COPY-install every page before the VM starts.
    const PageCount ws_pages = env->snapshot->reap_ws.size_pages();
    const SimTime fetch_start = env->sim->now();
    fetch_bytes_ = PagesToBytes(ws_pages);
    if (ws_pages.is_zero()) {
      FinishMappingSetup(env, 1, std::move(ready));
      return;
    }
    // Spans the read plus the UFFDIO_COPY install burst — the interval the VM
    // start is blocked on the working set (Table 3's fetch time).
    const SpanId fetch_span =
        env->spans != nullptr
            ? env->spans->Begin(fetch_start, ObsLane::kUffd, obsname::kReapFetch,
                                ws_pages.value(), 0,
                                env->setup_span)
            : kNoSpan;
    env->storage->ReadWithStatus(env->snapshot->reap_ws.id, 0, fetch_bytes_.value(),
                                 [this, env, ws_pages, fetch_start, fetch_span,
                                  ready = std::move(ready)](Status status) mutable {
      if (!status.ok()) {
        // The working-set fetch failed terminally: degrade to pure on-demand
        // uffd paging. No page is preinstalled; every working-set fault goes
        // through the monitor's pread of the memory file instead. The VM still
        // starts — slower, but correct.
        fetch_bytes_ = ByteCount::Zero();
        fetch_time_ = env->sim->now() - fetch_start;
        env->degrade_status = std::move(status);
        env->degrade_label = "reap-on-demand";
        if (env->spans != nullptr) {
          env->spans->End(fetch_span, env->sim->now(), 0);
        }
        FinishMappingSetup(env, 1, std::move(ready));
        return;
      }
      // Batched lever: one UFFDIO_COPY ioctl per contiguous run of the working
      // set instead of one per page — cost and install both become O(runs).
      const bool batched = env->config->fault_path.batched_uffd_install;
      Duration install;
      PageRangeSet ws_runs;
      if (batched) {
        PageRangeSet::Builder builder;
        for (PageIndex page : env->snapshot->reap_ws.guest_pages) {
          builder.AddPage(page);
        }
        ws_runs = std::move(builder).Build();
        for (const PageRange& r : ws_runs.ranges()) {
          install += env->config->host_costs.uffd_batch_install +
                     env->config->host_costs.uffd_batch_per_page *
                         static_cast<int64_t>(r.count);
        }
      } else {
        install =
            env->config->host_costs.uffd_copy_page * static_cast<int64_t>(ws_pages.value());
      }
      env->sim->ScheduleAfter(install, [this, env, batched, ws_runs = std::move(ws_runs),
                                        fetch_start, fetch_span,
                                        ready = std::move(ready)]() mutable {
        if (batched) {
          for (const PageRange& r : ws_runs.ranges()) {
            env->space->SetInstallState(r, PageInstallState::kSoftPresent);
            env->engine->NoteBatchInstall(r.count);
          }
        } else {
          for (PageIndex page : env->snapshot->reap_ws.guest_pages) {
            env->space->SetInstallState(page, PageInstallState::kSoftPresent);
          }
        }
        env->space->NoteAnonCopies(env->snapshot->reap_ws.size_pages().value());
        fetch_time_ = env->sim->now() - fetch_start;
        if (env->spans != nullptr) {
          env->spans->End(fetch_span, env->sim->now(), fetch_bytes_.value());
        }
        FinishMappingSetup(env, 1, std::move(ready));
      });
    }, fetch_span, ReadClass::kPrefetch);
  }

  Duration blocking_fetch_time() const override { return fetch_time_; }
  ByteCount blocking_fetch_bytes() const override { return fetch_bytes_; }

 private:
  ReapUffdHandler handler_;
  Duration fetch_time_;
  ByteCount fetch_bytes_;
};

// Figure 9 ablation step 1: concurrent paging only. Vanilla whole-file mapping;
// the loader prefetches recorded working-set pages in address order from the
// memory file.
class ConcurrentOnlyPolicy final : public RestorePolicy {
 public:
  RestoreMode mode() const override { return RestoreMode::kFaasnapConcurrentOnly; }

  void SetupMemory(RestoreEnv* env, std::function<void()> ready) override {
    MapWholeFile(env, env->snapshot->memory_vanilla);
    FinishMappingSetup(env, 1, std::move(ready));
  }

  std::vector<PrefetchItem> PrefetchPlan(const RestoreEnv& env) const override {
    std::vector<PrefetchItem> items;
    const PageRangeSet working_set = env.snapshot->ws_groups.AllPages();
    for (const PageRange& r : working_set.ranges()) {
      items.push_back(PrefetchItem{env.snapshot->memory_vanilla.id, r});
    }
    return items;
  }
};

// Figure 9 ablation step 2: per-region mapping + group-ordered loader, but no
// compact loading set file — the loader reads the (scattered) loading regions
// straight from the memory file.
class PerRegionPolicy final : public RestorePolicy {
 public:
  RestoreMode mode() const override { return RestoreMode::kFaasnapPerRegion; }

  void SetupMemory(RestoreEnv* env, std::function<void()> ready) override {
    const uint64_t calls = MapPerRegionBase(env, env->snapshot->memory_sanitized);
    MarkHugeRegionsFromLoadingSet(env);
    FinishMappingSetup(env, calls, std::move(ready));
  }

  std::vector<PrefetchItem> PrefetchPlan(const RestoreEnv& env) const override {
    std::vector<PrefetchItem> items;
    for (const LoadingRegion& region : env.snapshot->loading_set.regions) {
      items.push_back(PrefetchItem{env.snapshot->memory_sanitized.id, region.guest});
    }
    return items;
  }
};

// Full FaaSnap: per-region hierarchy with loading regions mapped to the compact
// loading set file, which the loader streams sequentially.
class FaasnapPolicy final : public RestorePolicy {
 public:
  RestoreMode mode() const override { return RestoreMode::kFaasnap; }

  void SetupMemory(RestoreEnv* env, std::function<void()> ready) override {
    const std::vector<LoadingRegion>& regions = env->snapshot->loading_set.regions;
    const uint64_t calls = MapPerRegionBase(env, env->snapshot->memory_sanitized) + regions.size();
    std::vector<MappingRequest> layer;
    layer.reserve(regions.size());
    for (const LoadingRegion& region : regions) {
      layer.push_back({.guest = region.guest, .kind = BackingKind::kFile,
                       .file = env->snapshot->loading_set.id, .file_start = region.file_start});
    }
    env->space->MapLayer(std::move(layer));
    MarkHugeRegionsFromLoadingSet(env);
    FinishMappingSetup(env, calls, std::move(ready));
  }

  std::vector<PrefetchItem> PrefetchPlan(const RestoreEnv& env) const override {
    if (env.snapshot->loading_set.total_pages.is_zero()) {
      return {};
    }
    return {PrefetchItem{env.snapshot->loading_set.id,
                         PageRange{0, env.snapshot->loading_set.total_pages.value()}}};
  }
};

}  // namespace

std::unique_ptr<RestorePolicy> RestorePolicy::Create(RestoreMode mode) {
  switch (mode) {
    case RestoreMode::kWarm:
      return std::make_unique<WarmPolicy>();
    case RestoreMode::kColdBoot:
      return std::make_unique<ColdBootPolicy>();
    case RestoreMode::kFirecracker:
      return std::make_unique<FirecrackerPolicy>();
    case RestoreMode::kCached:
      return std::make_unique<CachedPolicy>();
    case RestoreMode::kReap:
      return std::make_unique<ReapPolicy>();
    case RestoreMode::kFaasnapConcurrentOnly:
      return std::make_unique<ConcurrentOnlyPolicy>();
    case RestoreMode::kFaasnapPerRegion:
      return std::make_unique<PerRegionPolicy>();
    case RestoreMode::kFaasnap:
      return std::make_unique<FaasnapPolicy>();
  }
  FAASNAP_CHECK(false && "unknown restore mode");
  return nullptr;
}

}  // namespace faasnap
