#include "src/runtime/platform.h"

#include <algorithm>
#include <utility>

#include "src/common/units.h"
#include "src/core/loading_set_builder.h"
#include "src/core/prefetch_loader.h"
#include "src/core/recorder.h"
#include "src/mem/address_space.h"
#include "src/mem/fault_engine.h"
#include "src/mem/readahead.h"

namespace faasnap {

namespace {

// Pressure-ladder degradation of the per-invocation prefetch machinery: shrink
// every readahead window and cap the loader's pipeline depth. Null overrides
// (the normal case) return the config untouched, keeping the legacy path
// bit-identical.
ReadaheadConfig ApplyPressure(ReadaheadConfig config, const Platform::PressureOverrides* p) {
  if (p == nullptr || p->readahead_scale >= 1.0) {
    return config;
  }
  const auto scale = [&](PageCount pages) {
    const auto scaled =
        static_cast<uint64_t>(static_cast<double>(pages.value()) * p->readahead_scale);
    return PageCount::FromPages(scaled < 1 ? uint64_t{1} : scaled);
  };
  config.initial_window_pages = scale(config.initial_window_pages);
  config.max_window_pages = scale(config.max_window_pages);
  config.random_window_pages = scale(config.random_window_pages);
  return config;
}

PrefetchConfig ApplyPressure(PrefetchConfig config, const Platform::PressureOverrides* p) {
  if (p == nullptr || p->loader_depth_cap <= 0) {
    return config;
  }
  config.pipeline_depth = std::min(config.pipeline_depth, p->loader_depth_cap);
  config.min_pipeline_depth = std::min(config.min_pipeline_depth, config.pipeline_depth);
  return config;
}

}  // namespace

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)),
      local_disk_(&sim_, config_.disk, config_.seed),
      cpu_(config_.host_cores) {
  FAASNAP_CHECK_OK(config_.layout.Validate());
  storage_.AddDevice(&local_disk_);
  if (config_.remote_disk.has_value()) {
    remote_disk_ = std::make_unique<BlockDevice>(&sim_, *config_.remote_disk,
                                                 config_.seed ^ 0x5eed);
    storage_.AddDevice(remote_disk_.get());
  } else {
    const SnapshotPlacement& placement = config_.placement;
    FAASNAP_CHECK(placement.memory_files == StorageTier::kLocal &&
                  placement.loading_set == StorageTier::kLocal &&
                  placement.reap_ws == StorageTier::kLocal &&
                  "remote placement requires PlatformConfig::remote_disk");
  }
  if (config_.chaos.enabled) {
    chaos_ = std::make_unique<FaultInjector>(&sim_, config_.chaos);
    local_disk_.set_fault_injector(chaos_.get(), 0);
    if (remote_disk_ != nullptr) {
      remote_disk_->set_fault_injector(chaos_.get(), 1);
    }
    store_.set_fault_injector(chaos_.get());
    storage_.ConfigureFaultHandling(&sim_, chaos_.get(), config_.storage_faults);
  }
}

Platform::Platform(const Platform& source) : Platform(source.config_) {
  FAASNAP_CHECK(source.spans_ == nullptr && source.metrics_ == nullptr &&
                source.forensics_ == nullptr && source.timeline_ == nullptr &&
                source.pressure_ == nullptr);
  FAASNAP_CHECK(source.cpu_.runnable() == 0);
  sim_.CopyClockFrom(source.sim_);
  daemon_busy_until_ = source.daemon_busy_until_;
  cache_.CopyFrom(source.cache_);
  local_disk_.CopyStateFrom(source.local_disk_);
  if (remote_disk_ != nullptr) {
    remote_disk_->CopyStateFrom(*source.remote_disk_);
  }
  storage_.CopyStateFrom(source.storage_);
  store_.CopyEntriesFrom(source.store_);
  if (chaos_ != nullptr) {
    chaos_->CopyStateFrom(*source.chaos_);
  }
}

BlockDeviceStats Platform::CombinedDiskStats() const {
  BlockDeviceStats stats = local_disk_.stats();
  if (remote_disk_ != nullptr) {
    stats.read_requests += remote_disk_->stats().read_requests;
    stats.bytes_read += remote_disk_->stats().bytes_read;
  }
  return stats;
}

void Platform::PlaceFile(FileId file, StorageTier tier) {
  if (tier == StorageTier::kRemote) {
    storage_.AssignFile(file, 1);
  }
}

void Platform::DropCaches() { cache_.DropAll(); }

void Platform::SetObservability(SpanTracer* spans, MetricsRegistry* metrics) {
  spans_ = spans;
  metrics_ = metrics;
  // Platform-owned components rewire immediately; per-invocation components
  // (engine, loader, readahead) pick the pointers up in InvokeAsync/Record.
  storage_.set_observability(spans, metrics);
  cache_.set_observability(metrics);
  if (chaos_ != nullptr) {
    chaos_->set_observability(metrics);
    for (int i = 0; i < kInvocationOutcomeCount; ++i) {
      const std::string_view name = InvocationOutcomeName(static_cast<InvocationOutcome>(i));
      outcome_counters_[i] =
          metrics != nullptr
              ? metrics->GetCounter("invocations.outcome", {{"outcome", std::string(name)}})
              : nullptr;
    }
  }
}

SpanId Platform::BeginInvoke(SimTime request_time, SimTime dispatched) {
  if (forensics_ != nullptr) {
    forensics_->OnInvokeBegin();
  }
  if (spans_ == nullptr) {
    return kNoSpan;
  }
  const SpanId invoke_span = spans_->Begin(request_time, ObsLane::kDaemon, obsname::kInvoke);
  spans_->Complete(request_time, dispatched, ObsLane::kDaemon, obsname::kDispatch, 0, 0,
                   invoke_span);
  return invoke_span;
}

void Platform::EndInvoke(SpanId invoke_span, SimTime request_time,
                         const InvocationReport& report) {
  Counter* counter = outcome_counters_[static_cast<int>(report.outcome)];
  if (counter != nullptr) {
    counter->Add();
  }
  if (spans_ != nullptr) {
    spans_->End(invoke_span, sim_.now(), static_cast<uint64_t>(report.outcome));
  }
  if (forensics_ != nullptr) {
    forensics_->OnInvokeEnd(invoke_span, report.outcome, report.function,
                            sim_.now() - request_time);
  }
  if (timeline_ != nullptr) {
    timeline_->Advance(sim_.now());
  }
}

Status Platform::PlanRestoreMode(const FunctionSnapshot& snapshot, RestoreMode requested,
                                 RestoreMode* effective, Status* demotion_reason) const {
  *effective = requested;
  // Demotion rung: every snapshot mode can fall back to vanilla on-demand paging
  // as long as the (unsanitized) memory file itself is intact.
  auto demote_or_fail = [&](Status why) -> Status {
    if (!store_.Validate(snapshot.memory_vanilla.id).ok()) {
      return why;  // no intact rung below: the invocation fails
    }
    *effective = RestoreMode::kFirecracker;
    *demotion_reason = std::move(why);
    return OkStatus();
  };
  switch (requested) {
    case RestoreMode::kWarm:
    case RestoreMode::kColdBoot:
      return OkStatus();  // no snapshot artifacts involved
    case RestoreMode::kFirecracker:
    case RestoreMode::kCached:
    case RestoreMode::kFaasnapConcurrentOnly:
      // The memory file is the primary artifact; with it gone there is nothing
      // to restore from.
      return store_.Validate(snapshot.memory_vanilla.id);
    case RestoreMode::kReap: {
      RETURN_IF_ERROR(store_.Validate(snapshot.memory_vanilla.id));
      Status ws = store_.Validate(snapshot.reap_ws.id);
      if (!ws.ok()) {
        return demote_or_fail(std::move(ws));
      }
      return OkStatus();
    }
    case RestoreMode::kFaasnapPerRegion:
    case RestoreMode::kFaasnap: {
      Status artifact = store_.Validate(snapshot.memory_sanitized.id);
      if (artifact.ok() && requested == RestoreMode::kFaasnap) {
        artifact = store_.Validate(snapshot.loading_set.id);
      }
      if (!artifact.ok()) {
        return demote_or_fail(std::move(artifact));
      }
      return OkStatus();
    }
  }
  return OkStatus();
}

// Per-invocation state bundle; kept alive by shared_ptr captures until both the
// function and the loader have finished.
struct Platform::InvocationContext {
  InvocationContext(Platform* platform, const FunctionSnapshot& snap, RestoreMode mode_in)
      : space(snap.guest_pages),
        readahead(ApplyPressure(platform->config_.readahead, platform->pressure_)),
        engine(&platform->sim_, &platform->cache_, &platform->storage_, &space, &readahead,
               platform->store_.SizeFn(), platform->config_.host_costs),
        vm(&platform->sim_, &engine, &platform->cpu_, platform->config_.guest.vcpus),
        policy(RestorePolicy::Create(mode_in)),
        loader(&platform->sim_, &platform->cache_, &platform->storage_,
               ApplyPressure(platform->config_.loader, platform->pressure_)) {
    // Levers before observability: lever counters register iff enabled. The
    // record phase (its own engine in Platform::Record) keeps them off so
    // snapshot artifacts never depend on lever settings.
    engine.set_fault_path(platform->config_.fault_path);
    env.sim = &platform->sim_;
    env.cache = &platform->cache_;
    env.storage = &platform->storage_;
    env.space = &space;
    env.engine = &engine;
    env.snapshot = &snap;
    env.config = &platform->config_;
  }

  AddressSpace space;
  ReadaheadPolicy readahead;
  FaultEngine engine;
  Vm vm;
  std::unique_ptr<RestorePolicy> policy;
  PrefetchLoader loader;
  RestoreEnv env;

  InvocationTrace trace;
  SimTime request_time;
  BlockDeviceStats disk_before;
  Duration setup_time;
  // Failure-aware restore: the mode the caller asked for (policy->mode() is the
  // effective one) and, when they differ, the validation error that demoted it.
  RestoreMode requested_mode;
  Status demotion_reason;
};

InvocationReport Platform::ReportShed(const FunctionSnapshot& snapshot,
                                      RestoreMode requested_mode, SimTime arrival_time,
                                      InvocationOutcome outcome, Status reason) {
  FAASNAP_CHECK(outcome == InvocationOutcome::kShedQueueFull ||
                outcome == InvocationOutcome::kShedDeadline);
  // The dispatch child covers the full invoke window, so critical-path
  // analysis attributes a shed arrival entirely to dispatch/queue time.
  const SpanId invoke_span = BeginInvoke(arrival_time, sim_.now());
  InvocationReport report;
  report.function = snapshot.function;
  report.mode = std::string(RestoreModeName(requested_mode));
  report.outcome = outcome;
  report.status = std::move(reason);
  // The whole shed window is queueing: report it as setup so total_time() is
  // the arrival-to-drop latency the client observed.
  report.setup_time = sim_.now() - arrival_time;
  if (spans_ != nullptr) {
    spans_->Instant(sim_.now(), ObsLane::kDaemon, obsname::kShed,
                    static_cast<uint64_t>(outcome), 0, invoke_span);
  }
  EndInvoke(invoke_span, arrival_time, report);
  return report;
}

void Platform::InvokeAsync(const FunctionSnapshot& snapshot, RestoreMode mode,
                           InvocationTrace trace, std::function<void(InvocationReport)> done) {
  // Validate the snapshot files the requested mode depends on before building
  // any restore state (the daemon checks manifests before handing the files to
  // the VMM). A bad primary artifact demotes to on-demand paging when possible;
  // otherwise the invocation fails with the validation error.
  RestoreMode effective = mode;
  Status demotion_reason;
  const Status plan_status = PlanRestoreMode(snapshot, mode, &effective, &demotion_reason);

  const SimTime request_time = sim_.now();
  // Request dispatch serializes in the daemon: network namespace and tap device
  // creation take the kernel's rtnl mutex, so 64 simultaneous requests queue.
  // This is what drags every system down at high burst parallelism (Figure 10).
  const SimTime dispatched =
      Max(sim_.now(), daemon_busy_until_) + config_.setup_costs.daemon_dispatch;
  daemon_busy_until_ = dispatched;
  // Span skeleton for this invocation (see obs/observability.h for the tree).
  // Recording is passive, so opening spans ahead of their wall time is fine.
  const SpanId invoke_span = BeginInvoke(request_time, dispatched);

  if (!plan_status.ok()) {
    // Unrecoverable: the artifacts the mode needs are corrupt and there is no
    // intact fallback. Fail with a typed status instead of restoring from a bad
    // file. The request still pays daemon dispatch (validation runs in the
    // daemon), keeping serialization for overlapping invocations.
    const FunctionSnapshot* snap = &snapshot;
    sim_.Schedule(dispatched, [this, snap, mode, request_time, invoke_span, plan_status,
                               done = std::move(done)]() mutable {
      InvocationReport report;
      report.function = snap->function;
      report.mode = std::string(RestoreModeName(mode));
      report.outcome = InvocationOutcome::kFailed;
      report.status = plan_status;
      report.setup_time = sim_.now() - request_time;
      EndInvoke(invoke_span, request_time, report);
      done(std::move(report));
    });
    return;
  }

  auto ctx = std::make_shared<InvocationContext>(this, snapshot, effective);
  ctx->requested_mode = mode;
  ctx->demotion_reason = std::move(demotion_reason);
  ctx->engine.set_observability(spans_, metrics_);
  ctx->loader.set_observability(spans_, metrics_);
  if (chaos_ != nullptr) {
    ctx->loader.set_fault_injector(chaos_.get());
  }
  ctx->readahead.set_observability(metrics_);
  ctx->env.spans = spans_;
  ctx->trace = std::move(trace);
  ctx->request_time = request_time;
  ctx->disk_before = CombinedDiskStats();

  SpanId setup_span = kNoSpan;
  if (spans_ != nullptr) {
    setup_span = spans_->Begin(dispatched, ObsLane::kDaemon, obsname::kSetup, 0, 0, invoke_span);
    ctx->loader.set_parent_span(invoke_span);
    ctx->env.setup_span = setup_span;
  }

  const FunctionSnapshot* snap = &snapshot;
  sim_.Schedule(dispatched, [this, ctx] {
    // Concurrent paging: the daemon's loader starts the moment the request is
    // dispatched, overlapping VMM restore and guest execution (section 4.2).
    std::vector<PrefetchItem> plan = ctx->policy->PrefetchPlan(ctx->env);
    if (!plan.empty()) {
      ctx->loader.Start(std::move(plan), [ctx] {});
    }
  });
  sim_.Schedule(dispatched + ctx->policy->BaseSetupCost(ctx->env),
                [this, ctx, snap, invoke_span, setup_span, done = std::move(done)]() mutable {
    ctx->policy->SetupMemory(&ctx->env, [this, ctx, snap, invoke_span, setup_span,
                                         done = std::move(done)]() mutable {
      ctx->setup_time = sim_.now() - ctx->request_time;
      SpanId invocation_span = kNoSpan;
      if (spans_ != nullptr) {
        spans_->End(setup_span, sim_.now(), ctx->space.mmap_call_count());
        spans_->Instant(sim_.now(), ObsLane::kDaemon, obsname::kSetupDone,
                        ctx->space.mmap_call_count(), 0, setup_span);
        invocation_span =
            spans_->Begin(sim_.now(), ObsLane::kVcpu, obsname::kInvocation, 0, 0, invoke_span);
        ctx->engine.set_invocation_span(invocation_span);
      }
      ctx->vm.RunInvocation(ctx->trace, [this, ctx, snap, invoke_span, invocation_span,
                                         done = std::move(done)](
                                            Vm::InvocationResult result) mutable {
        InvocationReport report;
        report.function = snap->function;
        report.mode = std::string(RestoreModeName(ctx->requested_mode));
        report.setup_time = ctx->setup_time;
        report.invocation_time = result.elapsed;
        report.faults = ctx->engine.metrics();
        if (!ctx->policy->blocking_fetch_bytes().is_zero()) {
          report.fetch_time = ctx->policy->blocking_fetch_time();
          report.fetch_bytes = ctx->policy->blocking_fetch_bytes();
        } else if (ctx->loader.started()) {
          report.fetch_time = ctx->loader.finished()
                                  ? ctx->loader.fetch_time()
                                  : sim_.now() - ctx->request_time;
          report.fetch_bytes = ctx->loader.fetched_bytes();
        }
        const FaultMetrics& m = report.faults;
        report.guest_pagefault_bytes = PagesToBytes(
            PageCount::FromPages(static_cast<uint64_t>(m.count(FaultClass::kMajor) +
                                                       m.count(FaultClass::kInFlightWait) +
                                                       m.count(FaultClass::kUffdHandled))));
        report.mmap_calls = ctx->space.mmap_call_count();
        report.disk = CombinedDiskStats() - ctx->disk_before;
        report.anon_resident_pages =
            ctx->space.resident_anonymous_pages() + ctx->space.anon_copied_pages();
        report.page_cache_pages = PageCount::FromPages(cache_.present_page_count());
        // Outcome ladder, most severe first: a terminal error aborts the VM
        // (kFailed); otherwise any fallback taken along the way — demoted
        // restore mode, a policy's in-setup degradation, or a partial prefetch
        // — marks the invocation kDegraded with the first error observed.
        report.prefetch_failed_pages = ctx->loader.failed_pages();
        if (!result.status.ok()) {
          report.outcome = InvocationOutcome::kFailed;
          report.status = std::move(result.status);
        } else if (ctx->policy->mode() != ctx->requested_mode) {
          report.outcome = InvocationOutcome::kDegraded;
          report.degraded_mode = std::string(RestoreModeName(ctx->policy->mode()));
          report.status = ctx->demotion_reason;
        } else if (!ctx->env.degrade_status.ok()) {
          report.outcome = InvocationOutcome::kDegraded;
          report.degraded_mode = ctx->env.degrade_label;
          report.status = ctx->env.degrade_status;
        } else if (ctx->loader.started() && !ctx->loader.status().ok()) {
          report.outcome = InvocationOutcome::kDegraded;
          report.degraded_mode = "partial-prefetch";
          report.status = ctx->loader.status();
        }
        if (spans_ != nullptr) {
          if (report.outcome == InvocationOutcome::kDegraded) {
            spans_->Instant(sim_.now(), ObsLane::kDaemon, obsname::kDegraded, 0, 0, invoke_span);
          }
          spans_->End(invocation_span, sim_.now(),
                      static_cast<uint64_t>(result.elapsed.nanos()));
        }
        EndInvoke(invoke_span, ctx->request_time, report);
        done(std::move(report));
      });
    });
  });
}

InvocationReport Platform::Invoke(const FunctionSnapshot& snapshot, RestoreMode mode,
                                  const TraceGenerator& generator, const WorkloadInput& input) {
  InvocationReport out;
  bool finished = false;
  InvokeAsync(snapshot, mode, generator.Generate(input), [&](InvocationReport report) {
    out = std::move(report);
    finished = true;
  });
  sim_.Run();
  FAASNAP_CHECK(finished);
  return out;
}

FunctionSnapshot Platform::Record(const TraceGenerator& generator, const WorkloadInput& input) {
  // The fault model targets the restore path: by default the record phase runs
  // with read/stall injection disarmed so snapshot production itself cannot
  // abort. (File corruption is decided per file id and is unaffected — freshly
  // recorded artifacts may still be born bad.)
  const bool spare_record = chaos_ != nullptr && config_.chaos.spare_record_phase;
  if (spare_record) {
    chaos_->set_armed(false);
  }
  const GuestLayout& layout = config_.layout;
  FunctionSnapshot snap;
  snap.function = generator.spec().name;
  snap.guest_pages = layout.total_pages;

  // The record phase restores the function's "clean" snapshot with vanilla
  // Firecracker paging (Figure 5) and runs the invocation with both recorders
  // attached; the guest's execution is identical for every downstream policy.
  MemoryFile clean;
  clean.total_pages = layout.total_pages;
  clean.nonzero = generator.CleanSnapshotNonZero();
  clean.id = store_.Register(snap.function + ".clean.mem", clean.total_pages);
  PlaceFile(clean.id, config_.placement.memory_files);

  AddressSpace space(layout.total_pages);
  ReadaheadPolicy readahead(config_.readahead);
  FaultEngine engine(&sim_, &cache_, &storage_, &space, &readahead, store_.SizeFn(),
                     config_.host_costs);
  const SpanId record_span =
      spans_ != nullptr
          ? spans_->Begin(sim_.now(), ObsLane::kDaemon, obsname::kRecord,
                          layout.total_pages.value())
          : kNoSpan;
  engine.set_observability(spans_, metrics_);
  engine.set_invocation_span(record_span);
  readahead.set_observability(metrics_);
  space.Map({.guest = {0, layout.total_pages.value()},
             .kind = BackingKind::kFile,
             .file = clean.id,
             .file_start = 0});

  Vm vm(&sim_, &engine, &cpu_, config_.guest.vcpus);
  FaasnapRecorder faasnap_recorder(&cache_, clean.id, config_.ws_group_size);
  ReapRecorder reap_recorder;
  engine.set_access_observer([&](PageIndex page, FaultClass cls) {
    faasnap_recorder.OnAccess(page, cls);
    reap_recorder.OnAccess(page, cls);
  });

  InvocationTrace trace = generator.Generate(input);
  uint64_t pages_executed = 0;
  bool finished = false;
  vm.RunInvocation(trace, [&](Vm::InvocationResult result) {
    pages_executed = result.access_count;
    finished = true;
  });
  sim_.Run();
  FAASNAP_CHECK(finished);
  if (spans_ != nullptr) {
    spans_->End(record_span, sim_.now());
  }

  // New memory files. Vanilla: dirty pages keep their contents (freed transients
  // remain non-zero garbage). Sanitized: the modified guest kernel zeroed freed
  // pages, so they fall out of the non-zero set (section 4.5).
  snap.memory_vanilla.total_pages = layout.total_pages;
  snap.memory_vanilla.nonzero = clean.nonzero.Union(trace.WrittenPages(pages_executed));
  snap.memory_vanilla.id = store_.Register(snap.function + ".mem", layout.total_pages);
  PlaceFile(snap.memory_vanilla.id, config_.placement.memory_files);
  snap.memory_sanitized.total_pages = layout.total_pages;
  snap.memory_sanitized.nonzero = snap.memory_vanilla.nonzero.Subtract(trace.freed_at_end);
  snap.memory_sanitized.id = store_.Register(snap.function + ".smem", layout.total_pages);
  PlaceFile(snap.memory_sanitized.id, config_.placement.memory_files);

  snap.reap_ws = std::move(reap_recorder).Finish();
  snap.reap_ws.id = store_.Register(snap.function + ".reapws", snap.reap_ws.size_pages());
  PlaceFile(snap.reap_ws.id, config_.placement.reap_ws);

  snap.ws_groups = faasnap_recorder.Finish();
  snap.loading_set =
      BuildLoadingSet(snap.ws_groups, snap.memory_sanitized, config_.loading_set);
  snap.loading_set.id = store_.Register(snap.function + ".lset", snap.loading_set.total_pages);
  PlaceFile(snap.loading_set.id, config_.placement.loading_set);

  snap.record_touched = trace.TouchedPages();

  // Snapshot security (section 7.4): wipe registered secret pages in both memory
  // files. Zeroed secrets land in the released/unused sets, so every restore maps
  // them to fresh anonymous memory and restored VMs cannot share PRNG state.
  if (!config_.wipe_secret_pages.is_zero()) {
    // The guest registers its PRNG state, which lives with the runtime: model it
    // as the first secret_pages of the runtime span.
    snap.wipe_regions.Add(layout.stable.first, config_.wipe_secret_pages.value());
    for (const PageRange& r : snap.wipe_regions.ranges()) {
      snap.memory_vanilla.nonzero.Remove(r.first, r.count);
      snap.memory_sanitized.nonzero.Remove(r.first, r.count);
    }
    const FileId loading_set_id = snap.loading_set.id;
    snap.loading_set =
        BuildLoadingSet(snap.ws_groups, snap.memory_sanitized, config_.loading_set);
    snap.loading_set.id = loading_set_id;
    store_.Resize(loading_set_id, snap.loading_set.total_pages);
  }

  // The methodology drops all page caches before each test (section 6.1).
  DropCaches();
  if (spare_record) {
    chaos_->set_armed(true);
  }
  if (forensics_ != nullptr) {
    // The record phase buffers spans like any other: nothing retains them, so
    // recycle as soon as the phase's spans are all closed.
    forensics_->MaybeRecycle();
  }
  if (timeline_ != nullptr) {
    timeline_->Advance(sim_.now());
  }
  return snap;
}

}  // namespace faasnap
