// google-benchmark micro-benchmarks of the building blocks on FaaSnap's hot
// paths: page-range set algebra, address-space mapping/resolution, loading set
// construction, manifest serialization, the fault engine's cache-hit path,
// trace generation, and run-granular guest execution.

#include <benchmark/benchmark.h>

#include <functional>
#include <utility>
#include <vector>

#include "src/common/page_range.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/units.h"
#include "src/mem/page_cache.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_tracer.h"
#include "src/sim/simulation.h"
#include "src/core/loading_set_builder.h"
#include "src/mem/fault_engine.h"
#include "src/snapshot/serialization.h"
#include "src/storage/device_profiles.h"
#include "src/vm/vm.h"
#include "src/workloads/trace_generator.h"

namespace faasnap {
namespace {

PageRangeSet ScatteredSet(uint64_t ranges, uint64_t seed) {
  Rng rng(seed);
  PageRangeSet set;
  for (uint64_t i = 0; i < ranges; ++i) {
    set.Add(rng.NextBelow(1u << 20), 1 + rng.NextBelow(16));
  }
  return set;
}

void BM_PageRangeSetAddScattered(benchmark::State& state) {
  const auto count = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    PageRangeSet set = ScatteredSet(count, 42);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_PageRangeSetAddScattered)->Arg(256)->Arg(1024)->Arg(4096);

void BM_PageRangeSetUnion(benchmark::State& state) {
  PageRangeSet a = ScatteredSet(static_cast<uint64_t>(state.range(0)), 1);
  PageRangeSet b = ScatteredSet(static_cast<uint64_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Union(b));
  }
}
BENCHMARK(BM_PageRangeSetUnion)->Arg(256)->Arg(4096);

void BM_PageRangeSetSubtract(benchmark::State& state) {
  PageRangeSet a = ScatteredSet(static_cast<uint64_t>(state.range(0)), 1);
  PageRangeSet b = ScatteredSet(static_cast<uint64_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Subtract(b));
  }
}
BENCHMARK(BM_PageRangeSetSubtract)->Arg(256)->Arg(4096);

void BM_PageRangeSetIntersect(benchmark::State& state) {
  PageRangeSet a = ScatteredSet(static_cast<uint64_t>(state.range(0)), 1);
  PageRangeSet b = ScatteredSet(static_cast<uint64_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersect(b));
  }
}
BENCHMARK(BM_PageRangeSetIntersect)->Arg(256)->Arg(4096);

void BM_PageRangeSetMergeGapTolerance(benchmark::State& state) {
  PageRangeSet set = ScatteredSet(4096, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.MergeWithGapTolerance(PageCount::FromPages(32)));
  }
}
BENCHMARK(BM_PageRangeSetMergeGapTolerance);

void BM_AddressSpaceHierarchicalMap(benchmark::State& state) {
  const auto regions = static_cast<uint64_t>(state.range(0));
  PageRangeSet nonzero = ScatteredSet(regions, 7);
  std::vector<MappingRequest> layer;
  for (const PageRange& r : nonzero.ranges()) {
    layer.push_back({.guest = r, .kind = BackingKind::kFile, .file = 1, .file_start = r.first});
  }
  for (auto _ : state) {
    AddressSpace space(PageCount::FromPages(1u << 20));
    space.Map({.guest = {0, 1u << 20}, .kind = BackingKind::kAnonymous});
    space.MapLayer(layer);
    benchmark::DoNotOptimize(space.mmap_call_count());
  }
}
BENCHMARK(BM_AddressSpaceHierarchicalMap)->Arg(128)->Arg(1024);

void BM_AddressSpaceResolve(benchmark::State& state) {
  AddressSpace space(PageCount::FromPages(1u << 20));
  space.Map({.guest = {0, 1u << 20}, .kind = BackingKind::kAnonymous});
  PageRangeSet nonzero = ScatteredSet(1024, 7);
  std::vector<MappingRequest> layer;
  for (const PageRange& r : nonzero.ranges()) {
    layer.push_back({.guest = r, .kind = BackingKind::kFile, .file = 1, .file_start = r.first});
  }
  space.MapLayer(std::move(layer));
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.Resolve(rng.NextBelow(1u << 20)));
  }
}
BENCHMARK(BM_AddressSpaceResolve);

void BM_BuildLoadingSet(benchmark::State& state) {
  WorkingSetGroups groups;
  for (int g = 0; g < 8; ++g) {
    groups.groups.push_back(ScatteredSet(512, static_cast<uint64_t>(g) + 10));
  }
  MemoryFile memory;
  memory.total_pages = PageCount::FromPages(1u << 20);
  memory.nonzero = ScatteredSet(2048, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildLoadingSet(groups, memory));
  }
}
BENCHMARK(BM_BuildLoadingSet);

void BM_LoadingSetManifestRoundTrip(benchmark::State& state) {
  LoadingSetFile file;
  Rng rng(4);
  PageIndex offset = 0;
  for (int i = 0; i < 1024; ++i) {
    const uint64_t count = 1 + rng.NextBelow(64);
    file.regions.push_back(
        LoadingRegion{{rng.NextBelow(1u << 20), count}, static_cast<uint32_t>(i / 128), offset});
    offset += count;
  }
  file.total_pages = PageCount::FromPages(offset);
  for (auto _ : state) {
    auto blob = EncodeLoadingSetManifest(file);
    auto decoded = DecodeLoadingSetManifest(blob);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_LoadingSetManifestRoundTrip);

void BM_SimulationScheduleFire(benchmark::State& state) {
  // Schedule/fire throughput: a deterministic mix of near-future events, each
  // firing callback scheduling a follow-up until the budget drains — the shape of
  // the fault/IO event churn in a restore sweep. range(0) is the number of
  // concurrently outstanding events (queue depth: dozens for one VM, thousands
  // for a burst of restoring VMs with deep IO pipelines); range(1) is the total
  // number of events fired per iteration.
  const auto depth = static_cast<uint64_t>(state.range(0));
  const auto batch = static_cast<uint64_t>(state.range(1));
  struct Chain {
    Simulation sim;
    Rng rng{17};
    uint64_t remaining = 0;
    void Tick() {
      if (remaining == 0) {
        return;
      }
      --remaining;
      // Single-pointer capture: stays in the callback's inline buffer, and the
      // delay is drawn with a mask rather than a modulo, so the measurement is
      // the engine's schedule/fire cost, not allocator or divider traffic.
      sim.ScheduleAfter(Duration::Nanos(static_cast<int64_t>(1 + (rng.NextU64() & 511))),
                        [this] { Tick(); });
    }
  };
  for (auto _ : state) {
    Chain chain;
    chain.remaining = batch;
    for (uint64_t i = 0; i < depth; ++i) {
      chain.sim.Schedule(
          SimTime() + Duration::Nanos(static_cast<int64_t>(chain.rng.NextU64() & 1023)),
          [&chain] { chain.Tick(); });
    }
    benchmark::DoNotOptimize(chain.sim.Run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_SimulationScheduleFire)
    ->Args({64, 1024})
    ->Args({64, 16384})
    ->Args({1024, 16384})
    ->Args({4096, 65536});

void BM_SimulationScheduleBurst(benchmark::State& state) {
  // Pure schedule-then-drain throughput: a restore storm issues a burst of IO
  // completions up front, then the engine fires them in timestamp order. The
  // callback is empty, so this isolates the engine's per-event cost.
  const auto batch = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    Rng rng(29);
    for (uint64_t i = 0; i < batch; ++i) {
      sim.Schedule(SimTime() + Duration::Nanos(static_cast<int64_t>(rng.NextU64() & 0xFFFFF)),
                   [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_SimulationScheduleBurst)->Arg(1024)->Arg(16384);

void BM_SimulationScheduleCancel(benchmark::State& state) {
  // Timeout-heavy pattern: most scheduled events are cancelled before firing
  // (keep-alive timers, readahead deadlines).
  const auto batch = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    Rng rng(23);
    std::vector<EventId> ids;
    ids.reserve(batch);
    for (uint64_t i = 0; i < batch; ++i) {
      ids.push_back(sim.Schedule(
          SimTime() + Duration::Nanos(static_cast<int64_t>(rng.NextBelow(1 << 20))), []() {}));
    }
    for (uint64_t i = 0; i < batch; ++i) {
      if (i % 4 != 0) {
        sim.Cancel(ids[i]);
      }
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_SimulationScheduleCancel)->Arg(16384);

void BM_PageCacheGetStateInFlight(benchmark::State& state) {
  // GetState while many reads are outstanding (the burst experiments: dozens of
  // loaders with deep pipelines share the cache).
  Simulation sim;
  PageCache cache;
  const auto reads = static_cast<uint64_t>(state.range(0));
  std::vector<PageCache::ReadHandle> handles;
  for (uint64_t i = 0; i < reads; ++i) {
    handles.push_back(cache.BeginRead(1, PageRange{i * 128, 64}));
  }
  Rng rng(31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.GetState(1, rng.NextBelow(reads * 128)));
  }
  for (PageCache::ReadHandle h : handles) {
    cache.CompleteRead(h);
  }
}
BENCHMARK(BM_PageCacheGetStateInFlight)->Arg(64)->Arg(1024);

void BM_PageCacheAbsentIn(benchmark::State& state) {
  // The loader's per-chunk question against a well-populated cache.
  PageCache cache;
  Rng rng(37);
  for (uint64_t i = 0; i < static_cast<uint64_t>(state.range(0)); ++i) {
    cache.Insert(1, PageRange{rng.NextBelow(1u << 20), 1 + rng.NextBelow(16)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.AbsentIn(1, PageRange{rng.NextBelow(1u << 20), 64}));
  }
}
BENCHMARK(BM_PageCacheAbsentIn)->Arg(256)->Arg(4096);

// The no-fault path as Vm::Step drives it: AccessRun over one long run of
// installed pages of a cached file mapping, with one RunLookups and no burst.
// Each benchmark iteration is one page, so the reported time is per page.
void RunPresentPages(benchmark::State& state, bool traced) {
  constexpr uint64_t kRunPages = 4096;
  Simulation sim;
  PageCache cache;
  BlockDevice disk(&sim, TestDiskProfile());
  StorageRouter router;
  router.AddDevice(&disk);
  AddressSpace space(PageCount::FromPages(kRunPages));
  ReadaheadPolicy readahead;
  FaultEngine engine(&sim, &cache, &router, &space, &readahead,
                     [](FileId) { return PageCount::FromPages(kRunPages); });
  SpanTracer spans(1u << 10);
  MetricsRegistry metrics;
  if (traced) {
    engine.set_observability(&spans, &metrics);
  }
  space.Map({.guest = {0, kRunPages}, .kind = BackingKind::kFile, .file = 1, .file_start = 0});
  cache.Insert(1, PageRange{0, kRunPages});
  space.SetInstallState(PageRange{0, kRunPages}, PageInstallState::kPresent);
  while (state.KeepRunningBatch(kRunPages)) {
    FaultEngine::RunLookups lookups;
    uint64_t next = 0;
    benchmark::DoNotOptimize(engine.AccessRun(PageRange{0, kRunPages}, &next, Duration::Zero(),
                                              /*burst_ended=*/true, /*may_advance=*/false,
                                              &lookups));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// Tracing detached: the guard for the tracing-off budget on the no-fault path.
void BM_FaultEnginePageCacheHit(benchmark::State& state) { RunPresentPages(state, false); }
BENCHMARK(BM_FaultEnginePageCacheHit);

// Same path with a span tracer and metrics registry attached: the delta
// between the two is the enabled-tracing cost per present page (no span, one
// class-counter bump).
void BM_FaultEnginePageCacheHitTraced(benchmark::State& state) { RunPresentPages(state, true); }
BENCHMARK(BM_FaultEnginePageCacheHitTraced);

// Trace generation for one catalog function's input B: hello-world is all
// scattered pages, read-list mostly one sequential run, pagerank a sparse
// window scored page by page.
void BM_TraceGenerate(benchmark::State& state, const char* function) {
  Result<FunctionSpec> spec = FindFunction(function);
  FAASNAP_CHECK(spec.ok());
  const TraceGenerator generator(*spec, GuestLayout::Default2GiB());
  const WorkloadInput input = MakeInputB(*spec);
  const uint64_t accesses = generator.Generate(input).access_count();
  for (auto _ : state) {
    InvocationTrace trace = generator.Generate(input);
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * accesses));
}
BENCHMARK_CAPTURE(BM_TraceGenerate, hello_world, "hello-world");
BENCHMARK_CAPTURE(BM_TraceGenerate, read_list, "read-list");
BENCHMARK_CAPTURE(BM_TraceGenerate, pagerank, "pagerank");

// One guest running `trace` over a fully cached file mapping: bursts, minor
// faults and their retires, end to end through Vm and FaultEngine. Each
// iteration builds a fresh host, so every page faults.
void RunVmOverCachedFile(benchmark::State& state, const InvocationTrace& trace) {
  constexpr uint64_t kGuestPages = 8192;
  for (auto _ : state) {
    Simulation sim;
    PageCache cache;
    BlockDevice disk(&sim, TestDiskProfile());
    StorageRouter router;
    router.AddDevice(&disk);
    AddressSpace space(PageCount::FromPages(kGuestPages));
    ReadaheadPolicy readahead;
    CpuModel cpu(96);
    FaultEngine engine(&sim, &cache, &router, &space, &readahead,
                       [](FileId) { return PageCount::FromPages(kGuestPages); });
    space.Map({.guest = {0, kGuestPages}, .kind = BackingKind::kFile, .file = 1,
               .file_start = 0});
    cache.Insert(1, PageRange{0, kGuestPages});
    Vm vm(&sim, &engine, &cpu, /*vcpus=*/2);
    bool finished = false;
    vm.RunInvocation(trace, [&](Vm::InvocationResult) { finished = true; });
    sim.Run();
    FAASNAP_CHECK(finished);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * trace.access_count()));
}

void BM_VmCachedSequentialRun(benchmark::State& state) {
  InvocationTrace trace;
  trace.Append(0, 4096, Duration::Nanos(100), /*is_write=*/false);
  RunVmOverCachedFile(state, trace);
}
BENCHMARK(BM_VmCachedSequentialRun);

void BM_VmCachedScatteredTrace(benchmark::State& state) {
  // The same 4,096 pages in a shuffled order: one-page runs, one lookup each.
  std::vector<PageIndex> pages(4096);
  for (PageIndex p = 0; p < pages.size(); ++p) {
    pages[p] = 2 * p;
  }
  Rng rng(43);
  for (uint64_t i = pages.size(); i > 1; --i) {
    std::swap(pages[i - 1], pages[rng.NextBelow(i)]);
  }
  InvocationTrace trace;
  for (PageIndex p : pages) {
    trace.Append(p, 1, Duration::Nanos(100), /*is_write=*/false);
  }
  RunVmOverCachedFile(state, trace);
}
BENCHMARK(BM_VmCachedScatteredTrace);

void BM_DiskSchedContention(benchmark::State& state) {
  // Host-side cost of simulating a contended device: a pipelined prefetch
  // stream racing a closed demand-fault chain through the two-class scheduler
  // (Arg = disk queue depth): its per-request bookkeeping (queueing, class
  // pick, merge scan).
  const auto depth = static_cast<uint32_t>(state.range(0));
  constexpr int kPrefetchReads = 64;
  constexpr int kDemandReads = 256;
  BlockDeviceProfile profile = NvmeSsdProfile();
  profile.sched.queue_depth = depth;
  for (auto _ : state) {
    Simulation sim;
    BlockDevice disk(&sim, profile);
    for (int i = 0; i < kPrefetchReads; ++i) {
      disk.Read(static_cast<uint64_t>(i) * KiB(256).value(), KiB(256).value(),
                {.read_class = ReadClass::kPrefetch, .stream = 1}, [](Status) {});
    }
    int left = kDemandReads;
    std::function<void(Status)> chain = [&](Status) {
      if (--left > 0) {
        disk.Read(MiB(64).value() + static_cast<uint64_t>(left) * KiB(64).value(), kPageSize,
                  {.read_class = ReadClass::kDemand, .stream = 2}, chain);
      }
    };
    disk.Read(MiB(64).value(), kPageSize, {.read_class = ReadClass::kDemand, .stream = 2}, chain);
    sim.Run();
    benchmark::DoNotOptimize(disk.stats().read_requests);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (kPrefetchReads + kDemandReads));
}
BENCHMARK(BM_DiskSchedContention)->Arg(32);

void BM_SpanTracerBeginEnd(benchmark::State& state) {
  // Raw cost of one closed span: Begin + End on an interned name.
  SpanTracer spans(1u << 22);
  const uint32_t name = spans.InternName("fault");
  int64_t t = 0;
  for (auto _ : state) {
    const SpanId id =
        spans.BeginId(SimTime::FromNanos(t), ObsLane::kVcpu, name, 42, 0, kNoSpan);
    spans.End(id, SimTime::FromNanos(t + 10));
    t += 10;
    if (spans.records().size() + 2 >= spans.capacity()) {
      spans.Clear();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanTracerBeginEnd);

void BM_MetricsCounterAdd(benchmark::State& state) {
  // Steady-state metric update: the series pointer is resolved once at
  // attachment time, so the hot path is a single add.
  MetricsRegistry metrics;
  Counter* counter = metrics.GetCounter("faults.by_class", {{"class", "minor"}});
  for (auto _ : state) {
    counter->Add(1);
    benchmark::DoNotOptimize(counter->value);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  MetricsRegistry metrics;
  Log2Histogram* histogram = metrics.GetHistogram("fault.handling_ns");
  Rng rng(11);
  for (auto _ : state) {
    histogram->Record(Duration::Nanos(static_cast<int64_t>(rng.NextU64() & 0xFFFFF)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHistogramRecord);

}  // namespace
}  // namespace faasnap

BENCHMARK_MAIN();
