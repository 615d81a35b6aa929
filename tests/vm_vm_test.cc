#include "src/vm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/storage/device_profiles.h"
#include "src/vm/guest_layout.h"

namespace faasnap {
namespace {

constexpr FileId kMemFile = 1;
constexpr uint64_t kPages = 4096;

class VmTest : public ::testing::Test {
 protected:
  VmTest() : disk_(&sim_, TestDiskProfile()), space_(PageCount::FromPages(kPages)), cpu_(96) {
    router_.AddDevice(&disk_);
    HostCostModel costs;
    costs.cost_dispersion = false;  // exact-cost assertions below
    engine_ = std::make_unique<FaultEngine>(&sim_, &cache_, &router_, &space_, &readahead_,
                                            [](FileId) { return PageCount::FromPages(kPages); }, costs);
    vm_ = std::make_unique<Vm>(&sim_, engine_.get(), &cpu_, /*vcpus=*/2);
  }

  Vm::InvocationResult Run(const InvocationTrace& trace) {
    Vm::InvocationResult out;
    bool finished = false;
    vm_->RunInvocation(trace, [&](Vm::InvocationResult r) {
      out = r;
      finished = true;
    });
    sim_.Run();
    EXPECT_TRUE(finished);
    return out;
  }

  Simulation sim_;
  PageCache cache_;
  BlockDevice disk_;
  StorageRouter router_;
  AddressSpace space_;
  CpuModel cpu_;
  ReadaheadPolicy readahead_;
  std::unique_ptr<FaultEngine> engine_;
  std::unique_ptr<Vm> vm_;
};

TEST_F(VmTest, EmptyTraceFinishesImmediately) {
  InvocationTrace trace;
  Vm::InvocationResult r = Run(trace);
  EXPECT_EQ(r.elapsed, Duration::Zero());
  EXPECT_EQ(r.access_count, 0u);
}

TEST_F(VmTest, PureComputeTakesComputeTime) {
  InvocationTrace trace;
  trace.trailing_compute = Duration::Millis(4);
  Vm::InvocationResult r = Run(trace);
  EXPECT_EQ(r.elapsed, Duration::Millis(4));
}

TEST_F(VmTest, ComputePlusAnonymousFaults) {
  space_.Map({.guest = {0, kPages}, .kind = BackingKind::kAnonymous});
  InvocationTrace trace;
  for (int i = 0; i < 10; ++i) {
    trace.Append(TraceOp{Duration::Micros(100), static_cast<PageIndex>(i), true});
  }
  Vm::InvocationResult r = Run(trace);
  // 10 * (100us compute + 2.5us anon fault)
  EXPECT_EQ(r.elapsed, Duration::Micros(1025));
  EXPECT_EQ(r.access_count, 10u);
  EXPECT_EQ(trace.WrittenPages(r.access_count).page_count(), 10u);
  EXPECT_EQ(engine_->metrics().count(FaultClass::kAnonymous), 10);
}

TEST_F(VmTest, RepeatAccessesAreFree) {
  space_.Map({.guest = {0, kPages}, .kind = BackingKind::kAnonymous});
  InvocationTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.Append(TraceOp{Duration::Zero(), 7, false});
  }
  Vm::InvocationResult r = Run(trace);
  EXPECT_EQ(r.elapsed, engine_->costs().anonymous_fault);  // one fault, four free hits
  EXPECT_EQ(engine_->metrics().count(FaultClass::kNoFault), 4);
}

TEST_F(VmTest, MajorFaultsBlockTheVcpu) {
  space_.Map({.guest = {0, kPages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  InvocationTrace trace;
  trace.Append(TraceOp{Duration::Zero(), 100, false});
  Vm::InvocationResult r = Run(trace);
  EXPECT_GT(r.elapsed, Duration::Micros(50));  // includes the disk read
  EXPECT_EQ(engine_->metrics().count(FaultClass::kMajor), 1);
}

TEST_F(VmTest, ObserverSeesEveryAccessWithClass) {
  space_.Map({.guest = {0, kPages}, .kind = BackingKind::kAnonymous});
  std::vector<std::pair<PageIndex, FaultClass>> seen;
  engine_->set_access_observer([&](PageIndex p, FaultClass c) { seen.emplace_back(p, c); });
  InvocationTrace trace;
  trace.Append(TraceOp{Duration::Zero(), 3, true});
  trace.Append(TraceOp{Duration::Zero(), 3, false});
  trace.Append(TraceOp{Duration::Zero(), 4, true});
  Run(trace);
  ASSERT_EQ(seen.size(), 3u);
  const auto expected0 = std::make_pair<PageIndex, FaultClass>(3, FaultClass::kAnonymous);
  const auto expected1 = std::make_pair<PageIndex, FaultClass>(3, FaultClass::kNoFault);
  const auto expected2 = std::make_pair<PageIndex, FaultClass>(4, FaultClass::kAnonymous);
  EXPECT_EQ(seen[0], expected0);
  EXPECT_EQ(seen[1], expected1);
  EXPECT_EQ(seen[2], expected2);
}

TEST_F(VmTest, VcpusCountAgainstCpuModelOnlyWhileRunning) {
  EXPECT_EQ(cpu_.runnable(), 0);
  InvocationTrace trace;
  trace.trailing_compute = Duration::Millis(1);
  bool checked = false;
  vm_->RunInvocation(trace, [&](Vm::InvocationResult) {});
  sim_.ScheduleAfter(Duration::Micros(500), [&] {
    EXPECT_EQ(cpu_.runnable(), 2);
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(cpu_.runnable(), 0);
}

TEST_F(VmTest, CpuContentionStretchesCompute) {
  CpuModel small_cpu(1);
  Vm vm_a(&sim_, engine_.get(), &small_cpu, /*vcpus=*/1);
  Vm vm_b(&sim_, engine_.get(), &small_cpu, /*vcpus=*/1);
  InvocationTrace trace;
  trace.trailing_compute = Duration::Millis(10);
  Duration a_elapsed;
  Duration b_elapsed;
  vm_a.RunInvocation(trace, [&](Vm::InvocationResult r) { a_elapsed = r.elapsed; });
  vm_b.RunInvocation(trace, [&](Vm::InvocationResult r) { b_elapsed = r.elapsed; });
  sim_.Run();
  // The contention factor is sampled when a compute burst is issued: vm_a issued
  // its burst before vm_b became runnable (factor 1), vm_b issued under
  // 2-runnable/1-core contention (factor 2).
  EXPECT_EQ(a_elapsed, Duration::Millis(10));
  EXPECT_EQ(b_elapsed, Duration::Millis(20));
}

TEST_F(VmTest, WrittenPagesExcludeReads) {
  space_.Map({.guest = {0, kPages}, .kind = BackingKind::kAnonymous});
  InvocationTrace trace;
  trace.Append(TraceOp{Duration::Zero(), 1, false});
  trace.Append(TraceOp{Duration::Zero(), 2, true});
  Vm::InvocationResult r = Run(trace);
  const PageRangeSet written = trace.WrittenPages(r.access_count);
  EXPECT_FALSE(written.Contains(1));
  EXPECT_TRUE(written.Contains(2));
}

// ---- fast-forward: directed cases ----

TEST_F(VmTest, EventAtTheInstantABurstEndsScalesTheNextBurst) {
  // The second burst ends at exactly 20 us, where an event queued earlier
  // raises the load. That event wins the FIFO tie, so the trailing burst,
  // started at 20 us, runs at load factor 2: 10 + 10 + 20 us. Fast-forwarding
  // onto the head's time would start it at factor 1 and finish at 30 us.
  CpuModel one_core(1);
  Vm vm(&sim_, engine_.get(), &one_core, /*vcpus=*/1);
  space_.Map({.guest = {0, kPages}, .kind = BackingKind::kAnonymous});
  space_.SetInstallState(PageRange{0, 2}, PageInstallState::kPresent);
  InvocationTrace trace;
  trace.Append(TraceOp{Duration::Micros(10), 0, false});
  trace.Append(TraceOp{Duration::Micros(10), 1, false});
  trace.trailing_compute = Duration::Micros(10);
  sim_.Schedule(SimTime() + Duration::Micros(20), [&] { one_core.AddRunnable(); });
  Duration elapsed;
  vm.RunInvocation(trace, [&](Vm::InvocationResult r) { elapsed = r.elapsed; });
  sim_.Run();
  EXPECT_EQ(elapsed, Duration::Micros(40));
}

TEST_F(VmTest, FirstStepNeverAdvancesPastItsCaller) {
  // RunInvocation's caller raises the load after the call returns. The first
  // burst started before that (factor 1), the second after it (factor 2):
  // 10 + 2.5 (anonymous fault) + 20 us. A first Step that fast-forwarded would
  // run both bursts before the caller's AddRunnable: 10 + 2.5 + 10 us.
  CpuModel one_core(1);
  Vm vm(&sim_, engine_.get(), &one_core, /*vcpus=*/1);
  space_.Map({.guest = {0, kPages}, .kind = BackingKind::kAnonymous});
  InvocationTrace trace;
  trace.Append(TraceOp{Duration::Micros(10), 5, true});
  trace.trailing_compute = Duration::Micros(10);
  Duration elapsed;
  sim_.Schedule(SimTime(), [&] {
    vm.RunInvocation(trace, [&](Vm::InvocationResult r) { elapsed = r.elapsed; });
    one_core.AddRunnable();
  });
  sim_.Run();
  EXPECT_EQ(elapsed, Duration::Nanos(32500));
}

TEST_F(VmTest, DoneCanStartTheNextInvocationOnTheSameVm) {
  space_.Map({.guest = {0, kPages}, .kind = BackingKind::kAnonymous});
  InvocationTrace first;
  first.Append(TraceOp{Duration::Micros(5), 1, true});
  first.trailing_compute = Duration::Micros(3);
  InvocationTrace second;
  second.Append(TraceOp{Duration::Micros(4), 2, true});
  second.Append(TraceOp{Duration::Zero(), 1, false});
  second.trailing_compute = Duration::Micros(1);
  std::vector<Vm::InvocationResult> results;
  std::vector<SimTime> finished_at;
  int remaining = 3;  // first, second, then second again
  std::function<void(Vm::InvocationResult)> chain = [&](Vm::InvocationResult r) {
    results.push_back(std::move(r));
    finished_at.push_back(sim_.now());
    if (--remaining > 0) {
      vm_->RunInvocation(second, chain);
    }
  };
  vm_->RunInvocation(first, chain);
  sim_.Run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].elapsed, Duration::Nanos(10500));  // 5 + 2.5 + 3 us
  EXPECT_EQ(results[1].elapsed, Duration::Nanos(7500));   // 4 + 2.5 + 0 + 1 us
  EXPECT_EQ(results[2].elapsed, Duration::Micros(5));     // both pages present now
  EXPECT_EQ(finished_at[2], SimTime() + Duration::Nanos(23000));
  EXPECT_EQ(results[1].access_count, 2u);
  const PageRangeSet written = second.WrittenPages(results[1].access_count);
  EXPECT_EQ(written.page_count(), 1u);
  EXPECT_TRUE(written.Contains(2));
  EXPECT_EQ(cpu_.runnable(), 0);
}

TEST_F(VmTest, TerminalReadFailureAbortsThenTheVmRunsAgain) {
  ChaosConfig chaos;
  chaos.enabled = true;
  chaos.read_error_rate = 1.0;
  FaultInjector injector(&sim_, chaos);
  disk_.set_fault_injector(&injector, /*device_ordinal=*/0);
  space_.Map({.guest = {0, 1024}, .kind = BackingKind::kAnonymous});
  space_.Map({.guest = {1024, 1024}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  std::vector<PageIndex> observed;
  engine_->set_access_observer([&](PageIndex p, FaultClass) { observed.push_back(p); });

  InvocationTrace doomed;
  doomed.Append(TraceOp{Duration::Micros(2), 3, true});
  doomed.Append(TraceOp{Duration::Micros(2), 1500, false});  // major: read fails
  doomed.Append(TraceOp{Duration::Micros(2), 4, true});
  doomed.trailing_compute = Duration::Micros(2);
  Vm::InvocationResult aborted = Run(doomed);
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_EQ(observed, (std::vector<PageIndex>{3}));  // the failed access never retires
  // The prefix the Vm executed ends at the failed access, so the record phase's
  // written set holds page 3 but not the never-reached write to page 4.
  EXPECT_EQ(aborted.access_count, 2u);
  EXPECT_EQ(doomed.WrittenPages(aborted.access_count), PageRangeSet({PageRange{3, 1}}));
  EXPECT_EQ(cpu_.runnable(), 0);

  InvocationTrace healthy;
  healthy.Append(TraceOp{Duration::Micros(2), 5, true});
  healthy.Append(TraceOp{Duration::Micros(2), 6, false});
  healthy.trailing_compute = Duration::Micros(2);
  Vm::InvocationResult ok = Run(healthy);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.access_count, 2u);
  EXPECT_EQ(ok.elapsed, Duration::Micros(11));  // 3 x 2 us compute + 2 x 2.5 us
  EXPECT_EQ(observed, (std::vector<PageIndex>{3, 5, 6}));
}

TEST_F(VmTest, FailureInsideARunCountsThePagesBegun) {
  ChaosConfig chaos;
  chaos.enabled = true;
  chaos.read_error_rate = 1.0;
  FaultInjector injector(&sim_, chaos);
  disk_.set_fault_injector(&injector, /*device_ordinal=*/0);
  space_.Map({.guest = {0, 1024}, .kind = BackingKind::kAnonymous});
  space_.Map({.guest = {1024, 1024}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  // One run of writes: four anonymous pages, then a major fault whose read
  // fails, then three pages the guest never reaches.
  InvocationTrace trace;
  trace.Append(1020, 8, Duration::Micros(1), /*is_write=*/true);
  ASSERT_EQ(trace.runs.size(), 1u);
  Vm::InvocationResult r = Run(trace);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.access_count, 5u);
  EXPECT_EQ(trace.WrittenPages(r.access_count), PageRangeSet({PageRange{1020, 5}}));
  EXPECT_EQ(engine_->metrics().count(FaultClass::kAnonymous), 4);
  EXPECT_EQ(cpu_.runnable(), 0);
}

// ---- fast-forward and run-granular execution: differential property ----
//
// Both must be invisible. Each scenario's trace runs as maximal runs, cut at
// random points, and as one-page runs, and each cut runs alone, beside
// unrelated events that bound it at random points, beside a 1 ns ticker that
// blocks every fast-forward, and under RunUntil epochs: all twelve must give
// identical results. The world also changes under the guest at fixed times (a
// remap, a page-cache drop, a CPU load step), so a lookup or a load factor
// kept past the event that built it changes the outcome; the observer checks
// each fixed-cost class against the world at its retire.

constexpr PageIndex kAnonPages = 1024;        // [0, 1024): anonymous
constexpr PageIndex kFileFirst = kAnonPages;  // [1024, 3072): the memory file
constexpr PageIndex kFilePages = 2048;
constexpr PageIndex kMappedEnd = kFileFirst + kFilePages;
constexpr PageIndex kHugeAnonRegion = 512;    // 2 MiB-aligned, inside the anon map
constexpr PageIndex kHugeFileRegion = 2048;   // 2 MiB-aligned, inside the file map
// A second file mapped over part of the anonymous zone, fully cached until it
// is dropped mid-run.
constexpr FileId kSideFile = 2;
constexpr PageRange kSideRange{128, 128};
// Guest pages registered with a pread monitor on odd seeds.
constexpr PageRange kUffdRange{2816, 256};
// Longer than any fixed-cost fault takes to retire: a class observed this long
// after the last world change was classified in the world the observer sees.
constexpr Duration kSettle = Duration::Micros(60);

// REAP's monitor without a working set: each fault preads its page through
// the page cache.
class PreadMonitor : public UffdHandler {
 public:
  explicit PreadMonitor(FaultEngine* engine) : engine_(engine) {}

  void HandleFault(PageIndex guest_page,
                   std::function<void(const Status&, PageRange)> done) override {
    engine_->EnsureFilePage(kMemFile, guest_page - kFileFirst, /*charge_to_faults=*/true,
                            [guest_page, done = std::move(done)](const Status& status,
                                                                 PageCache::PageState) {
                              done(status, PageRange{guest_page, 1});
                            });
  }

 private:
  FaultEngine* engine_;
};

struct Scenario {
  InvocationTrace trace;                // maximal runs
  std::vector<PageRange> cached;        // memory-file pages already in the page cache
  std::vector<PageRange> soft_present;  // guest pages preinstalled by UFFDIO_COPY
  bool huge_lever = false;
  bool uffd = false;
  int cores = 96;
  // World changes, at fixed times in every run.
  SimTime remap_at;  // `remap`, inside the file map, becomes anonymous
  PageRange remap;
  SimTime drop_at;  // the side file leaves the page cache
  SimTime load_at;  // two more runnable threads until unload_at
  SimTime unload_at;
};

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  Scenario sc;
  sc.huge_lever = seed % 3 == 0;
  sc.uffd = seed % 2 == 1;
  const int cores[] = {1, 2, 96};  // 1 and 2 cores: bursts scale, and the load step shows
  sc.cores = cores[(seed / 2) % 3];
  for (int i = 0; i < 6; ++i) {
    const PageIndex first = static_cast<PageIndex>(rng.NextBelow(kFilePages - 64));
    sc.cached.push_back(PageRange{first, 1 + rng.NextBelow(64)});
  }
  if (sc.huge_lever && rng.NextBelow(2) == 0) {
    // Fully cached, so a fault there installs the file region huge.
    sc.cached.push_back(PageRange{kHugeFileRegion - kFileFirst, 512});
  }
  for (int i = 0; i < 4; ++i) {
    const PageIndex first = static_cast<PageIndex>(rng.NextBelow(kMappedEnd - 32));
    if (first < kHugeAnonRegion + 512 && first + 32 > kHugeAnonRegion) {
      continue;  // keep the huge anon region whole (fully not-present)
    }
    sc.soft_present.push_back(PageRange{first, 1 + rng.NextBelow(32)});
  }
  sc.remap = PageRange{kFileFirst + rng.NextBelow(kFilePages - 64), 64};
  sc.remap_at = SimTime() + Duration::Micros(static_cast<int64_t>(20 + rng.NextBelow(400)));
  sc.drop_at = SimTime() + Duration::Micros(static_cast<int64_t>(20 + rng.NextBelow(400)));
  sc.load_at = SimTime() + Duration::Micros(static_cast<int64_t>(10 + rng.NextBelow(300)));
  sc.unload_at = sc.load_at + Duration::Micros(static_cast<int64_t>(10 + rng.NextBelow(300)));

  const uint64_t runs = 24 + rng.NextBelow(25);
  std::vector<PageIndex> touched;
  for (uint64_t i = 0; i < runs; ++i) {
    Duration compute;
    if (rng.NextBelow(2) == 0) {
      compute = Duration::Nanos(static_cast<int64_t>(1 + rng.NextBelow(2000)));
    }
    const bool is_write = rng.NextBelow(3) == 0;
    uint64_t pages = 1 + rng.NextBelow(rng.NextBelow(4) == 0 ? 32 : 8);
    PageIndex first = 0;
    const uint64_t kind = rng.NextBelow(12);
    if (kind < 2 && !touched.empty()) {
      first = touched[rng.NextBelow(touched.size())];  // repeats: mostly no fault
    } else if (kind < 4) {
      first = rng.NextBelow(kAnonPages);
    } else if (kind < 5) {
      first = kFileFirst - 1 - rng.NextBelow(pages);  // across the anon/file map boundary
    } else if (kind < 7 && !sc.soft_present.empty()) {
      const PageRange r = sc.soft_present[rng.NextBelow(sc.soft_present.size())];
      first = r.first + rng.NextBelow(r.count);  // may run past the soft-present stretch
    } else if (kind < 9 && !sc.cached.empty()) {
      const PageRange r = sc.cached[rng.NextBelow(sc.cached.size())];
      first = kFileFirst + r.first + rng.NextBelow(r.count);  // minor, then maybe not
    } else if (kind < 10) {
      first = kSideRange.first + rng.NextBelow(kSideRange.count);
    } else if (kind < 11) {
      first = kUffdRange.first + rng.NextBelow(kUffdRange.count);
    } else {
      first = kFileFirst + rng.NextBelow(kFilePages);
    }
    pages = std::min(pages, kMappedEnd - first);
    sc.trace.Append(first, pages, compute, is_write);
    touched.push_back(first);
  }
  if (rng.NextBelow(2) == 0) {
    sc.trace.trailing_compute = Duration::Nanos(static_cast<int64_t>(1 + rng.NextBelow(5000)));
  }
  return sc;
}

enum class Cut { kMaximal, kRandom, kSinglePages };

// The same accesses as `trace`, cut into runs at random points or page by page.
InvocationTrace CutRuns(const InvocationTrace& trace, Cut cut, uint64_t seed) {
  if (cut == Cut::kMaximal) {
    return trace;
  }
  Rng rng(seed ^ 0xC07C07);
  InvocationTrace out;
  out.trailing_compute = trace.trailing_compute;
  out.freed_at_end = trace.freed_at_end;
  for (const TraceRun& run : trace.runs) {
    for (PageIndex first = run.first; first < run.end();) {
      const auto pages = static_cast<uint32_t>(
          cut == Cut::kSinglePages ? 1 : 1 + rng.NextBelow(run.end() - first));
      out.runs.push_back(TraceRun{first, pages, run.is_write, run.compute});
      first += pages;
    }
  }
  return out;
}

// A fast device: the 1 ns ticker costs one event per simulated nanosecond, so
// short major faults keep the blocked runs cheap.
BlockDeviceProfile FastDiskProfile() {
  BlockDeviceProfile profile = TestDiskProfile();
  profile.base_latency = Duration::Micros(5);
  profile.bandwidth_bytes_per_s = 16ull * 1000 * 1000 * 1000;
  profile.iops = 4000000;
  return profile;
}

// One fresh host per run, so every run of a scenario starts from the same state.
struct World {
  explicit World(const Scenario& sc)
      : disk(&sim, FastDiskProfile()), space(PageCount::FromPages(kPages)), cpu(sc.cores) {
    router.AddDevice(&disk);
    HostCostModel costs;
    costs.cost_dispersion = true;
    engine = std::make_unique<FaultEngine>(&sim, &cache, &router, &space, &readahead,
                                           [](FileId) { return PageCount::FromPages(kFilePages); },
                                           costs);
    space.Map({.guest = {0, kAnonPages}, .kind = BackingKind::kAnonymous});
    space.Map({.guest = {kFileFirst, kFilePages}, .kind = BackingKind::kFile, .file = kMemFile,
               .file_start = 0});
    space.Map({.guest = kSideRange, .kind = BackingKind::kFile, .file = kSideFile,
               .file_start = 0});
    cache.Insert(kSideFile, PageRange{0, kSideRange.count});
    if (sc.huge_lever) {
      FaultPathConfig fault_path;
      fault_path.huge_pages = true;
      engine->set_fault_path(fault_path);
      space.ConfigureHugeRegions(fault_path.huge_region_pages);
      space.MarkHugeEligible(kHugeAnonRegion);
      space.MarkHugeEligible(kHugeFileRegion);
    }
    if (sc.uffd) {
      // A short vCPU-block stall keeps the 1 ns ticker's runs cheap.
      engine->set_uffd_vcpu_block_extra(Duration::Micros(1));
      monitor = std::make_unique<PreadMonitor>(engine.get());
      PageRangeSet region;
      region.Add(kUffdRange);
      engine->RegisterUffd(std::move(region), monitor.get());
    }
    for (const PageRange& r : sc.cached) {
      cache.Insert(kMemFile, r);
    }
    for (const PageRange& r : sc.soft_present) {
      space.SetInstallState(r, PageInstallState::kSoftPresent);
    }
    vm = std::make_unique<Vm>(&sim, engine.get(), &cpu, /*vcpus=*/2);
    sim.Schedule(sc.remap_at, [this, &sc] {
      space.Map({.guest = sc.remap, .kind = BackingKind::kAnonymous});
    });
    sim.Schedule(sc.drop_at, [this] { cache.DropFile(kSideFile); });
    sim.Schedule(sc.load_at, [this] {
      cpu.AddRunnable();
      cpu.AddRunnable();
    });
    sim.Schedule(sc.unload_at, [this] {
      cpu.RemoveRunnable();
      cpu.RemoveRunnable();
    });
  }

  // True unless a world change fell within kSettle before `t`.
  static bool Settled(const Scenario& sc, SimTime t) {
    for (const SimTime change : {sc.remap_at, sc.drop_at, sc.load_at, sc.unload_at}) {
      if (change <= t && t < change + kSettle) {
        return false;
      }
    }
    return true;
  }

  // A fixed-cost class must match the mapping and the page cache it was
  // classified under: a lookup kept past a remap or a drop breaks this.
  void ExpectClassMatchesWorld(PageIndex page, FaultClass cls) const {
    const PageBacking backing = space.Resolve(page);
    if (cls == FaultClass::kAnonymous) {
      EXPECT_EQ(backing.kind, BackingKind::kAnonymous) << "page " << page;
    } else if (cls == FaultClass::kMinor) {
      EXPECT_EQ(backing.kind, BackingKind::kFile) << "page " << page;
      EXPECT_TRUE(cache.IsPresent(backing.file, backing.file_page)) << "page " << page;
    }
  }

  Simulation sim;
  PageCache cache;
  BlockDevice disk;
  StorageRouter router;
  AddressSpace space;
  CpuModel cpu;
  ReadaheadPolicy readahead;
  std::unique_ptr<FaultEngine> engine;
  std::unique_ptr<PreadMonitor> monitor;
  std::unique_ptr<Vm> vm;
};

enum class RunMode { kAlone, kRandomTicker, kEveryNanosecond, kEpochs };

struct Outcome {
  std::vector<std::tuple<PageIndex, FaultClass, int64_t>> observed;
  Duration elapsed;
  uint64_t access_count = 0;  // the record phase's written set is a function of it
  FaultMetrics metrics;
  PageCount resident;
  PageCount resident_anonymous;
  uint64_t events = 0;  // fired, not counting the ticker's
};

// Without `observe` no access observer is attached, so AccessRun commits its
// clock and install bytes only at its exits.
Outcome RunScenario(const Scenario& sc, const InvocationTrace& trace, RunMode mode,
                    uint64_t seed, bool observe = true) {
  World w(sc);
  Outcome out;
  SimTime deadline;
  bool finished = false;
  if (observe) {
    w.engine->set_access_observer([&](PageIndex page, FaultClass cls) {
      out.observed.emplace_back(page, cls, w.sim.now().nanos());
      if (mode == RunMode::kEpochs) {
        EXPECT_LE(w.sim.now().nanos(), deadline.nanos())
            << "observer ran past the epoch deadline";
      }
      if (World::Settled(sc, w.sim.now())) {
        w.ExpectClassMatchesWorld(page, cls);
      }
    });
  }
  uint64_t ticks = 0;
  Rng gaps(seed ^ 0x71CCE4);
  std::function<void()> tick = [&] {
    ++ticks;
    if (finished) {
      return;
    }
    const int64_t gap =
        mode == RunMode::kEveryNanosecond ? 1 : static_cast<int64_t>(1 + gaps.NextBelow(2000));
    w.sim.ScheduleAfter(Duration::Nanos(gap), [&tick] { tick(); });  // no copy per tick
  };
  if (mode == RunMode::kRandomTicker || mode == RunMode::kEveryNanosecond) {
    w.sim.ScheduleAfter(Duration::Nanos(1), [&tick] { tick(); });
  }
  w.vm->RunInvocation(trace, [&](Vm::InvocationResult r) {
    out.elapsed = r.elapsed;
    out.access_count = r.access_count;
    EXPECT_TRUE(r.status.ok());
    finished = true;
  });
  if (mode == RunMode::kEpochs) {
    while (!finished) {
      deadline = deadline + Duration::Micros(5);
      w.sim.RunUntil(deadline);
      EXPECT_EQ(w.sim.now().nanos(), deadline.nanos());
    }
  }
  w.sim.Run();  // drains trailing readahead and the world changes
  EXPECT_TRUE(finished);
  out.metrics = w.engine->metrics();
  out.resident = w.space.resident_pages();
  out.resident_anonymous = w.space.resident_anonymous_pages();
  out.events = w.sim.processed_events() - ticks;
  return out;
}

void ExpectSameMetrics(const FaultMetrics& a, const FaultMetrics& b) {
  for (int c = 0; c < static_cast<int>(FaultClass::kClassCount); ++c) {
    EXPECT_EQ(a.counts[c], b.counts[c]) << FaultClassName(static_cast<FaultClass>(c));
  }
  EXPECT_EQ(a.total_fault_time, b.total_fault_time);
  EXPECT_EQ(a.total_wait_time, b.total_wait_time);
  EXPECT_EQ(a.fault_disk_requests, b.fault_disk_requests);
  EXPECT_EQ(a.fault_disk_bytes, b.fault_disk_bytes);
  EXPECT_EQ(a.huge_installs, b.huge_installs);
  EXPECT_EQ(a.huge_installed_pages, b.huge_installed_pages);
  EXPECT_EQ(a.huge_splits, b.huge_splits);
  for (int i = 0; i < a.latency_histogram.num_buckets(); ++i) {
    EXPECT_EQ(a.latency_histogram.bucket_count(i), b.latency_histogram.bucket_count(i)) << i;
  }
  EXPECT_EQ(a.latency_histogram.total_time(), b.latency_histogram.total_time());
}

// Everything an unobserved run can be compared on.
void ExpectSameOutcome(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.access_count, b.access_count);
  ExpectSameMetrics(a.metrics, b.metrics);
  EXPECT_EQ(a.resident, b.resident);
  EXPECT_EQ(a.resident_anonymous, b.resident_anonymous);
}

TEST(VmFastForwardProperty, InvisibleUnderEveryCutAndRunMode) {
  uint64_t alone_events = 0;
  uint64_t blocked_events = 0;
  uint64_t multi_page_runs = 0;
  int64_t fault_classes_seen[static_cast<int>(FaultClass::kClassCount)] = {};
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario sc = MakeScenario(seed);
    for (const TraceRun& run : sc.trace.runs) {
      multi_page_runs += run.pages > 1 ? 1 : 0;
    }
    const Outcome alone = RunScenario(sc, sc.trace, RunMode::kAlone, seed);
    EXPECT_EQ(alone.access_count, sc.trace.access_count());
    for (const Cut cut : {Cut::kMaximal, Cut::kRandom, Cut::kSinglePages}) {
      SCOPED_TRACE("cut " + std::to_string(static_cast<int>(cut)));
      const InvocationTrace trace = CutRuns(sc.trace, cut, seed);
      ASSERT_EQ(trace.ExpandedOps(), sc.trace.ExpandedOps());
      for (const RunMode mode : {RunMode::kAlone, RunMode::kRandomTicker,
                                 RunMode::kEveryNanosecond, RunMode::kEpochs}) {
        SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
        if (cut != Cut::kMaximal || mode != RunMode::kAlone) {  // else the reference itself
          const Outcome other = RunScenario(sc, trace, mode, seed);
          ASSERT_EQ(alone.observed, other.observed);
          ExpectSameOutcome(alone, other);
          if (cut == Cut::kMaximal && mode == RunMode::kEveryNanosecond) {
            blocked_events += other.events;
          }
        }
        // With nothing attached the walk commits only at its exits.
        SCOPED_TRACE("unobserved");
        ExpectSameOutcome(alone, RunScenario(sc, trace, mode, seed, /*observe=*/false));
      }
    }
    alone_events += alone.events;
    for (int c = 0; c < static_cast<int>(FaultClass::kClassCount); ++c) {
      fault_classes_seen[c] += alone.metrics.counts[c];
    }
  }
  // The generator reaches every class the Vm can meet here, in multi-page runs.
  for (const FaultClass c : {FaultClass::kNoFault, FaultClass::kAnonymous, FaultClass::kMinor,
                             FaultClass::kMajor, FaultClass::kUffdPreinstalled,
                             FaultClass::kUffdHandled, FaultClass::kHugeInstall}) {
    EXPECT_GT(fault_classes_seen[static_cast<int>(c)], 0) << FaultClassName(c);
  }
  EXPECT_GT(multi_page_runs, 24u * 12);
  // With nothing to bound it, the lone run fast-forwards most of its work; the
  // 1 ns ticker forces every burst and fault back onto the event queue.
  EXPECT_GT(blocked_events, 3 * alone_events);
}

TEST(GuestLayoutInVmTest, TraceHelpers) {
  InvocationTrace trace;
  trace.Append(TraceOp{Duration::Micros(5), 10, false});
  trace.Append(TraceOp{Duration::Micros(5), 11, false});
  trace.Append(TraceOp{Duration::Zero(), 10, true});
  trace.trailing_compute = Duration::Micros(10);
  EXPECT_EQ(trace.access_count(), 3u);
  EXPECT_EQ(trace.TouchedPages().page_count(), 2u);
  EXPECT_EQ(trace.TotalCompute(), Duration::Micros(20));
}

}  // namespace
}  // namespace faasnap
