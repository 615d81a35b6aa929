// Fault-path lever tests: batched uffd installs, huge-page regions, and
// in-flight fault coalescing. Each lever is exercised in isolation against
// exact cost pins, and the exactness gate (all levers off == pre-lever
// behavior) is checked both at the engine and the REAP-policy level.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/core/loading_set_builder.h"
#include "src/mem/fault_engine.h"
#include "src/restore/restore_policy.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

constexpr FileId kMemFile = 1;
constexpr uint64_t kSpacePages = 4096;
constexpr PageCount kFilePages = PageCount::FromPages(4096);
constexpr uint64_t kHugePages = 512;  // 2 MiB of 4 KiB pages

class FaultPathTest : public ::testing::Test {
 protected:
  FaultPathTest() : disk_(&sim_, TestDiskProfile()), space_(PageCount::FromPages(kSpacePages)) {
    router_.AddDevice(&disk_);
  }

  // (Re)builds the engine with the given levers; exact-cost assertions need
  // cost dispersion off.
  void MakeEngine(const FaultPathConfig& fault_path) {
    HostCostModel costs;
    costs.cost_dispersion = false;
    engine_ = std::make_unique<FaultEngine>(&sim_, &cache_, &router_, &space_, &readahead_,
                                            [](FileId) { return kFilePages; }, costs);
    engine_->set_fault_path(fault_path);
  }

  std::pair<FaultClass, Duration> AccessAndWait(PageIndex page) {
    const SimTime start = sim_.now();
    FaultClass out = FaultClass::kNoFault;
    engine_->set_access_observer([&](PageIndex, FaultClass c) { out = c; });
    bool sync = engine_->Access(page);
    if (!sync) {
      sim_.Run();
    }
    engine_->set_access_observer(nullptr);  // it refers to `out`
    return {out, sim_.now() - start};
  }

  Simulation sim_;
  PageCache cache_;
  BlockDevice disk_;
  StorageRouter router_;
  AddressSpace space_;
  ReadaheadPolicy readahead_;
  std::unique_ptr<FaultEngine> engine_;
};

// Handler that reports a fixed run around the faulting page (a monitor whose
// pread buffer covered the neighbors).
class FakeBatchedHandler : public UffdHandler {
 public:
  FakeBatchedHandler(Simulation* sim, Duration delay, PageRange run)
      : sim_(sim), delay_(delay), run_(run) {}

  void HandleFault(PageIndex, std::function<void(const Status&, PageRange)> done) override {
    sim_->ScheduleAfter(delay_, [run = run_, done = std::move(done)] { done(OkStatus(), run); });
  }

 private:
  Simulation* sim_;
  Duration delay_;
  PageRange run_;
};

TEST_F(FaultPathTest, BatchedUffdFaultInstallsRunWithMarginalPerPageCost) {
  MakeEngine({.batched_uffd_install = true});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  const Duration delay = Duration::Micros(10);
  FakeBatchedHandler handler(&sim_, delay, PageRange{30, 8});
  PageRangeSet region;
  region.Add(0, kSpacePages);
  engine_->RegisterUffd(region, &handler);

  auto [cls, elapsed] = AccessAndWait(33);
  EXPECT_EQ(cls, FaultClass::kUffdHandled);
  // One round trip for the batch; neighbors only cost the marginal copy.
  EXPECT_EQ(elapsed, delay + engine_->costs().uffd_round_trip +
                         engine_->costs().uffd_batch_per_page * 7 +
                         engine_->uffd_vcpu_block_extra());
  // The faulting page is fully present; untouched neighbors are soft-present
  // (their first guest touch is a cheap preinstalled fault).
  EXPECT_EQ(space_.install_state(33), PageInstallState::kPresent);
  for (PageIndex p = 30; p < 38; ++p) {
    if (p == 33) continue;
    EXPECT_EQ(space_.install_state(p), PageInstallState::kSoftPresent) << p;
  }
  EXPECT_EQ(space_.install_state(38), PageInstallState::kNotPresent);
  EXPECT_EQ(engine_->metrics().batch_installs, 1u);
  EXPECT_EQ(engine_->metrics().batch_installed_pages.value(), 8u);
  // UFFDIO_COPY copies the whole run into anonymous memory.
  EXPECT_EQ(space_.anon_copied_pages().value(), 8u);
  auto [cls2, elapsed2] = AccessAndWait(34);
  EXPECT_EQ(cls2, FaultClass::kUffdPreinstalled);
  EXPECT_EQ(elapsed2, engine_->costs().uffd_preinstalled_fault);
}

TEST_F(FaultPathTest, BatchedRunIsTrimmedToUninstalledPages) {
  MakeEngine({.batched_uffd_install = true});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  // Page 35 is already present; the batch must not reinstall (or re-charge) it.
  space_.SetInstallState(35, PageInstallState::kPresent);
  FakeBatchedHandler handler(&sim_, Duration::Micros(10), PageRange{30, 8});
  PageRangeSet region;
  region.Add(0, kSpacePages);
  engine_->RegisterUffd(region, &handler);

  auto [cls, elapsed] = AccessAndWait(33);
  EXPECT_EQ(cls, FaultClass::kUffdHandled);
  // Trimmed run is [30, 35): 5 pages, 4 marginal copies.
  EXPECT_EQ(elapsed, Duration::Micros(10) + engine_->costs().uffd_round_trip +
                         engine_->costs().uffd_batch_per_page * 4 +
                         engine_->uffd_vcpu_block_extra());
  EXPECT_EQ(engine_->metrics().batch_installed_pages.value(), 5u);
  EXPECT_EQ(space_.install_state(34), PageInstallState::kSoftPresent);
  EXPECT_EQ(space_.install_state(36), PageInstallState::kNotPresent);
  EXPECT_EQ(space_.install_state(37), PageInstallState::kNotPresent);
}

TEST_F(FaultPathTest, HandlerOfferingThePageAloneInstallsOnePage) {
  MakeEngine({.batched_uffd_install = true});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  FakeBatchedHandler handler(&sim_, Duration::Micros(10), PageRange{40, 1});
  PageRangeSet region;
  region.Add(0, kSpacePages);
  engine_->RegisterUffd(region, &handler);

  auto [cls, elapsed] = AccessAndWait(40);
  EXPECT_EQ(cls, FaultClass::kUffdHandled);
  EXPECT_EQ(elapsed, Duration::Micros(10) + engine_->costs().uffd_round_trip +
                         engine_->uffd_vcpu_block_extra());
  EXPECT_EQ(engine_->metrics().batch_installs, 1u);
  EXPECT_EQ(engine_->metrics().batch_installed_pages.value(), 1u);
  EXPECT_EQ(space_.install_state(41), PageInstallState::kNotPresent);
}

// With the lever off the engine installs the faulting page alone, whatever run
// the handler offers, at the single-page round-trip cost.
TEST_F(FaultPathTest, LeverOffInstallsThePageAloneWhateverTheHandlerOffers) {
  MakeEngine({});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  FakeBatchedHandler handler(&sim_, Duration::Micros(10), PageRange{30, 8});
  PageRangeSet region;
  region.Add(0, kSpacePages);
  engine_->RegisterUffd(region, &handler);

  auto [cls, elapsed] = AccessAndWait(33);
  EXPECT_EQ(cls, FaultClass::kUffdHandled);
  EXPECT_EQ(elapsed, Duration::Micros(10) + engine_->costs().uffd_round_trip +
                         engine_->uffd_vcpu_block_extra());
  EXPECT_EQ(space_.install_state(33), PageInstallState::kPresent);
  EXPECT_EQ(space_.install_state(32), PageInstallState::kNotPresent);
  EXPECT_EQ(space_.install_state(34), PageInstallState::kNotPresent);
  EXPECT_EQ(engine_->metrics().batch_installs, 0u);
  EXPECT_EQ(space_.anon_copied_pages().value(), 1u);
}

TEST_F(FaultPathTest, HugeFaultInstallsWholeAnonymousRegion) {
  MakeEngine({.huge_pages = true});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kAnonymous});
  space_.ConfigureHugeRegions(PageCount::FromPages(kHugePages));
  space_.MarkHugeEligible(512);

  auto [cls, elapsed] = AccessAndWait(600);
  EXPECT_EQ(cls, FaultClass::kHugeInstall);
  EXPECT_EQ(elapsed, engine_->costs().huge_fault);
  EXPECT_TRUE(space_.AllInState(PageRange{512, kHugePages}, PageInstallState::kPresent));
  EXPECT_EQ(space_.huge_region_state(600), HugeRegionState::kInstalled);
  EXPECT_EQ(engine_->metrics().huge_installs, 1u);
  EXPECT_EQ(engine_->metrics().huge_installed_pages.value(), kHugePages);
  EXPECT_EQ(engine_->metrics().count(FaultClass::kHugeInstall), 1);
  // Every other page of the region is now fault-free.
  EXPECT_TRUE(engine_->Access(512));
  EXPECT_TRUE(engine_->Access(1023));
  // Pages outside the region still fault normally.
  auto [cls2, elapsed2] = AccessAndWait(1024);
  EXPECT_EQ(cls2, FaultClass::kAnonymous);
  EXPECT_EQ(elapsed2, engine_->costs().anonymous_fault);
}

TEST_F(FaultPathTest, FullyCachedFileRegionInstallsHuge) {
  MakeEngine({.huge_pages = true});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  space_.ConfigureHugeRegions(PageCount::FromPages(kHugePages));
  space_.MarkHugeEligible(512);
  cache_.Insert(kMemFile, PageRange{512, kHugePages});

  auto [cls, elapsed] = AccessAndWait(700);
  EXPECT_EQ(cls, FaultClass::kHugeInstall);
  EXPECT_EQ(elapsed, engine_->costs().huge_fault);
  EXPECT_TRUE(space_.AllInState(PageRange{512, kHugePages}, PageInstallState::kPresent));
}

TEST_F(FaultPathTest, PartiallyCachedFileRegionSplitsOnceThenFaultsNormally) {
  MakeEngine({.huge_pages = true});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  space_.ConfigureHugeRegions(PageCount::FromPages(kHugePages));
  space_.MarkHugeEligible(512);
  // Only 100 of 512 backing pages are resident: not huge-mappable.
  cache_.Insert(kMemFile, PageRange{512, 100});

  auto [cls, elapsed] = AccessAndWait(520);
  EXPECT_EQ(cls, FaultClass::kMinor);
  // The triggering fault pays the split once on top of its normal cost.
  EXPECT_EQ(elapsed, engine_->costs().minor_fault + engine_->costs().huge_split);
  EXPECT_EQ(space_.huge_region_state(520), HugeRegionState::kSplit);
  EXPECT_EQ(engine_->metrics().huge_splits, 1u);
  EXPECT_EQ(engine_->metrics().huge_installs, 0u);
  // The region stays split: later faults in it take the plain 4 KiB path.
  auto [cls2, elapsed2] = AccessAndWait(521);
  EXPECT_EQ(cls2, FaultClass::kMinor);
  EXPECT_EQ(elapsed2, engine_->costs().minor_fault_sequential);
  EXPECT_EQ(engine_->metrics().huge_splits, 1u);
}

TEST_F(FaultPathTest, EligibleRegionSpanningMappingsSplits) {
  MakeEngine({.huge_pages = true});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kAnonymous});
  // A file region punched into the middle of the huge window breaks the
  // single-mapping requirement.
  space_.Map({.guest = {600, 100}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 600});
  space_.ConfigureHugeRegions(PageCount::FromPages(kHugePages));
  space_.MarkHugeEligible(512);

  auto [cls, elapsed] = AccessAndWait(513);
  EXPECT_EQ(cls, FaultClass::kAnonymous);
  EXPECT_EQ(elapsed, engine_->costs().anonymous_fault + engine_->costs().huge_split);
  EXPECT_EQ(space_.huge_region_state(513), HugeRegionState::kSplit);
}

TEST_F(FaultPathTest, CoalescedFaultRetiresWholeInFlightRun) {
  MakeEngine({.fault_coalescing = true});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  // A loader-style read for [100, 200) is in flight.
  auto handle = cache_.BeginRead(kMemFile, PageRange{100, 100});
  disk_.Read(100 * kPageSize, 100 * kPageSize, {}, [&](Status) { cache_.CompleteRead(handle); });

  auto [cls, elapsed] = AccessAndWait(150);
  EXPECT_EQ(cls, FaultClass::kInFlightWait);
  EXPECT_GT(elapsed, Duration::Zero());
  // The whole run covered by the IO retired in one fault.
  EXPECT_TRUE(space_.AllInState(PageRange{100, 100}, PageInstallState::kPresent));
  EXPECT_EQ(space_.install_state(99), PageInstallState::kNotPresent);
  EXPECT_EQ(space_.install_state(200), PageInstallState::kNotPresent);
  EXPECT_EQ(engine_->metrics().coalesced_pages.value(), 99u);
  EXPECT_EQ(engine_->metrics().count(FaultClass::kInFlightWait), 1);
  // No extra disk traffic, and neighbors are now free.
  EXPECT_EQ(engine_->metrics().fault_disk_requests, 0u);
  EXPECT_EQ(disk_.stats().read_requests, 1u);
  EXPECT_TRUE(engine_->Access(100));
  EXPECT_TRUE(engine_->Access(199));
}

TEST_F(FaultPathTest, CoalescingOffRetiresOnlyTheFaultingPage) {
  MakeEngine({});
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  auto handle = cache_.BeginRead(kMemFile, PageRange{100, 100});
  disk_.Read(100 * kPageSize, 100 * kPageSize, {}, [&](Status) { cache_.CompleteRead(handle); });

  auto [cls, elapsed] = AccessAndWait(150);
  EXPECT_EQ(cls, FaultClass::kInFlightWait);
  EXPECT_EQ(space_.install_state(150), PageInstallState::kPresent);
  EXPECT_EQ(space_.install_state(151), PageInstallState::kNotPresent);
  EXPECT_EQ(engine_->metrics().coalesced_pages.value(), 0u);
}

TEST_F(FaultPathTest, DisabledLeversMatchEngineWithoutFaultPathConfig) {
  // Exactness gate at the engine level: an engine with an all-off
  // FaultPathConfig must cost exactly what one that never saw the config does.
  HostCostModel costs;
  costs.cost_dispersion = false;
  AddressSpace baseline_space(PageCount::FromPages(kSpacePages));
  FaultEngine baseline(&sim_, &cache_, &router_, &baseline_space, &readahead_,
                       [](FileId) { return kFilePages; }, costs);
  baseline_space.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kAnonymous});

  MakeEngine({});
  EXPECT_FALSE(engine_->fault_path().any_enabled());
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kAnonymous});

  const SimTime t0 = sim_.now();
  FaultClass cls = FaultClass::kNoFault;
  baseline.set_access_observer([&](PageIndex, FaultClass c) { cls = c; });
  baseline.Access(7);
  sim_.Run();
  const Duration baseline_elapsed = sim_.now() - t0;

  auto [cls2, elapsed] = AccessAndWait(7);
  EXPECT_EQ(cls, cls2);
  EXPECT_EQ(elapsed, baseline_elapsed);
  EXPECT_EQ(elapsed, engine_->costs().anonymous_fault);
}

TEST(FaultPathConfigTest, AnyEnabledReflectsEachLever) {
  EXPECT_FALSE(FaultPathConfig{}.any_enabled());
  EXPECT_TRUE(FaultPathConfig{.batched_uffd_install = true}.any_enabled());
  EXPECT_TRUE(FaultPathConfig{.huge_pages = true}.any_enabled());
  EXPECT_TRUE(FaultPathConfig{.fault_coalescing = true}.any_enabled());
}

// --- REAP policy-level property: batched install covers exactly the same
// pages as per-page install (only the cost model changes). ---

// A snapshot whose working set has both long runs and isolated pages, so the
// run decomposition is non-trivial: [100,150), [300,350), {500}, {502}, {504}.
FunctionSnapshot FragmentedSnapshot(SnapshotStore* store) {
  FunctionSnapshot snap;
  snap.function = "fragmented";
  snap.guest_pages = PageCount::FromPages(1000);

  snap.memory_vanilla.total_pages = PageCount::FromPages(1000);
  snap.memory_vanilla.nonzero.Add(0, 200);
  snap.memory_vanilla.nonzero.Add(300, 100);
  snap.memory_vanilla.nonzero.Add(500, 5);
  snap.memory_vanilla.id = store->Register("frag.mem", PageCount::FromPages(1000));

  snap.memory_sanitized.total_pages = PageCount::FromPages(1000);
  snap.memory_sanitized.nonzero.Add(0, 200);
  snap.memory_sanitized.id = store->Register("frag.smem", PageCount::FromPages(1000));

  PageRangeSet g0;
  g0.Add(100, 50);
  PageRangeSet g1;
  g1.Add(300, 50);
  snap.ws_groups.groups = {g0, g1};

  snap.reap_ws.guest_pages.clear();
  for (PageIndex p = 100; p < 150; ++p) snap.reap_ws.guest_pages.push_back(p);
  for (PageIndex p = 300; p < 350; ++p) snap.reap_ws.guest_pages.push_back(p);
  for (PageIndex p : {500u, 502u, 504u}) snap.reap_ws.guest_pages.push_back(p);
  snap.reap_ws.id = store->Register("frag.reapws", snap.reap_ws.size_pages());

  snap.loading_set = BuildLoadingSet(snap.ws_groups, snap.memory_sanitized);
  snap.loading_set.id = store->Register("frag.lset", snap.loading_set.total_pages);

  snap.record_touched.Add(100, 50);
  snap.record_touched.Add(300, 50);
  return snap;
}

// Full restore environment for one ReapPolicy run.
struct ReapRun {
  explicit ReapRun(bool batched)
      : disk(&sim, TestDiskProfile()), snapshot(FragmentedSnapshot(&store)),
        space(snapshot.guest_pages) {
    router.AddDevice(&disk);
    config.fault_path.batched_uffd_install = batched;
    engine = std::make_unique<FaultEngine>(&sim, &cache, &router, &space, &readahead,
                                           store.SizeFn());
    engine->set_fault_path(config.fault_path);
    env.sim = &sim;
    env.cache = &cache;
    env.storage = &router;
    env.space = &space;
    env.engine = engine.get();
    env.snapshot = &snapshot;
    env.config = &config;
    policy = RestorePolicy::Create(RestoreMode::kReap);
    bool ready = false;
    policy->SetupMemory(&env, [&] { ready = true; });
    sim.Run();
    EXPECT_TRUE(ready);
  }

  Simulation sim;
  PageCache cache;
  BlockDevice disk;
  StorageRouter router;
  SnapshotStore store;
  PlatformConfig config;
  FunctionSnapshot snapshot;
  AddressSpace space;
  ReadaheadPolicy readahead;
  std::unique_ptr<FaultEngine> engine;
  RestoreEnv env;
  std::unique_ptr<RestorePolicy> policy;
};

TEST(ReapBatchedInstall, CoversExactlyTheSamePagesAsPerPageInstall) {
  ReapRun per_page(/*batched=*/false);
  ReapRun batched(/*batched=*/true);
  for (PageIndex p = 0; p < per_page.snapshot.guest_pages.value(); ++p) {
    EXPECT_EQ(per_page.space.install_state(p), batched.space.install_state(p)) << p;
  }
  EXPECT_EQ(per_page.space.resident_pages().value(), batched.space.resident_pages().value());
  EXPECT_EQ(per_page.space.anon_copied_pages().value(), batched.space.anon_copied_pages().value());
  // Per-page leaves no batch trace; batched records one install per run.
  EXPECT_EQ(per_page.engine->metrics().batch_installs, 0u);
  EXPECT_EQ(batched.engine->metrics().batch_installs, 5u);
  EXPECT_EQ(batched.engine->metrics().batch_installed_pages.value(), 103u);
}

TEST(ReapBatchedInstall, BatchingShortensTheBlockingInstall) {
  ReapRun per_page(/*batched=*/false);
  ReapRun batched(/*batched=*/true);
  // Same device fetch; only the UFFDIO_COPY burst differs, and five ioctls
  // beat a hundred and three.
  EXPECT_LT(batched.policy->blocking_fetch_time(), per_page.policy->blocking_fetch_time());
  EXPECT_EQ(batched.policy->blocking_fetch_bytes(), per_page.policy->blocking_fetch_bytes());
}

}  // namespace
}  // namespace faasnap
