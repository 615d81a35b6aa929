#include "src/restore/restore_policy.h"

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/core/loading_set_builder.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

// A tiny hand-built snapshot: 1000-page guest.
//   non-zero (vanilla):   [0, 200) boot+runtime, [300, 400) transient garbage
//   non-zero (sanitized): [0, 200) only (the transients were freed + sanitized)
//   working set groups:   group 0 = [100, 150), group 1 = [300, 350)
FunctionSnapshot TinySnapshot(SnapshotStore* store) {
  FunctionSnapshot snap;
  snap.function = "tiny";
  snap.guest_pages = PageCount::FromPages(1000);

  snap.memory_vanilla.total_pages = PageCount::FromPages(1000);
  snap.memory_vanilla.nonzero.Add(0, 200);
  snap.memory_vanilla.nonzero.Add(300, 100);
  snap.memory_vanilla.id = store->Register("tiny.mem", PageCount::FromPages(1000));

  snap.memory_sanitized.total_pages = PageCount::FromPages(1000);
  snap.memory_sanitized.nonzero.Add(0, 200);
  snap.memory_sanitized.id = store->Register("tiny.smem", PageCount::FromPages(1000));

  PageRangeSet g0;
  g0.Add(100, 50);
  PageRangeSet g1;
  g1.Add(300, 50);
  snap.ws_groups.groups = {g0, g1};

  snap.reap_ws.guest_pages.clear();
  for (PageIndex p = 100; p < 150; ++p) {
    snap.reap_ws.guest_pages.push_back(p);
  }
  for (PageIndex p = 300; p < 350; ++p) {
    snap.reap_ws.guest_pages.push_back(p);
  }
  snap.reap_ws.id = store->Register("tiny.reapws", snap.reap_ws.size_pages());

  snap.loading_set = BuildLoadingSet(snap.ws_groups, snap.memory_sanitized);
  snap.loading_set.id = store->Register("tiny.lset", snap.loading_set.total_pages);

  snap.record_touched.Add(100, 50);
  snap.record_touched.Add(300, 50);
  return snap;
}

class PoliciesTest : public ::testing::Test {
 protected:
  PoliciesTest()
      : disk_(&sim_, TestDiskProfile()),
        snapshot_(TinySnapshot(&store_)),
        space_(snapshot_.guest_pages) {
    router_.AddDevice(&disk_);
    engine_ = std::make_unique<FaultEngine>(&sim_, &cache_, &router_, &space_, &readahead_,
                                            store_.SizeFn());
    env_.sim = &sim_;
    env_.cache = &cache_;
    env_.storage = &router_;
    env_.space = &space_;
    env_.engine = engine_.get();
    env_.snapshot = &snapshot_;
    env_.config = &config_;
  }

  // Runs SetupMemory to completion.
  void Setup(RestorePolicy* policy) {
    bool ready = false;
    policy->SetupMemory(&env_, [&] { ready = true; });
    sim_.Run();
    EXPECT_TRUE(ready);
  }

  Simulation sim_;
  PageCache cache_;
  BlockDevice disk_;
  StorageRouter router_;
  SnapshotStore store_;
  PlatformConfig config_;
  FunctionSnapshot snapshot_;
  AddressSpace space_;
  ReadaheadPolicy readahead_;
  std::unique_ptr<FaultEngine> engine_;
  RestoreEnv env_;
};

TEST(RestoreModeName, AllNamesDistinct) {
  EXPECT_EQ(RestoreModeName(RestoreMode::kWarm), "warm");
  EXPECT_EQ(RestoreModeName(RestoreMode::kFirecracker), "firecracker");
  EXPECT_EQ(RestoreModeName(RestoreMode::kCached), "cached");
  EXPECT_EQ(RestoreModeName(RestoreMode::kReap), "reap");
  EXPECT_EQ(RestoreModeName(RestoreMode::kFaasnap), "faasnap");
  EXPECT_EQ(RestoreModeName(RestoreMode::kFaasnapConcurrentOnly), "con-paging");
  EXPECT_EQ(RestoreModeName(RestoreMode::kFaasnapPerRegion), "per-region");
}

TEST(RestorePolicyFactory, CreatesEveryMode) {
  for (RestoreMode mode :
       {RestoreMode::kWarm, RestoreMode::kFirecracker, RestoreMode::kCached, RestoreMode::kReap,
        RestoreMode::kFaasnapConcurrentOnly, RestoreMode::kFaasnapPerRegion,
        RestoreMode::kFaasnap}) {
    auto policy = RestorePolicy::Create(mode);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->mode(), mode);
  }
}

TEST_F(PoliciesTest, WarmSkipsVmmRestoreCost) {
  auto warm = RestorePolicy::Create(RestoreMode::kWarm);
  auto fc = RestorePolicy::Create(RestoreMode::kFirecracker);
  EXPECT_LT(warm->BaseSetupCost(env_), fc->BaseSetupCost(env_));
  EXPECT_EQ(fc->BaseSetupCost(env_), config_.setup_costs.vmm_restore);
  EXPECT_EQ(warm->BaseSetupCost(env_), Duration::Zero());
}

TEST_F(PoliciesTest, WarmMapsAnonymousAndInstallsRecordTouched) {
  auto policy = RestorePolicy::Create(RestoreMode::kWarm);
  Setup(policy.get());
  EXPECT_EQ(space_.Resolve(0).kind, BackingKind::kAnonymous);
  EXPECT_EQ(space_.install_state(120), PageInstallState::kPresent);
  EXPECT_EQ(space_.install_state(10), PageInstallState::kNotPresent);
}

TEST_F(PoliciesTest, FirecrackerMapsWholeVanillaFile) {
  auto policy = RestorePolicy::Create(RestoreMode::kFirecracker);
  Setup(policy.get());
  EXPECT_EQ(space_.mmap_call_count(), 1u);
  for (PageIndex p : {0u, 500u, 999u}) {
    PageBacking b = space_.Resolve(p);
    EXPECT_EQ(b.kind, BackingKind::kFile);
    EXPECT_EQ(b.file, snapshot_.memory_vanilla.id);
    EXPECT_EQ(b.file_page, p);
  }
  EXPECT_TRUE(policy->PrefetchPlan(env_).empty());
}

TEST_F(PoliciesTest, CachedPreloadsTheWholeMemoryFile) {
  auto policy = RestorePolicy::Create(RestoreMode::kCached);
  Setup(policy.get());
  EXPECT_EQ(cache_.PresentPages(snapshot_.memory_vanilla.id).page_count(), 1000u);
}

TEST_F(PoliciesTest, ReapInstallsWorkingSetSoftPresentAndFetchesBlocking) {
  auto policy = RestorePolicy::Create(RestoreMode::kReap);
  Setup(policy.get());
  EXPECT_EQ(space_.install_state(120), PageInstallState::kSoftPresent);
  EXPECT_EQ(space_.install_state(320), PageInstallState::kSoftPresent);
  EXPECT_EQ(space_.install_state(10), PageInstallState::kNotPresent);
  EXPECT_EQ(policy->blocking_fetch_bytes().value(), 100 * kPageSize);
  EXPECT_GT(policy->blocking_fetch_time(), Duration::Zero());
  // The fetch bypassed the page cache.
  EXPECT_EQ(cache_.present_page_count(), 0u);
  EXPECT_EQ(disk_.stats().read_requests, 1u);
}

TEST_F(PoliciesTest, ReapOutOfWorkingSetFaultGoesThroughUffd) {
  auto policy = RestorePolicy::Create(RestoreMode::kReap);
  Setup(policy.get());
  FaultClass cls = FaultClass::kNoFault;
  engine_->set_access_observer([&](PageIndex, FaultClass c) { cls = c; });
  bool sync = engine_->Access(700);
  EXPECT_FALSE(sync);
  sim_.Run();
  EXPECT_EQ(cls, FaultClass::kUffdHandled);
  // The handler's pread populated the page cache via readahead.
  EXPECT_GT(cache_.present_page_count(), 0u);
}

TEST_F(PoliciesTest, ReapMonitorChargesPreadOnlyOnCacheHit) {
  auto policy = RestorePolicy::Create(RestoreMode::kReap);
  Setup(policy.get());
  // Hit: the memory-file page is already resident, so the monitor pays one
  // cached-copy pread on top of the uffd round trip.
  cache_.Insert(snapshot_.memory_vanilla.id, PageRange{700, 1});
  SimTime t0 = sim_.now();
  FaultClass cls = FaultClass::kNoFault;
  engine_->set_access_observer([&](PageIndex, FaultClass c) { cls = c; });
  engine_->Access(700);
  sim_.Run();
  EXPECT_EQ(cls, FaultClass::kUffdHandled);
  EXPECT_EQ(sim_.now() - t0, config_.host_costs.cached_pread_page +
                                 config_.host_costs.uffd_round_trip +
                                 engine_->uffd_vcpu_block_extra());
}

TEST_F(PoliciesTest, ReapMonitorSkipsPreadChargeOnCacheMiss) {
  auto policy = RestorePolicy::Create(RestoreMode::kReap);
  Setup(policy.get());
  // Measure the demand read alone: the same 16-page initial readahead window
  // on the idle device, through the same router path the monitor's pread takes.
  SimTime t0 = sim_.now();
  engine_->EnsureFilePage(snapshot_.reap_ws.id, 0, /*charge_to_faults=*/false,
                          [](const Status& status, PageCache::PageState) {
                            EXPECT_TRUE(status.ok());
                          });
  sim_.Run();
  const Duration read_time = sim_.now() - t0;
  EXPECT_GT(read_time, Duration::Zero());
  // Miss: the device read *is* the monitor's pread wait; charging the
  // cached-copy cost on top would double-pay, so the fault costs exactly
  // read + round trip + vCPU block.
  t0 = sim_.now();
  FaultClass cls = FaultClass::kNoFault;
  engine_->set_access_observer([&](PageIndex, FaultClass c) { cls = c; });
  engine_->Access(800);
  sim_.Run();
  EXPECT_EQ(cls, FaultClass::kUffdHandled);
  EXPECT_EQ(sim_.now() - t0, read_time + config_.host_costs.uffd_round_trip +
                                 engine_->uffd_vcpu_block_extra());
}

TEST_F(PoliciesTest, FaasnapBuildsTheFigure4Hierarchy) {
  auto policy = RestorePolicy::Create(RestoreMode::kFaasnap);
  Setup(policy.get());
  // Zero page (never written): anonymous.
  EXPECT_EQ(space_.Resolve(600).kind, BackingKind::kAnonymous);
  // Released set (freed transient, sanitized to zero): anonymous.
  EXPECT_EQ(space_.Resolve(320).kind, BackingKind::kAnonymous);
  // Cold set (non-zero, outside the working set): the memory file.
  PageBacking cold = space_.Resolve(50);
  EXPECT_EQ(cold.kind, BackingKind::kFile);
  EXPECT_EQ(cold.file, snapshot_.memory_sanitized.id);
  EXPECT_EQ(cold.file_page, 50u);
  // Loading set (non-zero working set): the loading set file at recorded offsets.
  PageBacking load = space_.Resolve(120);
  EXPECT_EQ(load.kind, BackingKind::kFile);
  EXPECT_EQ(load.file, snapshot_.loading_set.id);
  EXPECT_EQ(load.file_page, 20u);  // region [100,150) at file offset 0
}

TEST_F(PoliciesTest, FaasnapPrefetchPlanIsOneSequentialRange) {
  auto policy = RestorePolicy::Create(RestoreMode::kFaasnap);
  std::vector<PrefetchItem> plan = policy->PrefetchPlan(env_);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].file, snapshot_.loading_set.id);
  EXPECT_EQ(plan[0].range, (PageRange{0, snapshot_.loading_set.total_pages.value()}));
}

TEST_F(PoliciesTest, ConcurrentOnlyPlansAddressOrderedWorkingSet) {
  auto policy = RestorePolicy::Create(RestoreMode::kFaasnapConcurrentOnly);
  Setup(policy.get());
  EXPECT_EQ(space_.mmap_call_count(), 1u);  // whole-file mapping, no per-region
  std::vector<PrefetchItem> plan = policy->PrefetchPlan(env_);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].file, snapshot_.memory_vanilla.id);
  EXPECT_LT(plan[0].range.first, plan[1].range.first);  // address order
}

TEST_F(PoliciesTest, PerRegionPlansGroupOrderedMemoryFileReads) {
  auto policy = RestorePolicy::Create(RestoreMode::kFaasnapPerRegion);
  Setup(policy.get());
  std::vector<PrefetchItem> plan = policy->PrefetchPlan(env_);
  // Only the non-zero loading region [100,150) exists ([300,350) is sanitized).
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].file, snapshot_.memory_sanitized.id);
  EXPECT_EQ(plan[0].range, (PageRange{100, 50}));
}

TEST_F(PoliciesTest, FaasnapUsesMoreMmapCallsThanFirecracker) {
  auto policy = RestorePolicy::Create(RestoreMode::kFaasnap);
  Setup(policy.get());
  // anon base + 1 sanitized non-zero region + 1 loading region = 3.
  EXPECT_EQ(space_.mmap_call_count(), 3u);
}

}  // namespace
}  // namespace faasnap
