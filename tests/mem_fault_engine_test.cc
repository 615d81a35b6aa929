#include "src/mem/fault_engine.h"

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/obs/metrics_registry.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

constexpr FileId kMemFile = 1;
constexpr uint64_t kSpacePages = 4096;
constexpr PageCount kFilePages = PageCount::FromPages(4096);

// Counts the engine's calls back into the guest after evented retires.
class CountingGuest : public FaultGuest {
 public:
  void Resume() override { ++resumed; }
  void Fail(const Status&) override { ++failed; }

  int resumed = 0;
  int failed = 0;
};

class FaultEngineTest : public ::testing::Test {
 protected:
  FaultEngineTest() : disk_(&sim_, TestDiskProfile()), space_(PageCount::FromPages(kSpacePages)) {
    router_.AddDevice(&disk_);
    HostCostModel costs;
    costs.cost_dispersion = false;  // exact-cost assertions below
    engine_ = std::make_unique<FaultEngine>(&sim_, &cache_, &router_, &space_, &readahead_,
                                            [](FileId) { return kFilePages; }, costs);
  }

  // Runs one access to completion and returns (class, elapsed guest time).
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

TEST_F(FaultEngineTest, PresentPageIsSynchronousNoFault) {
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kAnonymous});
  space_.SetInstallState(7, PageInstallState::kPresent);
  CountingGuest guest;
  engine_->set_guest(&guest);
  EXPECT_TRUE(engine_->Access(7));
  sim_.Run();
  EXPECT_EQ(guest.resumed, 0);  // a synchronous retire never comes back through an event
  EXPECT_EQ(engine_->metrics().count(FaultClass::kNoFault), 1);
  EXPECT_EQ(engine_->metrics().total_faults(), 0);
}

TEST_F(FaultEngineTest, AnonymousFaultCostsAnonLatency) {
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kAnonymous});
  auto [cls, elapsed] = AccessAndWait(5);
  EXPECT_EQ(cls, FaultClass::kAnonymous);
  EXPECT_EQ(elapsed, engine_->costs().anonymous_fault);
  EXPECT_EQ(space_.install_state(5), PageInstallState::kPresent);
  // Second access is free.
  EXPECT_TRUE(engine_->Access(5));
}

TEST_F(FaultEngineTest, MinorFaultServedFromPageCache) {
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  cache_.Insert(kMemFile, PageRange{0, kFilePages.value()});
  auto [cls, elapsed] = AccessAndWait(100);
  EXPECT_EQ(cls, FaultClass::kMinor);
  EXPECT_EQ(elapsed, engine_->costs().minor_fault);
  EXPECT_EQ(engine_->metrics().fault_disk_requests, 0u);
}

TEST_F(FaultEngineTest, MajorFaultReadsFromDiskWithReadahead) {
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  auto [cls, elapsed] = AccessAndWait(100);
  EXPECT_EQ(cls, FaultClass::kMajor);
  // Blocking small read on the test disk ~54 us plus overheads: clearly "major".
  EXPECT_GT(elapsed, Duration::Micros(32));
  EXPECT_EQ(engine_->metrics().fault_disk_requests, 1u);
  // Readahead pulled the initial window (16 pages) into the cache.
  EXPECT_EQ(engine_->metrics().fault_disk_bytes.value(), 16 * kPageSize);
  EXPECT_TRUE(cache_.IsPresent(kMemFile, 100));
  EXPECT_TRUE(cache_.IsPresent(kMemFile, 115));
  EXPECT_FALSE(cache_.IsPresent(kMemFile, 116));
  // Neighboring page now minor-faults.
  auto [cls2, elapsed2] = AccessAndWait(101);
  EXPECT_EQ(cls2, FaultClass::kMinor);
  EXPECT_EQ(elapsed2, engine_->costs().minor_fault);
}

TEST_F(FaultEngineTest, FaultOnInFlightPageWaitsInsteadOfRereading) {
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  // A loader-style read is already in flight for pages [100, 200).
  auto handle = cache_.BeginRead(kMemFile, PageRange{100, 100});
  disk_.Read(100 * kPageSize, 100 * kPageSize, {}, [&](Status) { cache_.CompleteRead(handle); });
  auto [cls, elapsed] = AccessAndWait(150);
  EXPECT_EQ(cls, FaultClass::kInFlightWait);
  // The fault did not issue its own disk request.
  EXPECT_EQ(engine_->metrics().fault_disk_requests, 0u);
  EXPECT_EQ(disk_.stats().read_requests, 1u);
  EXPECT_GT(elapsed, Duration::Zero());
}

TEST_F(FaultEngineTest, SoftPresentPageTakesCheapPreinstalledFault) {
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  space_.SetInstallState(42, PageInstallState::kSoftPresent);
  auto [cls, elapsed] = AccessAndWait(42);
  EXPECT_EQ(cls, FaultClass::kUffdPreinstalled);
  EXPECT_EQ(elapsed, engine_->costs().uffd_preinstalled_fault);
  EXPECT_EQ(space_.install_state(42), PageInstallState::kPresent);
}

class FakeUffdHandler : public UffdHandler {
 public:
  FakeUffdHandler(Simulation* sim, Duration delay) : sim_(sim), delay_(delay) {}
  void HandleFault(PageIndex guest_page,
                   std::function<void(const Status&, PageRange)> done) override {
    pages.push_back(guest_page);
    sim_->ScheduleAfter(delay_, [guest_page, done = std::move(done)] {
      done(OkStatus(), PageRange{guest_page, 1});
    });
  }
  std::vector<PageIndex> pages;

 private:
  Simulation* sim_;
  Duration delay_;
};

TEST_F(FaultEngineTest, UffdRegionFaultsGoToHandler) {
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  FakeUffdHandler handler(&sim_, Duration::Micros(10));
  PageRangeSet region;
  region.Add(0, kSpacePages);
  engine_->RegisterUffd(region, &handler);
  auto [cls, elapsed] = AccessAndWait(33);
  EXPECT_EQ(cls, FaultClass::kUffdHandled);
  ASSERT_EQ(handler.pages.size(), 1u);
  EXPECT_EQ(handler.pages[0], 33u);
  // Guest-visible time = handler delay + uffd round trip + vCPU-block penalty.
  EXPECT_EQ(elapsed, Duration::Micros(10) + engine_->costs().uffd_round_trip +
                         engine_->uffd_vcpu_block_extra());
  // The histogram records handling only (no vCPU-block extra).
  EXPECT_EQ(engine_->metrics().total_fault_time,
            Duration::Micros(10) + engine_->costs().uffd_round_trip);
  EXPECT_EQ(engine_->metrics().total_wait_time, elapsed);
}

TEST_F(FaultEngineTest, UffdDoesNotInterceptSoftPresentPages) {
  space_.Map({.guest = {0, kSpacePages}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 0});
  FakeUffdHandler handler(&sim_, Duration::Micros(10));
  PageRangeSet region;
  region.Add(0, kSpacePages);
  engine_->RegisterUffd(region, &handler);
  space_.SetInstallState(9, PageInstallState::kSoftPresent);
  auto [cls, elapsed] = AccessAndWait(9);
  EXPECT_EQ(cls, FaultClass::kUffdPreinstalled);
  EXPECT_TRUE(handler.pages.empty());
}

TEST_F(FaultEngineTest, EnsureFilePagePresentIsImmediate) {
  cache_.Insert(kMemFile, PageRange{0, 10});
  bool called = false;
  engine_->EnsureFilePage(kMemFile, 5, /*charge_to_faults=*/false,
                         [&](const Status& status, PageCache::PageState s) {
                           called = true;
                           EXPECT_TRUE(status.ok());
                           EXPECT_EQ(s, PageCache::PageState::kPresent);
                         });
  EXPECT_TRUE(called);
}

TEST_F(FaultEngineTest, EnsureFilePageMissChargesOnlyWhenAsked) {
  bool done1 = false;
  engine_->EnsureFilePage(kMemFile, 0, /*charge_to_faults=*/false,
                         [&](const Status&, PageCache::PageState) { done1 = true; });
  sim_.Run();
  EXPECT_TRUE(done1);
  EXPECT_EQ(engine_->metrics().fault_disk_requests, 0u);
  EXPECT_EQ(disk_.stats().read_requests, 1u);
}

TEST_F(FaultEngineTest, MetricsAccumulateAcrossClasses) {
  space_.Map({.guest = {0, 100}, .kind = BackingKind::kAnonymous});
  space_.Map({.guest = {100, 100}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 100});
  cache_.Insert(kMemFile, PageRange{100, 50});
  AccessAndWait(1);    // anonymous
  AccessAndWait(110);  // minor
  AccessAndWait(180);  // major
  const FaultMetrics& m = engine_->metrics();
  EXPECT_EQ(m.count(FaultClass::kAnonymous), 1);
  EXPECT_EQ(m.count(FaultClass::kMinor), 1);
  EXPECT_EQ(m.count(FaultClass::kMajor), 1);
  EXPECT_EQ(m.total_faults(), 3);
  EXPECT_EQ(m.latency_histogram.total_count(), 3);
  EXPECT_GT(m.total_fault_time, Duration::Micros(32));
}

// With a registry attached, AccessRun adds the present pages it passed to the
// no-fault counter before it returns, at every kind of stop: a burst that
// cannot end in line, an evented fixed-cost retire, a file fault, a uffd fault
// and the end of the run.
TEST_F(FaultEngineTest, NoFaultCounterTakesThePresentPagesAtEveryStop) {
  space_.Map({.guest = {0, 100}, .kind = BackingKind::kAnonymous});
  space_.Map({.guest = {100, 100}, .kind = BackingKind::kFile, .file = kMemFile,
              .file_start = 100});
  MetricsRegistry registry;
  engine_->set_observability(nullptr, &registry);
  const Counter* no_faults = registry.GetCounter("faults.by_class", {{"class", "no-fault"}});
  CountingGuest guest;
  engine_->set_guest(&guest);
  // Runs `pages`, whose first `present` pages are installed, with `burst`
  // before every page but the first.
  const auto run = [&](PageRange pages, uint64_t present, Duration burst,
                       FaultEngine::RunStop stop) {
    space_.SetInstallState(PageRange{pages.first, present}, PageInstallState::kPresent);
    uint64_t next = 0;
    FaultEngine::RunLookups lookups;
    const int64_t before = no_faults->Get();
    EXPECT_EQ(engine_->AccessRun(pages, &next, burst, /*burst_ended=*/true,
                                 /*may_advance=*/false, &lookups),
              stop)
        << pages.first;
    EXPECT_EQ(no_faults->Get() - before, static_cast<int64_t>(present)) << pages.first;
    sim_.Run();
  };
  run({0, 2}, 1, Duration::Micros(1), FaultEngine::RunStop::kBurst);
  run({10, 3}, 2, Duration::Zero(), FaultEngine::RunStop::kFault);   // anonymous, evented
  run({110, 4}, 3, Duration::Zero(), FaultEngine::RunStop::kFault);  // major
  run({20, 4}, 4, Duration::Zero(), FaultEngine::RunStop::kDone);
  FakeUffdHandler handler(&sim_, Duration::Micros(10));
  PageRangeSet region;
  region.Add(50, 50);
  engine_->RegisterUffd(region, &handler);
  run({47, 4}, 3, Duration::Zero(), FaultEngine::RunStop::kFault);
  EXPECT_EQ(handler.pages, std::vector<PageIndex>{50});
  EXPECT_EQ(guest.resumed, 3);
  EXPECT_EQ(no_faults->Get(), engine_->metrics().count(FaultClass::kNoFault));
}

TEST_F(FaultEngineTest, UnmappedAccessAborts) {
  EXPECT_DEATH(
      {
        engine_->Access(0);
        sim_.Run();
      },
      "unmapped");
}

}  // namespace
}  // namespace faasnap
