#include "src/core/prefetch_loader.h"

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

constexpr FileId kFile = 1;

class PrefetchLoaderTest : public ::testing::Test {
 protected:
  PrefetchLoaderTest() : disk_(&sim_, TestDiskProfile()) { router_.AddDevice(&disk_); }

  Simulation sim_;
  PageCache cache_;
  BlockDevice disk_;
  StorageRouter router_;
};

TEST_F(PrefetchLoaderTest, LoadsAllPagesIntoCache) {
  PrefetchLoader loader(&sim_, &cache_, &router_, {.chunk_pages = PageCount::FromPages(64), .pipeline_depth = 2});
  bool done = false;
  loader.Start({{kFile, {0, 256}}}, [&] { done = true; });
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(loader.finished());
  EXPECT_EQ(cache_.PresentPages(kFile).page_count(), 256u);
  EXPECT_EQ(loader.fetched_bytes().value(), 256 * kPageSize);
  EXPECT_EQ(loader.skipped_pages().value(), 0u);
  EXPECT_GT(loader.fetch_time(), Duration::Zero());
}

TEST_F(PrefetchLoaderTest, SkipsAlreadyCachedPages) {
  cache_.Insert(kFile, PageRange{0, 128});
  PrefetchLoader loader(&sim_, &cache_, &router_, {.chunk_pages = PageCount::FromPages(64), .pipeline_depth = 2});
  loader.Start({{kFile, {0, 256}}}, [] {});
  sim_.Run();
  EXPECT_EQ(loader.fetched_bytes().value(), 128 * kPageSize);
  EXPECT_EQ(loader.skipped_pages().value(), 128u);
  EXPECT_EQ(cache_.PresentPages(kFile).page_count(), 256u);
}

TEST_F(PrefetchLoaderTest, TwoLoadersDedupeThroughTheCache) {
  // The bursty same-snapshot case (section 6.6): the loading set is read from disk
  // exactly once even with concurrent loaders.
  PrefetchLoader a(&sim_, &cache_, &router_, {.chunk_pages = PageCount::FromPages(64), .pipeline_depth = 2});
  PrefetchLoader b(&sim_, &cache_, &router_, {.chunk_pages = PageCount::FromPages(64), .pipeline_depth = 2});
  int finished = 0;
  a.Start({{kFile, {0, 512}}}, [&] { ++finished; });
  b.Start({{kFile, {0, 512}}}, [&] { ++finished; });
  sim_.Run();
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(a.fetched_bytes().value() + b.fetched_bytes().value(), 512 * kPageSize);
  EXPECT_EQ(disk_.stats().bytes_read, 512 * kPageSize);
}

TEST_F(PrefetchLoaderTest, PipelinedChunksApproachFullBandwidth) {
  // 64 MiB sequential with pipeline depth 4: wall clock should be close to the
  // bandwidth bound (64 MiB at 1 GB/s ~= 67 ms), far below the serial-read bound.
  PrefetchLoader loader(&sim_, &cache_, &router_, {.chunk_pages = PageCount::FromPages(512), .pipeline_depth = 4});
  loader.Start({{kFile, {0, 16384}}}, [] {});
  sim_.Run();
  const double seconds = loader.fetch_time().seconds();
  EXPECT_LT(seconds, 0.075);
  EXPECT_GT(seconds, 0.065);
}

TEST_F(PrefetchLoaderTest, AdaptiveDepthHalvesUnderDemandPressureAndRampsBack) {
  // While demand reads are queued or in service at the router, each pipeline
  // refill halves the effective depth (down to the floor); once the device has
  // been quiet for depth_ramp_quiet it doubles back toward the configured depth.
  PrefetchLoader loader(&sim_, &cache_, &router_,
                        {.chunk_pages = PageCount::FromPages(64),
                         .pipeline_depth = 4,
                         .adaptive_depth = true,
                         .min_pipeline_depth = 1,
                         .depth_ramp_quiet = Duration::Micros(500)});
  // A closed demand-fault chain on another file keeps pressure > 0 early on.
  constexpr FileId kOther = 2;
  int demand_left = 12;
  std::function<void(Status)> demand_chain = [&](Status) {
    if (--demand_left > 0) {
      router_.ReadWithStatus(kOther, static_cast<uint64_t>(demand_left) * kPageSize, kPageSize,
                             demand_chain, kNoSpan, ReadClass::kDemand);
    }
  };
  router_.ReadWithStatus(kOther, 0, kPageSize, demand_chain, kNoSpan, ReadClass::kDemand);
  int min_seen = 4;
  sim_.ScheduleAfter(Duration::Micros(400), [&] { min_seen = loader.current_depth(); });
  loader.Start({{kFile, {0, 4096}}}, [] {});
  sim_.Run();
  // Pressure was live during the load: the pipeline backed off...
  EXPECT_LT(min_seen, 4);
  // ...and with the demand chain long gone before the 16 MiB load finished,
  // quiet intervals ramped it back to the configured depth.
  EXPECT_EQ(loader.current_depth(), 4);
  EXPECT_EQ(cache_.PresentPages(kFile).page_count(), 4096u);
}

TEST_F(PrefetchLoaderTest, AdaptiveDepthOffKeepsConfiguredDepth) {
  PrefetchLoader loader(&sim_, &cache_, &router_,
                        {.chunk_pages = PageCount::FromPages(64), .pipeline_depth = 4, .adaptive_depth = false});
  router_.ReadWithStatus(kFile, MiB(512).value(), kPageSize, [](Status) {}, kNoSpan,
                         ReadClass::kDemand);
  loader.Start({{kFile, {0, 1024}}}, [] {});
  sim_.Run();
  EXPECT_EQ(loader.current_depth(), 4);
}

TEST_F(PrefetchLoaderTest, MultipleItemsLoadInOrder) {
  // Group-ordered loading: earlier items should complete no later than later ones.
  PrefetchLoader loader(&sim_, &cache_, &router_, {.chunk_pages = PageCount::FromPages(32), .pipeline_depth = 1});
  std::vector<PrefetchItem> items = {{kFile, {1000, 32}}, {kFile, {0, 32}}, {kFile, {500, 32}}};
  SimTime first_done;
  sim_.ScheduleAfter(Duration::Micros(200), [&] {
    // Early in the load, the first item's pages should already be in flight or
    // present while the last item's are still absent.
    EXPECT_NE(cache_.GetState(kFile, 1000), PageCache::PageState::kAbsent);
    EXPECT_EQ(cache_.GetState(kFile, 500), PageCache::PageState::kAbsent);
    first_done = sim_.now();
  });
  loader.Start(items, [] {});
  sim_.Run();
  EXPECT_EQ(cache_.PresentPages(kFile).page_count(), 96u);
}

TEST_F(PrefetchLoaderTest, EmptyPlanFinishesInstantly) {
  PrefetchLoader loader(&sim_, &cache_, &router_);
  bool done = false;
  loader.Start({}, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_TRUE(loader.finished());
  EXPECT_EQ(loader.fetch_time(), Duration::Zero());
}

TEST_F(PrefetchLoaderTest, WaitersOnInFlightLoaderPagesAreWoken) {
  PrefetchLoader loader(&sim_, &cache_, &router_, {.chunk_pages = PageCount::FromPages(256), .pipeline_depth = 1});
  loader.Start({{kFile, {0, 256}}}, [] {});
  // While the read is in flight, a faulting VM can wait on it.
  EXPECT_EQ(cache_.GetState(kFile, 100), PageCache::PageState::kInFlight);
  bool woken = false;
  cache_.WaitFor(kFile, 100, [&](const Status&) { woken = true; });
  sim_.Run();
  EXPECT_TRUE(woken);
}

TEST_F(PrefetchLoaderTest, StartTwiceAborts) {
  PrefetchLoader loader(&sim_, &cache_, &router_);
  loader.Start({}, [] {});
  EXPECT_DEATH(loader.Start({}, [] {}), "FAASNAP_CHECK");
}

}  // namespace
}  // namespace faasnap
