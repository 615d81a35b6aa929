#include "src/mem/address_space.h"

#include <gtest/gtest.h>

namespace faasnap {
namespace {

constexpr FileId kMemFile = 1;
constexpr FileId kLoadFile = 2;

TEST(AddressSpace, StartsUnmappedAndNotPresent) {
  AddressSpace space(PageCount::FromPages(100));
  EXPECT_EQ(space.Resolve(0).kind, BackingKind::kUnmapped);
  EXPECT_EQ(space.Resolve(99).kind, BackingKind::kUnmapped);
  EXPECT_EQ(space.install_state(0), PageInstallState::kNotPresent);
  EXPECT_EQ(space.resident_pages().value(), 0u);
  EXPECT_EQ(space.mmap_call_count(), 0u);
}

TEST(AddressSpace, AnonymousBaseMapping) {
  AddressSpace space(PageCount::FromPages(100));
  space.Map({.guest = {0, 100}, .kind = BackingKind::kAnonymous});
  EXPECT_EQ(space.Resolve(0).kind, BackingKind::kAnonymous);
  EXPECT_EQ(space.Resolve(99).kind, BackingKind::kAnonymous);
  EXPECT_EQ(space.mmap_call_count(), 1u);
}

TEST(AddressSpace, FileMappingTracksOffsets) {
  AddressSpace space(PageCount::FromPages(100));
  space.Map({.guest = {10, 20}, .kind = BackingKind::kFile, .file = kMemFile, .file_start = 500});
  PageBacking b = space.Resolve(15);
  EXPECT_EQ(b.kind, BackingKind::kFile);
  EXPECT_EQ(b.file, kMemFile);
  EXPECT_EQ(b.file_page, 505u);
  EXPECT_EQ(space.Resolve(29).file_page, 519u);
}

// The Figure 4 hierarchy: anon base, memory-file regions on top, loading-set
// regions on top of those.
TEST(AddressSpace, HierarchicalOverlappingMappings) {
  AddressSpace space(PageCount::FromPages(1000));
  space.Map({.guest = {0, 1000}, .kind = BackingKind::kAnonymous});
  space.Map({.guest = {100, 300}, .kind = BackingKind::kFile, .file = kMemFile,
             .file_start = 100});
  space.Map({.guest = {150, 50}, .kind = BackingKind::kFile, .file = kLoadFile, .file_start = 0});

  EXPECT_EQ(space.Resolve(50).kind, BackingKind::kAnonymous);
  EXPECT_EQ(space.Resolve(120).file, kMemFile);
  EXPECT_EQ(space.Resolve(120).file_page, 120u);
  EXPECT_EQ(space.Resolve(160).file, kLoadFile);
  EXPECT_EQ(space.Resolve(160).file_page, 10u);
  // After the loading-set region, the memory-file layer resumes with the right offset.
  EXPECT_EQ(space.Resolve(200).file, kMemFile);
  EXPECT_EQ(space.Resolve(200).file_page, 200u);
  EXPECT_EQ(space.Resolve(399).file, kMemFile);
  EXPECT_EQ(space.Resolve(400).kind, BackingKind::kAnonymous);
  EXPECT_EQ(space.mmap_call_count(), 3u);
}

TEST(AddressSpace, OverlayCoveringMultipleRegions) {
  AddressSpace space(PageCount::FromPages(100));
  space.Map({.guest = {0, 10}, .kind = BackingKind::kFile, .file = kMemFile, .file_start = 0});
  space.Map({.guest = {10, 10}, .kind = BackingKind::kFile, .file = kLoadFile, .file_start = 0});
  space.Map({.guest = {20, 10}, .kind = BackingKind::kFile, .file = kMemFile, .file_start = 20});
  // One anon overlay wipes all three.
  space.Map({.guest = {0, 30}, .kind = BackingKind::kAnonymous});
  for (PageIndex p : {0u, 10u, 20u, 29u}) {
    EXPECT_EQ(space.Resolve(p).kind, BackingKind::kAnonymous) << p;
  }
}

TEST(AddressSpace, OverlayAtExactBoundaryPreservesNeighbors) {
  AddressSpace space(PageCount::FromPages(100));
  space.Map({.guest = {0, 100}, .kind = BackingKind::kFile, .file = kMemFile, .file_start = 0});
  space.Map({.guest = {40, 20}, .kind = BackingKind::kAnonymous});
  EXPECT_EQ(space.Resolve(39).file_page, 39u);
  EXPECT_EQ(space.Resolve(40).kind, BackingKind::kAnonymous);
  EXPECT_EQ(space.Resolve(59).kind, BackingKind::kAnonymous);
  EXPECT_EQ(space.Resolve(60).kind, BackingKind::kFile);
  EXPECT_EQ(space.Resolve(60).file_page, 60u);
}

TEST(AddressSpace, OverlayToEndOfSpace) {
  AddressSpace space(PageCount::FromPages(100));
  space.Map({.guest = {0, 100}, .kind = BackingKind::kAnonymous});
  space.Map({.guest = {90, 10}, .kind = BackingKind::kFile, .file = kMemFile, .file_start = 90});
  EXPECT_EQ(space.Resolve(99).file_page, 99u);
  EXPECT_EQ(space.Resolve(89).kind, BackingKind::kAnonymous);
}

TEST(AddressSpace, InstallStateTransitionsTrackResidency) {
  AddressSpace space(PageCount::FromPages(100));
  space.Map({.guest = {0, 100}, .kind = BackingKind::kAnonymous});
  space.SetInstallState(5, PageInstallState::kPresent);
  space.SetInstallState(6, PageInstallState::kSoftPresent);
  EXPECT_EQ(space.resident_pages().value(), 2u);
  space.SetInstallState(6, PageInstallState::kPresent);  // soft -> present: still resident
  EXPECT_EQ(space.resident_pages().value(), 2u);
  space.SetInstallState(5, PageInstallState::kNotPresent);
  EXPECT_EQ(space.resident_pages().value(), 1u);
}

TEST(AddressSpace, RangeInstall) {
  AddressSpace space(PageCount::FromPages(100));
  space.SetInstallState(PageRange{10, 30}, PageInstallState::kSoftPresent);
  EXPECT_EQ(space.resident_pages().value(), 30u);
  EXPECT_EQ(space.install_state(10), PageInstallState::kSoftPresent);
  EXPECT_EQ(space.install_state(39), PageInstallState::kSoftPresent);
  EXPECT_EQ(space.install_state(40), PageInstallState::kNotPresent);
}

TEST(AddressSpace, RangeInstallMatchesPerPageInstall) {
  AddressSpace by_range(PageCount::FromPages(200));
  AddressSpace by_page(PageCount::FromPages(200));
  // A non-trivial state sequence: overlapping ranges with up- and downgrades.
  const struct {
    PageRange range;
    PageInstallState state;
  } steps[] = {
      {{10, 50}, PageInstallState::kSoftPresent},
      {{30, 50}, PageInstallState::kPresent},
      {{0, 20}, PageInstallState::kPresent},
      {{15, 30}, PageInstallState::kNotPresent},
      {{100, 64}, PageInstallState::kSoftPresent},
  };
  for (const auto& step : steps) {
    by_range.SetInstallState(step.range, step.state);
    for (PageIndex p = step.range.first; p < step.range.end(); ++p) {
      by_page.SetInstallState(p, step.state);
    }
  }
  for (PageIndex p = 0; p < 200; ++p) {
    EXPECT_EQ(by_range.install_state(p), by_page.install_state(p)) << p;
  }
  EXPECT_EQ(by_range.resident_pages().value(), by_page.resident_pages().value());
}

TEST(AddressSpace, AllInState) {
  AddressSpace space(PageCount::FromPages(100));
  space.SetInstallState(PageRange{10, 20}, PageInstallState::kPresent);
  EXPECT_TRUE(space.AllInState(PageRange{10, 20}, PageInstallState::kPresent));
  EXPECT_TRUE(space.AllInState(PageRange{15, 5}, PageInstallState::kPresent));
  EXPECT_FALSE(space.AllInState(PageRange{9, 20}, PageInstallState::kPresent));
  EXPECT_TRUE(space.AllInState(PageRange{30, 70}, PageInstallState::kNotPresent));
}

TEST(AddressSpace, MappingRunFollowsOverlayBoundaries) {
  AddressSpace space(PageCount::FromPages(1000));
  space.Map({.guest = {0, 1000}, .kind = BackingKind::kAnonymous});
  space.Map({.guest = {100, 300}, .kind = BackingKind::kFile, .file = kMemFile,
             .file_start = 100});
  space.Map({.guest = {150, 50}, .kind = BackingKind::kFile, .file = kLoadFile, .file_start = 0});
  EXPECT_EQ(space.MappingRun(50), (PageRange{0, 100}));
  EXPECT_EQ(space.MappingRun(120), (PageRange{100, 50}));
  EXPECT_EQ(space.MappingRun(160), (PageRange{150, 50}));
  EXPECT_EQ(space.MappingRun(250), (PageRange{200, 200}));
  // The last run extends to the end of the space.
  EXPECT_EQ(space.MappingRun(900), (PageRange{400, 600}));
}

TEST(AddressSpace, HugeRegionStateTracking) {
  AddressSpace space(PageCount::FromPages(1200));
  space.ConfigureHugeRegions(PageCount::FromPages(512));
  EXPECT_EQ(space.huge_region_state(0), HugeRegionState::kNone);
  space.MarkHugeEligible(512);
  // Every page of the region sees its state.
  EXPECT_EQ(space.huge_region_state(512), HugeRegionState::kEligible);
  EXPECT_EQ(space.huge_region_state(1023), HugeRegionState::kEligible);
  EXPECT_EQ(space.huge_region_state(511), HugeRegionState::kNone);
  EXPECT_EQ(space.HugeRegionOf(700), (PageRange{512, 512}));
  // The trailing region is clamped at the guest end.
  EXPECT_EQ(space.HugeRegionOf(1100), (PageRange{1024, 176}));
  space.SetHugeRegionState(700, HugeRegionState::kInstalled);
  EXPECT_EQ(space.huge_region_state(513), HugeRegionState::kInstalled);
  // Reconfiguring clears all marks.
  space.ConfigureHugeRegions(PageCount::FromPages(256));
  EXPECT_EQ(space.huge_region_state(512), HugeRegionState::kNone);
  EXPECT_EQ(space.HugeRegionOf(700), (PageRange{512, 256}));
}

TEST(AddressSpace, ResidentAnonymousPages) {
  AddressSpace space(PageCount::FromPages(100));
  space.Map({.guest = {0, 50}, .kind = BackingKind::kAnonymous});
  space.Map({.guest = {50, 50}, .kind = BackingKind::kFile, .file = kMemFile, .file_start = 0});
  space.SetInstallState(PageRange{40, 20}, PageInstallState::kPresent);
  EXPECT_EQ(space.resident_pages().value(), 20u);
  EXPECT_EQ(space.resident_anonymous_pages().value(), 10u);  // pages 40-49 only
}

TEST(AddressSpaceDeathTest, OutOfBoundsAborts) {
  AddressSpace space(PageCount::FromPages(10));
  EXPECT_DEATH(space.Resolve(10), "FAASNAP_CHECK");
  EXPECT_DEATH(space.Map({.guest = {5, 10}, .kind = BackingKind::kAnonymous}), "FAASNAP_CHECK");
}

TEST(AddressSpaceDeathTest, OverlappingLayerAborts) {
  AddressSpace space(PageCount::FromPages(10));
  EXPECT_DEATH(space.MapLayer({{.guest = {6, 2}, .kind = BackingKind::kAnonymous},
                               {.guest = {2, 5}, .kind = BackingKind::kAnonymous}}),
               "FAASNAP_CHECK");
}

}  // namespace
}  // namespace faasnap
