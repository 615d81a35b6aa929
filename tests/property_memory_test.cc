// Randomized property tests for the memory subsystem: page cache, address space,
// and the fault engine driven by random workloads, each checked against simple
// oracles and global invariants.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/mem/fault_engine.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

// --- PageCache vs a per-page oracle under random operation interleavings. ---

class PageCachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageCachePropertyTest, MatchesOracleUnderRandomOps) {
  Rng rng(GetParam());
  PageCache cache;
  constexpr FileId kFiles = 3;
  constexpr uint64_t kPages = 128;
  // Oracle: 0=absent, 1=inflight, 2=present.
  std::map<std::pair<FileId, PageIndex>, int> oracle;
  struct Pending {
    PageCache::ReadHandle handle;
    FileId file;
    PageRange range;
  };
  std::vector<Pending> pending;
  int waiters_fired = 0;
  int waiters_registered = 0;

  for (int step = 0; step < 400; ++step) {
    const FileId file = 1 + static_cast<FileId>(rng.NextBelow(kFiles));
    const double action = rng.NextDouble();
    if (action < 0.35) {
      // Begin a read over currently-absent pages only (the loader contract).
      const PageIndex first = rng.NextBelow(kPages);
      const uint64_t count = 1 + rng.NextBelow(8);
      PageRange want{first, std::min<uint64_t>(count, kPages - first)};
      PageRangeSet missing = cache.AbsentIn(file, want);
      for (const PageRange& r : missing.ranges()) {
        Pending p{cache.BeginRead(file, r), file, r};
        for (PageIndex page = r.first; page < r.end(); ++page) {
          oracle[{file, page}] = 1;
        }
        // Sometimes register a waiter on an in-flight page.
        if (rng.NextBool(0.5)) {
          ++waiters_registered;
          cache.WaitFor(file, r.first, [&](const Status&) { ++waiters_fired; });
        }
        pending.push_back(p);
      }
    } else if (action < 0.7 && !pending.empty()) {
      // Complete a random pending read.
      const size_t idx = rng.NextBelow(pending.size());
      Pending p = pending[idx];
      pending.erase(pending.begin() + static_cast<long>(idx));
      cache.CompleteRead(p.handle);
      for (PageIndex page = p.range.first; page < p.range.end(); ++page) {
        oracle[{p.file, page}] = 2;
      }
    } else if (action < 0.85) {
      // Direct insert over absent pages (Cached preload).
      const PageIndex first = rng.NextBelow(kPages);
      PageRange want{first, std::min<uint64_t>(1 + rng.NextBelow(4), kPages - first)};
      PageRangeSet missing = cache.AbsentIn(file, want);
      for (const PageRange& r : missing.ranges()) {
        cache.Insert(file, r);
        for (PageIndex page = r.first; page < r.end(); ++page) {
          oracle[{file, page}] = 2;
        }
      }
    }
    // Spot-check a handful of random states every step.
    for (int probe = 0; probe < 5; ++probe) {
      const FileId f = 1 + static_cast<FileId>(rng.NextBelow(kFiles));
      const PageIndex page = rng.NextBelow(kPages);
      const int expected_state = oracle.count({f, page}) ? oracle[{f, page}] : 0;
      PageCache::PageState actual = cache.GetState(f, page);
      EXPECT_EQ(static_cast<int>(actual), expected_state)
          << "file " << f << " page " << page << " step " << step;
    }
  }
  // Drain: every pending read completes and every waiter fires exactly once.
  for (const Pending& p : pending) {
    cache.CompleteRead(p.handle);
  }
  EXPECT_EQ(waiters_fired, waiters_registered);
  // present_page_count matches the oracle.
  uint64_t expected_present = 0;
  for (const auto& [key, state] : oracle) {
    if (state >= 1) {  // everything in flight was completed above
      ++expected_present;
    }
  }
  EXPECT_EQ(cache.present_page_count(), expected_present);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCachePropertyTest, ::testing::Values(11, 22, 33, 44, 55));

// --- AddressSpace vs a per-page oracle under random MAP_FIXED overlays. ---

// Per-page oracle of the mapping layers. Runs are never coalesced: a Map puts a
// run start at its first page and at its end, and clears the starts strictly
// between them.
struct MappingOracle {
  explicit MappingOracle(uint64_t pages) : backing(pages), run_start(pages, false) {
    run_start[0] = true;
  }

  void Map(const MappingRequest& request) {
    const PageIndex lo = request.guest.first;
    const PageIndex hi = request.guest.end();
    for (PageIndex p = lo; p < hi; ++p) {
      backing[p] = request.kind == BackingKind::kFile
                       ? PageBacking{BackingKind::kFile, request.file,
                                     request.file_start + (p - lo)}
                       : PageBacking{request.kind, kInvalidFileId, 0};
      run_start[p] = p == lo;
    }
    if (hi < run_start.size()) {
      run_start[hi] = true;
    }
    ++calls;
  }

  PageRange RunOf(PageIndex page) const {
    PageIndex first = page;
    while (!run_start[first]) {
      --first;
    }
    PageIndex end = page + 1;
    while (end < run_start.size() && !run_start[end]) {
      ++end;
    }
    return PageRange{first, end - first};
  }

  std::vector<PageBacking> backing;  // default: unmapped
  std::vector<bool> run_start;
  uint64_t calls = 0;
};

MappingRequest RandomRequest(Rng& rng, PageRange guest) {
  if (rng.NextBool(0.4)) {
    return {.guest = guest, .kind = BackingKind::kAnonymous};
  }
  return {.guest = guest,
          .kind = BackingKind::kFile,
          .file = 1 + static_cast<FileId>(rng.NextBelow(4)),
          .file_start = rng.NextBelow(10000)};
}

// A layer of pairwise-disjoint requests (some abutting), in shuffled order.
std::vector<MappingRequest> RandomLayer(Rng& rng, uint64_t pages) {
  std::vector<MappingRequest> layer;
  PageIndex cursor = rng.NextBelow(16);
  while (cursor < pages && layer.size() < 24) {
    const uint64_t count = std::min<uint64_t>(1 + rng.NextBelow(40), pages - cursor);
    layer.push_back(RandomRequest(rng, PageRange{cursor, count}));
    cursor += count + (rng.NextBool(0.3) ? 0 : rng.NextBelow(60));
  }
  for (size_t i = layer.size(); i > 1; --i) {
    std::swap(layer[i - 1], layer[rng.NextBelow(i)]);
  }
  return layer;
}

void ExpectMatchesOracle(const AddressSpace& space, const MappingOracle& oracle, int step) {
  ASSERT_EQ(space.mmap_call_count(), oracle.calls) << "step " << step;
  for (PageIndex p = 0; p < oracle.backing.size(); ++p) {
    ASSERT_EQ(space.Resolve(p), oracle.backing[p]) << "page " << p << " step " << step;
    ASSERT_EQ(space.MappingRun(p), oracle.RunOf(p)) << "page " << p << " step " << step;
  }
}

class AddressSpacePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AddressSpacePropertyTest, LayeringMatchesPerPageOracle) {
  Rng rng(GetParam());
  constexpr uint64_t kPages = 512;
  AddressSpace space(PageCount::FromPages(kPages));
  MappingOracle oracle(kPages);

  for (int step = 0; step < 120; ++step) {
    if (rng.NextBool(0.25)) {
      // One layer through MapLayer: the oracle maps it one request at a time.
      const std::vector<MappingRequest> layer = RandomLayer(rng, kPages);
      space.MapLayer(layer);
      for (const MappingRequest& request : layer) {
        oracle.Map(request);
      }
    } else {
      const PageIndex first = rng.NextBelow(kPages);
      const uint64_t count = std::min<uint64_t>(1 + rng.NextBelow(64), kPages - first);
      const MappingRequest request = RandomRequest(rng, PageRange{first, count});
      space.Map(request);
      oracle.Map(request);
    }
    if (step % 10 == 9) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(space, oracle, step));
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(space, oracle, 120));
}

// The anonymous footprint reads per-block resident counts; both install forms
// keep them, and the guest size leaves a partial last block.
TEST_P(AddressSpacePropertyTest, AnonymousFootprintMatchesBruteForce) {
  Rng rng(GetParam() ^ 0xF007);
  constexpr uint64_t kPages = 1000;  // not a multiple of the 128-page block
  AddressSpace space(PageCount::FromPages(kPages));
  MappingOracle oracle(kPages);
  std::vector<PageInstallState> install(kPages, PageInstallState::kNotPresent);
  const auto random_state = [&rng] {
    return static_cast<PageInstallState>(rng.NextBelow(3));
  };

  for (int step = 0; step < 200; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.1) {
      const std::vector<MappingRequest> layer = RandomLayer(rng, kPages);
      space.MapLayer(layer);
      for (const MappingRequest& request : layer) {
        oracle.Map(request);
      }
    } else if (action < 0.2) {
      const PageIndex first = rng.NextBelow(kPages);
      const uint64_t count = std::min<uint64_t>(1 + rng.NextBelow(300), kPages - first);
      const MappingRequest request = RandomRequest(rng, PageRange{first, count});
      space.Map(request);
      oracle.Map(request);
    } else if (action < 0.6) {
      const PageIndex page = rng.NextBelow(kPages);
      const PageInstallState state = random_state();
      space.SetInstallState(page, state);
      install[page] = state;
    } else {
      const PageIndex first = rng.NextBelow(kPages);
      const uint64_t count = std::min<uint64_t>(1 + rng.NextBelow(260), kPages - first);
      const PageInstallState state = random_state();
      space.SetInstallState(PageRange{first, count}, state);
      for (PageIndex p = first; p < first + count; ++p) {
        install[p] = state;
      }
    }
    uint64_t resident = 0;
    uint64_t anonymous = 0;
    for (PageIndex p = 0; p < kPages; ++p) {
      if (install[p] != PageInstallState::kNotPresent) {
        ++resident;
        anonymous += oracle.backing[p].kind == BackingKind::kAnonymous ? 1 : 0;
      }
    }
    ASSERT_EQ(space.resident_pages().value(), resident) << "step " << step;
    ASSERT_EQ(space.resident_anonymous_pages().value(), anonymous) << "step " << step;
  }
  for (PageIndex p = 0; p < kPages; ++p) {
    ASSERT_EQ(space.install_state(p), install[p]) << "page " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressSpacePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// --- FaultEngine under a random access workload: global invariants. ---

class FaultEnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultEnginePropertyTest, RandomWorkloadInvariants) {
  Rng rng(GetParam());
  Simulation sim;
  PageCache cache;
  BlockDevice disk(&sim, TestDiskProfile());
  StorageRouter router;
  router.AddDevice(&disk);
  constexpr uint64_t kPages = 2048;
  AddressSpace space(PageCount::FromPages(kPages));
  ReadaheadPolicy readahead;
  FaultEngine engine(&sim, &cache, &router, &space, &readahead, [](FileId) { return PageCount::FromPages(kPages); });

  // Random layered mapping: anon base + a few file regions.
  space.Map({.guest = {0, kPages}, .kind = BackingKind::kAnonymous});
  for (int i = 0; i < 6; ++i) {
    const PageIndex first = rng.NextBelow(kPages - 128);
    space.Map({.guest = {first, 64 + rng.NextBelow(64)},
               .kind = BackingKind::kFile,
               .file = 1,
               .file_start = first});
  }

  int issued = 0;
  int retired = 0;
  bool in_access = false;
  engine.set_access_observer([&](PageIndex, FaultClass cls) {
    ++retired;
    if (!in_access) {
      EXPECT_NE(cls, FaultClass::kNoFault);  // async completions are real faults
    }
  });
  PageRangeSet accessed;
  for (int i = 0; i < 600; ++i) {
    const PageIndex page = rng.NextBelow(kPages);
    accessed.AddPage(page);
    ++issued;
    const int retired_before = retired;
    in_access = true;
    const bool sync = engine.Access(page);
    in_access = false;
    EXPECT_EQ(retired - retired_before, sync ? 1 : 0);  // a sync access retired in the call
    if (rng.NextBool(0.3)) {
      sim.Run();  // drain sometimes, letting IO interleave otherwise
    }
  }
  sim.Run();
  // Every access retired exactly once.
  EXPECT_EQ(retired, issued);
  // Every accessed page ended up installed.
  for (const PageRange& r : accessed.ranges()) {
    for (PageIndex p = r.first; p < r.end(); ++p) {
      EXPECT_EQ(space.install_state(p), PageInstallState::kPresent) << p;
    }
  }
  // Fault accounting balances. Note faults may slightly exceed the number of
  // distinct pages: two not-yet-resolved accesses to the same page each fault
  // (two vCPUs faulting the same page concurrently do in real KVM too).
  const FaultMetrics& m = engine.metrics();
  EXPECT_EQ(m.latency_histogram.total_count(), m.total_faults());
  EXPECT_LE(m.total_faults(), issued);
  EXPECT_GE(static_cast<uint64_t>(m.total_faults()) + 80, accessed.page_count());
  // Disk traffic attributed to faults matches the device totals (no other actor).
  EXPECT_EQ(m.fault_disk_bytes.value(), disk.stats().bytes_read);
  EXPECT_EQ(m.fault_disk_requests, disk.stats().read_requests);
  // Cache contains exactly what fault-path reads brought in: every file-backed
  // accessed page must now be present in the cache.
  for (const PageRange& r : accessed.ranges()) {
    for (PageIndex p = r.first; p < r.end(); ++p) {
      if (space.Resolve(p).kind == BackingKind::kFile) {
        EXPECT_TRUE(cache.IsPresent(1, space.Resolve(p).file_page)) << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultEnginePropertyTest,
                         ::testing::Values(7, 14, 21, 28, 35, 42, 49));

}  // namespace
}  // namespace faasnap
