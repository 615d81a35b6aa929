// Scheduler invariants for the two-class block-device request queue:
// demand-over-prefetch priority, the prefetch aging (anti-starvation) bound,
// same-class request coalescing, deterministic completion order per seed,
// chaos interplay (failed requests release their slot), and mid-flight stats
// reset consistency.

#include "src/storage/block_device.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/common/units.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

DeviceReadOptions Demand(uint64_t stream = 1) {
  return DeviceReadOptions{ReadClass::kDemand, stream, kNoSpan};
}

DeviceReadOptions Prefetch(uint64_t stream = 2) {
  return DeviceReadOptions{ReadClass::kPrefetch, stream, kNoSpan};
}

TEST(DiskScheduler, DemandJumpsQueuedPrefetch) {
  // One slot: a prefetch read in service, one queued. A demand read arriving
  // last still dispatches before the queued prefetch.
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 1;
  BlockDevice disk(&sim, profile);
  std::vector<std::string> order;
  disk.Read(0, KiB(256).value(), Prefetch(), [&](Status s) {
    ASSERT_TRUE(s.ok());
    order.push_back("prefetch-0");
  });
  disk.Read(MiB(8).value(), KiB(256).value(), Prefetch(), [&](Status s) {
    ASSERT_TRUE(s.ok());
    order.push_back("prefetch-1");
  });
  disk.Read(MiB(16).value(), kPageSize, Demand(), [&](Status s) {
    ASSERT_TRUE(s.ok());
    order.push_back("demand");
  });
  sim.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "prefetch-0");
  EXPECT_EQ(order[1], "demand");
  EXPECT_EQ(order[2], "prefetch-1");
  EXPECT_EQ(disk.stats().demand_requests, 1u);
  EXPECT_EQ(disk.stats().prefetch_requests, 2u);
  EXPECT_EQ(disk.stats().aged_promotions, 0u);
}

TEST(DiskScheduler, AgedPrefetchBeatsDemand) {
  // Shrink the aging bound below the in-service read's completion time: the
  // queued prefetch ages out and dispatches ahead of the waiting demand read.
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 1;
  profile.sched.prefetch_aging_bound = Duration::Micros(100);
  BlockDevice disk(&sim, profile);
  std::vector<std::string> order;
  disk.Read(0, KiB(256).value(), Prefetch(), [&](Status) { order.push_back("prefetch-0"); });
  disk.Read(MiB(8).value(), KiB(256).value(), Prefetch(), [&](Status) { order.push_back("prefetch-1"); });
  disk.Read(MiB(16).value(), kPageSize, Demand(), [&](Status) { order.push_back("demand"); });
  sim.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], "prefetch-1");
  EXPECT_EQ(order[2], "demand");
  EXPECT_EQ(disk.stats().aged_promotions, 1u);
}

TEST(DiskScheduler, AgedBacklogDoesNotStarveDemand) {
  // Once queued prefetch is older than the aging bound, every entry in the
  // backlog is "aged" — promotions must alternate with demand instead of
  // letting the whole backlog drain first.
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 1;
  profile.sched.prefetch_aging_bound = Duration::Micros(10);
  profile.sched.max_merge_bytes = ByteCount::Zero();  // keep the five prefetch reads distinct
  BlockDevice disk(&sim, profile);
  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) {
    disk.Read(static_cast<uint64_t>(i) * MiB(8).value(), KiB(256).value(), Prefetch(),
              [&order, i](Status) { order.push_back("prefetch-" + std::to_string(i)); });
  }
  disk.Read(MiB(64).value(), kPageSize, Demand(), [&](Status) { order.push_back("demand"); });
  sim.Run();
  ASSERT_EQ(order.size(), 6u);
  // prefetch-0 was in service; prefetch-1 wins the first contested slot by age;
  // the slot after that is owed to demand, which jumps the rest of the backlog.
  EXPECT_EQ(order[1], "prefetch-1");
  EXPECT_EQ(order[2], "demand");
  EXPECT_EQ(disk.stats().aged_promotions, 1u);
}

TEST(DiskScheduler, PrefetchSlotCapLeavesRoomForDemand) {
  // prefetch_slots caps the device slots prefetch may occupy, so a demand
  // fault dispatches into a free slot immediately and rides behind only the
  // capped in-service prefetch claims — not the whole train, as FIFO would.
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 4;
  profile.sched.prefetch_slots = 2;
  profile.sched.max_merge_bytes = ByteCount::Zero();
  BlockDevice disk(&sim, profile);
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    disk.Read(static_cast<uint64_t>(i) * MiB(8).value(), KiB(256).value(), Prefetch(),
              [&order, i](Status) { order.push_back("prefetch-" + std::to_string(i)); });
  }
  EXPECT_EQ(disk.in_service(ReadClass::kPrefetch), 2);
  EXPECT_EQ(disk.queued(ReadClass::kPrefetch), 2);
  disk.Read(MiB(64).value(), kPageSize, Demand(), [&](Status) { order.push_back("demand"); });
  EXPECT_EQ(disk.in_service(ReadClass::kDemand), 1);
  sim.Run();
  ASSERT_EQ(order.size(), 5u);
  // Bandwidth claims of the two in-service 256 KiB reads precede the demand
  // read's, so it completes third; the two queued prefetch reads come last.
  EXPECT_EQ(order[2], "demand");
}

TEST(DiskScheduler, PrefetchWaitNeverExceedsAgingBoundPlusService) {
  // Property: under a saturating demand stream, a queued prefetch read waits at
  // most the aging bound plus the drain of requests already holding slots.
  // Holds across seeds (jitter on) because aging is checked at every dispatch.
  for (uint64_t seed : {1u, 7u, 13u, 29u, 71u}) {
    Simulation sim;
    BlockDeviceProfile profile = TestDiskProfile();
    profile.jitter = 0.1;
    profile.sched.queue_depth = 2;
    const Duration aging = profile.sched.prefetch_aging_bound;
    BlockDevice disk(&sim, profile, seed);

    // Closed demand loop: 8 outstanding, 800 total — the demand queue never
    // empties while the prefetch reads are waiting.
    int issued = 0;
    std::function<void(Status)> demand_done = [&](Status) {
      if (issued < 800) {
        ++issued;
        disk.Read(static_cast<uint64_t>(issued) * kPageSize, kPageSize, Demand(),
                  demand_done);
      }
    };
    for (; issued < 8; ++issued) {
      disk.Read(static_cast<uint64_t>(issued) * kPageSize, kPageSize, Demand(), demand_done);
    }
    int prefetch_done = 0;
    for (int i = 0; i < 4; ++i) {
      disk.Read(MiB(64).value() + static_cast<uint64_t>(i) * MiB(8).value(), KiB(64).value(), Prefetch(),
                [&](Status) { ++prefetch_done; });
    }
    sim.Run();
    EXPECT_EQ(prefetch_done, 4);
    // Worst case: the head prefetch becomes eligible at the aging bound, then
    // waits for the next free slot — bounded by every slot draining a max-size
    // (here 64 KiB) request. Generous slack for jitter.
    const uint64_t slack = 2u * (64 * 1024 + 50000 + 4000) * 2;
    EXPECT_LE(disk.stats().max_prefetch_wait_ns.nanos(),
              aging.nanos() + static_cast<int64_t>(slack))
        << "seed " << seed;
    EXPECT_GT(disk.stats().aged_promotions, 0u) << "seed " << seed;
  }
}

// Mixed two-class workload capturing per-completion (label, time) pairs.
std::vector<std::string> RunMixedScenario(uint64_t seed) {
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.jitter = 0.1;
  profile.sched.queue_depth = 2;
  BlockDevice disk(&sim, profile, seed);
  std::vector<std::string> completions;
  auto record = [&](const char* label) {
    return [&completions, label, &sim](Status) {
      completions.push_back(std::string(label) + "@" + std::to_string(sim.now().nanos()));
    };
  };
  for (int i = 0; i < 24; ++i) {
    disk.Read(static_cast<uint64_t>(i) * MiB(1).value(), KiB(32).value(), Prefetch(), record("p"));
    if (i % 3 == 0) {
      disk.Read(MiB(512).value() + static_cast<uint64_t>(i) * kPageSize, kPageSize, Demand(),
                record("d"));
    }
  }
  sim.Run();
  return completions;
}

TEST(DiskScheduler, CompletionOrderIsDeterministicPerSeed) {
  EXPECT_EQ(RunMixedScenario(7), RunMixedScenario(7));
  EXPECT_NE(RunMixedScenario(7), RunMixedScenario(8));
}

TEST(DiskScheduler, AdjacentSameClassRequestsMerge) {
  // With one slot busy, four contiguous same-stream prefetch reads queue up and
  // dispatch as a single device request (3 merged); an offset-adjacent read
  // from a different stream stays separate.
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 1;
  BlockDevice disk(&sim, profile);
  disk.Read(MiB(64).value(), KiB(256).value(), Prefetch(/*stream=*/9), [](Status) {});
  std::vector<int64_t> merged_times;
  for (int i = 0; i < 4; ++i) {
    disk.Read(static_cast<uint64_t>(i) * kPageSize, kPageSize, Prefetch(/*stream=*/1),
              [&](Status) { merged_times.push_back(sim.now().nanos()); });
  }
  SimTime other_stream_done;
  disk.Read(4 * kPageSize, kPageSize, Prefetch(/*stream=*/2),
            [&](Status) { other_stream_done = sim.now(); });
  sim.Run();
  EXPECT_EQ(disk.stats().merged_requests, 3u);
  ASSERT_EQ(merged_times.size(), 4u);
  EXPECT_EQ(merged_times[0], merged_times[3]);  // one device request, one completion
  EXPECT_GT(other_stream_done.nanos(), merged_times[0]);
  EXPECT_EQ(disk.stats().read_requests, 6u);  // constituents stay caller-visible
}

TEST(DiskScheduler, MergeRespectsByteCap) {
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 1;
  profile.sched.max_merge_bytes = ByteCount::FromBytes(2 * kPageSize);
  BlockDevice disk(&sim, profile);
  disk.Read(MiB(64).value(), KiB(256).value(), Prefetch(9), [](Status) {});
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    disk.Read(static_cast<uint64_t>(i) * kPageSize, kPageSize, Prefetch(1),
              [&](Status) { ++done; });
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  // Two device requests of two pages each: 2 merged constituents total.
  EXPECT_EQ(disk.stats().merged_requests, 2u);
}

TEST(DiskScheduler, FailedReadsReleaseQueueSlots) {
  // Every read fails, at queue depth 2 with a deep backlog: the scheduler must
  // keep draining (failed requests release their slot at completion), every
  // callback must fire exactly once, and no live state may leak.
  Simulation sim;
  ChaosConfig chaos;
  chaos.enabled = true;
  chaos.read_error_rate = 1.0;
  FaultInjector injector(&sim, chaos);
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 2;
  BlockDevice disk(&sim, profile);
  disk.set_fault_injector(&injector, /*device_ordinal=*/0);
  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    const DeviceReadOptions opts = i % 2 == 0 ? Demand() : Prefetch();
    disk.Read(static_cast<uint64_t>(i) * MiB(1).value(), kPageSize, opts, [&](Status s) {
      EXPECT_FALSE(s.ok());
      ++failures;
    });
  }
  sim.Run();
  EXPECT_EQ(failures, 40);
  EXPECT_EQ(disk.stats().failed_requests, 40u);
  EXPECT_EQ(disk.stats().bytes_read, 0u);
  EXPECT_EQ(disk.demand_pressure(), 0);
  EXPECT_EQ(disk.queued(ReadClass::kPrefetch), 0);
  EXPECT_EQ(disk.in_service(ReadClass::kPrefetch), 0);
}

TEST(DiskScheduler, ResetStatsMidFlightKeepsLiveStateConsistent) {
  // Reset clears counters and watermarks only; queued/in-service requests keep
  // draining and post-reset dispatches account from zero.
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 1;
  BlockDevice disk(&sim, profile);
  int done = 0;
  disk.Read(0, kPageSize, Demand(), [&](Status) { ++done; });          // dispatches at t=0
  disk.Read(MiB(1).value(), kPageSize, Demand(), [&](Status) { ++done; });     // queued
  sim.RunUntil(SimTime() + Duration::Micros(10));
  EXPECT_EQ(disk.stats().read_requests, 1u);  // only the dispatched read counted
  disk.ResetStats();
  EXPECT_EQ(disk.stats().read_requests, 0u);
  EXPECT_EQ(disk.demand_pressure(), 2);  // live state survives the reset
  sim.Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(disk.demand_pressure(), 0);
  // Only the read dispatched after the reset is in the fresh counters.
  EXPECT_EQ(disk.stats().read_requests, 1u);
  EXPECT_EQ(disk.stats().bytes_read, kPageSize);
}

TEST(DiskScheduler, SchedulerModeKeepsUncontendedCompletionTimesExact) {
  // With the default queue depth, an uncontended single-class load lands on the
  // same serializer timeline as issue-time claiming: the scheduler only
  // reorders under cross-class contention.
  Simulation sim;
  BlockDevice disk(&sim, TestDiskProfile());
  SimTime last;
  for (int i = 0; i < 1000; ++i) {
    disk.Read(static_cast<uint64_t>(i) * kPageSize, kPageSize, Demand(),
              [&](Status) { last = sim.now(); });
  }
  sim.Run();
  EXPECT_EQ(last.nanos(), 1000 * 4096 + 50000);
}

TEST(DiskScheduler, KnobsAtUint32MaxMeanWhatTheySay) {
  // Every uint32_t depth is a depth and every slot count a slot count: at
  // UINT32_MAX, reads dispatch on arrival and prefetch_slots >= queue_depth
  // leaves prefetch uncapped.
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = UINT32_MAX;
  profile.sched.prefetch_slots = UINT32_MAX;
  profile.sched.max_merge_bytes = ByteCount::Zero();  // one device request per read
  BlockDevice disk(&sim, profile);
  constexpr int kPrefetchReads = 12;  // above the default 8 prefetch slots
  int done = 0;
  for (int i = 0; i < kPrefetchReads; ++i) {
    disk.Read(static_cast<uint64_t>(i) * MiB(8).value(), KiB(256).value(), Prefetch(),
              [&](Status s) {
                EXPECT_TRUE(s.ok());
                ++done;
              });
  }
  disk.Read(MiB(128).value(), kPageSize, Demand(), [&](Status s) {
    EXPECT_TRUE(s.ok());
    ++done;
  });
  EXPECT_EQ(disk.in_service(ReadClass::kPrefetch), kPrefetchReads);
  EXPECT_EQ(disk.in_service(ReadClass::kDemand), 1);
  EXPECT_EQ(disk.queued(ReadClass::kPrefetch), 0);
  EXPECT_EQ(disk.queued(ReadClass::kDemand), 0);
  sim.Run();
  EXPECT_EQ(done, kPrefetchReads + 1);
  EXPECT_EQ(disk.stats().read_requests, static_cast<uint64_t>(kPrefetchReads + 1));
}

TEST(DiskScheduler, PerClassWaitTotalsAccumulate) {
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 1;
  profile.sched.max_merge_bytes = ByteCount::Zero();  // isolate wait accounting from merging
  BlockDevice disk(&sim, profile);
  disk.Read(0, KiB(256).value(), Demand(), [](Status) {});
  disk.Read(KiB(256).value(), kPageSize, Demand(), [](Status) {});
  sim.Run();
  // The second read waited for the first (256 KiB ~= 262 us + base latency).
  EXPECT_GT(disk.stats().demand_wait_ns, Duration::Nanos(200000));
  EXPECT_EQ(disk.stats().prefetch_wait_ns, Duration::Zero());
  EXPECT_EQ(disk.stats().max_demand_wait_ns, disk.stats().demand_wait_ns);
}

}  // namespace
}  // namespace faasnap
