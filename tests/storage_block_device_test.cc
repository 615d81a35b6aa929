#include "src/storage/block_device.h"

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

class BlockDeviceTest : public ::testing::Test {
 protected:
  Simulation sim_;
  BlockDevice disk_{&sim_, TestDiskProfile()};
};

TEST_F(BlockDeviceTest, SingleSmallReadPaysBaseLatency) {
  SimTime done_at;
  disk_.Read(0, kPageSize, {}, [&](Status) { done_at = sim_.now(); });
  sim_.Run();
  // 4 KiB at 1 GB/s = 4096 ns transfer, IOPS interval 4000 ns, base 50 us.
  // completion = max(4000, 4096) + 50000 = 54096 ns.
  EXPECT_EQ(done_at.nanos(), 54096);
}

TEST_F(BlockDeviceTest, LargeReadIsBandwidthBound) {
  SimTime done_at;
  disk_.Read(0, MiB(100).value(), {}, [&](Status) { done_at = sim_.now(); });
  sim_.Run();
  // 100 MiB at 1 GB/s = 104857600 ns transfer dominates base latency.
  EXPECT_EQ(done_at.nanos(), 104857600 + 50000);
}

TEST_F(BlockDeviceTest, BlockingSmallReadsAreSlow) {
  // A strictly serial fault stream (each read issued after the previous completes)
  // is limited by base latency, not IOPS: ~18.5k reads/s on the test disk.
  int remaining = 10;
  SimTime last;
  std::function<void(Status)> next = [&](Status) {
    last = sim_.now();
    if (--remaining > 0) {
      disk_.Read(0, kPageSize, {}, next);
    }
  };
  disk_.Read(0, kPageSize, {}, next);
  sim_.Run();
  EXPECT_EQ(last.nanos(), 10 * 54096);
}

TEST_F(BlockDeviceTest, PipelinedSmallReadsSaturateIops) {
  // 1000 reads issued at once: completion of the last is governed by the IOPS
  // serializer (4 us apart), not by 1000 * base latency.
  int completed = 0;
  SimTime last;
  for (int i = 0; i < 1000; ++i) {
    disk_.Read(static_cast<uint64_t>(i) * kPageSize, kPageSize, {}, [&](Status) {
      ++completed;
      last = sim_.now();
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, 1000);
  // ~1000 * 4.096us (bw serializer slightly above iops) + base.
  EXPECT_NEAR(static_cast<double>(last.nanos()), 1000 * 4096 + 50000, 5000);
  EXPECT_LT(last.nanos(), 1000 * 54096 / 4);  // far faster than blocking
}

TEST_F(BlockDeviceTest, PipelinedLargeReadsSaturateBandwidth) {
  // 10 x 10 MiB issued at once finish at ~100 MiB / 1 GB/s.
  SimTime last;
  for (int i = 0; i < 10; ++i) {
    disk_.Read(static_cast<uint64_t>(i) * MiB(10).value(), MiB(10).value(), {},
               [&](Status) { last = sim_.now(); });
  }
  sim_.Run();
  EXPECT_NEAR(static_cast<double>(last.nanos()), 104857600.0 + 50000.0, 1000.0);
}

TEST_F(BlockDeviceTest, StatsAccumulate) {
  disk_.Read(0, kPageSize, {}, [](Status) {});
  disk_.Read(kPageSize, MiB(1).value(), {}, [](Status) {});
  sim_.Run();
  EXPECT_EQ(disk_.stats().read_requests, 2u);
  EXPECT_EQ(disk_.stats().bytes_read, kPageSize + MiB(1).value());
  BlockDeviceStats before = disk_.stats();
  disk_.Read(0, kPageSize, {}, [](Status) {});
  sim_.Run();
  BlockDeviceStats delta = disk_.stats() - before;
  EXPECT_EQ(delta.read_requests, 1u);
  EXPECT_EQ(delta.bytes_read, kPageSize);
  disk_.ResetStats();
  EXPECT_EQ(disk_.stats().read_requests, 0u);
}

TEST_F(BlockDeviceTest, EstimateMatchesActual) {
  const SimTime estimate = disk_.EstimateCompletion(MiB(2).value());
  SimTime actual;
  disk_.Read(0, MiB(2).value(), {}, [&](Status) { actual = sim_.now(); });
  sim_.Run();
  EXPECT_EQ(estimate, actual);
}

TEST(BlockDeviceDeathTest, ZeroQueueDepthAborts) {
  // Every read goes through the scheduler, which needs at least one slot.
  Simulation sim;
  BlockDeviceProfile profile = TestDiskProfile();
  profile.sched.queue_depth = 0;
  EXPECT_DEATH({ BlockDevice disk(&sim, profile); }, "FAASNAP_CHECK");
}

TEST(BlockDeviceProfiles, NvmeIsFasterThanEbsEverywhere) {
  Simulation sim;
  BlockDevice nvme(&sim, NvmeSsdProfile());
  BlockDevice ebs(&sim, EbsIo2Profile());
  EXPECT_LT(nvme.profile().base_latency, ebs.profile().base_latency);
  EXPECT_GT(nvme.profile().bandwidth_bytes_per_s, ebs.profile().bandwidth_bytes_per_s);
  EXPECT_GT(nvme.profile().iops, ebs.profile().iops);
}

TEST(BlockDeviceProfiles, NvmeColdFaultLandsInMajorFaultBand) {
  // Figure 2: major page faults that read from disk take >= 32 us.
  Simulation sim;
  BlockDeviceProfile p = NvmeSsdProfile();
  p.jitter = 0.0;
  BlockDevice nvme(&sim, p);
  SimTime done;
  nvme.Read(0, kPageSize, {}, [&](Status) { done = sim.now(); });
  sim.Run();
  EXPECT_GE(done.nanos(), 32000);
  EXPECT_LE(done.nanos(), 512000);
}

TEST(BlockDeviceJitter, JitterIsDeterministicPerSeed) {
  BlockDeviceProfile p = TestDiskProfile();
  p.jitter = 0.1;
  auto run_once = [&](uint64_t seed) {
    Simulation sim;
    BlockDevice disk(&sim, p, seed);
    SimTime done;
    disk.Read(0, kPageSize, {}, [&](Status) { done = sim.now(); });
    sim.Run();
    return done.nanos();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
  // Jitter stays within the configured band.
  const double base = 54096.0;
  const double v = static_cast<double>(run_once(7));
  EXPECT_GT(v, base * 0.89);
  EXPECT_LT(v, base * 1.11);
}

}  // namespace
}  // namespace faasnap
