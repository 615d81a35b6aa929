// Edge cases and failure injection across the stack: degenerate snapshots,
// boundary inputs, misconfiguration, and corrupted artifacts.

#include <gtest/gtest.h>

#include "src/core/loading_set_builder.h"
#include "src/runtime/platform.h"
#include "src/core/prefetch_loader.h"
#include "src/snapshot/serialization.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

PlatformConfig TestConfig() {
  PlatformConfig config;
  BlockDeviceProfile disk = NvmeSsdProfile();
  disk.jitter = 0.0;
  config.disk = disk;
  return config;
}

// A snapshot with an empty REAP working set: REAP must still restore (its fetch
// is skipped) and serve everything through userfaultfd.
TEST(EdgeCases, ReapWithEmptyWorkingSetStillServes) {
  Platform platform(TestConfig());
  Result<FunctionSpec> spec = FindFunction("json");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, platform.config().layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
  snapshot.reap_ws.guest_pages.clear();  // inject: empty working set file
  platform.DropCaches();
  InvocationReport report =
      platform.Invoke(snapshot, RestoreMode::kReap, generator, MakeInputA(*spec));
  EXPECT_TRUE(report.fetch_bytes.is_zero());
  EXPECT_GT(report.faults.count(FaultClass::kUffdHandled), 1000);
}

// A snapshot with an empty loading set: FaaSnap degrades to per-region mapping
// with no prefetch, but must stay correct.
TEST(EdgeCases, FaasnapWithEmptyLoadingSetStillServes) {
  Platform platform(TestConfig());
  Result<FunctionSpec> spec = FindFunction("json");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, platform.config().layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
  snapshot.loading_set.regions.clear();
  snapshot.loading_set.total_pages = PageCount::FromPages(0);
  platform.DropCaches();
  InvocationReport report =
      platform.Invoke(snapshot, RestoreMode::kFaasnap, generator, MakeInputA(*spec));
  EXPECT_TRUE(report.fetch_bytes.is_zero());
  // Without prefetch the guest pays majors itself but completes.
  EXPECT_GT(report.faults.count(FaultClass::kMajor), 0);
}

// Scaled input at the extreme low end (1/16x) still produces a valid trace.
TEST(EdgeCases, TinyScaledInput) {
  Result<FunctionSpec> spec = FindFunction("pagerank");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, GuestLayout::Default2GiB());
  InvocationTrace trace = generator.Generate(MakeScaledInput(*spec, 1.0 / 16.0, 5));
  EXPECT_GT(trace.access_count(), spec->stable_pages.value());  // stable + a few input pages
  EXPECT_GT(trace.TotalCompute(), Duration::Zero());
}

// Scaled input beyond the window zone clamps instead of overflowing.
TEST(EdgeCases, OversizedScaledInputClampsToWindowZone) {
  Result<FunctionSpec> spec = FindFunction("pagerank");
  ASSERT_TRUE(spec.ok());
  GuestLayout layout = GuestLayout::Default2GiB();
  TraceGenerator generator(*spec, layout);
  InvocationTrace trace = generator.Generate(MakeScaledInput(*spec, 64.0, 5));
  for (const TraceOp& op : trace.ExpandedOps()) {
    ASSERT_LT(op.page, layout.total_pages.value());
  }
}

TEST(EdgeCasesDeathTest, RemotePlacementWithoutRemoteDiskAborts) {
  PlatformConfig config;
  config.placement.memory_files = StorageTier::kRemote;  // but no remote_disk
  EXPECT_DEATH(Platform platform(config), "remote placement requires");
}

TEST(EdgeCases, MergeThresholdZeroProducesManyRegionsButWorks) {
  PlatformConfig config = TestConfig();
  config.loading_set.merge_gap_pages = PageCount::Zero();
  Platform platform(config);
  Result<FunctionSpec> spec = FindFunction("hello-world");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, config.layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
  EXPECT_GT(snapshot.loading_set.regions.size(), 200u);
  platform.DropCaches();
  InvocationReport report =
      platform.Invoke(snapshot, RestoreMode::kFaasnap, generator, MakeInputA(*spec));
  // Hundreds of extra mmap calls, still a working restore.
  EXPECT_GT(report.mmap_calls, snapshot.loading_set.regions.size());
  EXPECT_GT(report.invocation_time, Duration::Zero());
}

TEST(EdgeCases, GiantGroupSizeDegradesToSingleGroup) {
  PlatformConfig config = TestConfig();
  config.ws_group_size = 1u << 30;
  Platform platform(config);
  Result<FunctionSpec> spec = FindFunction("json");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, config.layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
  EXPECT_EQ(snapshot.ws_groups.groups.size(), 1u);  // only the final scan
}

TEST(EdgeCases, CorruptedManifestRejectedAtEveryByte) {
  LoadingSetFile ls;
  ls.regions = {LoadingRegion{{10, 4}, 0, 0}, LoadingRegion{{100, 2}, 1, 4}};
  ls.total_pages = PageCount::FromPages(6);
  const std::vector<uint8_t> good = EncodeLoadingSetManifest(ls);
  ASSERT_TRUE(DecodeLoadingSetManifest(good).ok());
  // Flip one bit at a sample of offsets: decode must never succeed or crash.
  for (size_t offset = 0; offset < good.size(); offset += 3) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= 0x40;
    Result<LoadingSetFile> decoded = DecodeLoadingSetManifest(bad);
    EXPECT_FALSE(decoded.ok()) << "offset " << offset;
  }
}

TEST(EdgeCases, BackToBackInvocationsReuseWarmCache) {
  // Without DropCaches between invocations, the second Firecracker run is served
  // almost entirely from the page cache the first one populated.
  Platform platform(TestConfig());
  Result<FunctionSpec> spec = FindFunction("json");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, platform.config().layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
  platform.DropCaches();
  InvocationReport cold =
      platform.Invoke(snapshot, RestoreMode::kFirecracker, generator, MakeInputA(*spec));
  InvocationReport warm_cache =
      platform.Invoke(snapshot, RestoreMode::kFirecracker, generator, MakeInputA(*spec));
  EXPECT_GT(cold.faults.count(FaultClass::kMajor), 100);
  EXPECT_EQ(warm_cache.faults.count(FaultClass::kMajor), 0);
  EXPECT_LT(warm_cache.total_time(), cold.total_time());
}

TEST(EdgeCases, RecordWithInputBThenTestWithInputA) {
  // The reverse direction of Figure 6 must also hold structurally.
  Platform platform(TestConfig());
  Result<FunctionSpec> spec = FindFunction("chameleon");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, platform.config().layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputB(*spec));
  platform.DropCaches();
  InvocationReport faasnap =
      platform.Invoke(snapshot, RestoreMode::kFaasnap, generator, MakeInputA(*spec));
  platform.DropCaches();
  InvocationReport fc =
      platform.Invoke(snapshot, RestoreMode::kFirecracker, generator, MakeInputA(*spec));
  EXPECT_LT(faasnap.total_time(), fc.total_time());
}

TEST(EdgeCases, SnapshotsFromDifferentFunctionsDoNotInterfere) {
  // One platform, two functions: their files and caches are independent.
  Platform platform(TestConfig());
  Result<FunctionSpec> json_spec = FindFunction("json");
  Result<FunctionSpec> image_spec = FindFunction("image");
  ASSERT_TRUE(json_spec.ok() && image_spec.ok());
  TraceGenerator json_gen(*json_spec, platform.config().layout);
  TraceGenerator image_gen(*image_spec, platform.config().layout);
  FunctionSnapshot json_snap = platform.Record(json_gen, MakeInputA(*json_spec));
  FunctionSnapshot image_snap = platform.Record(image_gen, MakeInputA(*image_spec));
  EXPECT_NE(json_snap.memory_sanitized.id, image_snap.memory_sanitized.id);
  platform.DropCaches();
  InvocationReport a =
      platform.Invoke(json_snap, RestoreMode::kFaasnap, json_gen, MakeInputB(*json_spec));
  InvocationReport b =
      platform.Invoke(image_snap, RestoreMode::kFaasnap, image_gen, MakeInputB(*image_spec));
  EXPECT_EQ(a.function, "json");
  EXPECT_EQ(b.function, "image");
  EXPECT_GT(a.invocation_time, Duration::Zero());
  EXPECT_GT(b.invocation_time, Duration::Zero());
}

}  // namespace
}  // namespace faasnap
