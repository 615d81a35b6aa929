// Platform-level span coverage through an Observability bundle: a cold FaaSnap
// invocation records its lifecycle markers and the loader's chunk reads. One
// fault span per counted fault is pinned per restore mode by
// CriticalPathTest.AttributesFaultsAndGuestTime (obs_critical_path_test).

#include <gtest/gtest.h>

#include "src/obs/observability.h"
#include "src/runtime/platform.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

TEST(PlatformSpans, FaasnapInvocationRecordsLifecycleAndLoaderSpans) {
  PlatformConfig config;
  BlockDeviceProfile disk = NvmeSsdProfile();
  disk.jitter = 0.0;
  config.disk = disk;
  Platform platform(config);
  Observability obs;
  platform.set_observability(&obs);

  Result<FunctionSpec> spec = FindFunction("json");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, config.layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
  platform.DropCaches();
  obs.spans.Clear();  // focus on the invocation
  platform.Invoke(snapshot, RestoreMode::kFaasnap, generator, MakeInputB(*spec));

  EXPECT_EQ(obs.spans.count(obsname::kSetupDone), 1);
  EXPECT_EQ(obs.spans.count(obsname::kInvocation), 1);
  // The loader streamed the loading set in chunks.
  EXPECT_GT(obs.spans.count(obsname::kLoaderChunk), 0);
}

}  // namespace
}  // namespace faasnap
