#include "src/storage/storage_router.h"

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

class StorageRouterTest : public ::testing::Test {
 protected:
  StorageRouterTest() : local_(&sim_, TestDiskProfile()), remote_(&sim_, EbsIo2Profile()) {
    local_id_ = router_.AddDevice(&local_);
    remote_id_ = router_.AddDevice(&remote_);
  }

  Simulation sim_;
  BlockDevice local_;
  BlockDevice remote_;
  StorageRouter router_;
  DeviceId local_id_;
  DeviceId remote_id_;
};

TEST_F(StorageRouterTest, FirstDeviceIsDefault) {
  EXPECT_EQ(local_id_, kLocalDevice);
  EXPECT_EQ(router_.DeviceFor(42), kLocalDevice);
  EXPECT_EQ(router_.device_count(), 2u);
}

TEST_F(StorageRouterTest, UnassignedFilesReadFromLocal) {
  router_.ReadWithStatus(7, 0, kPageSize, [](Status) {});
  sim_.Run();
  EXPECT_EQ(local_.stats().read_requests, 1u);
  EXPECT_EQ(remote_.stats().read_requests, 0u);
}

TEST_F(StorageRouterTest, AssignedFilesReadFromTheirDevice) {
  router_.AssignFile(7, remote_id_);
  EXPECT_EQ(router_.DeviceFor(7), remote_id_);
  router_.ReadWithStatus(7, 0, kPageSize, [](Status) {});
  router_.ReadWithStatus(8, 0, kPageSize, [](Status) {});  // unassigned -> local
  sim_.Run();
  EXPECT_EQ(remote_.stats().read_requests, 1u);
  EXPECT_EQ(local_.stats().read_requests, 1u);
}

TEST_F(StorageRouterTest, RemoteReadsAreSlower) {
  SimTime local_done;
  SimTime remote_done;
  router_.AssignFile(2, remote_id_);
  router_.ReadWithStatus(1, 0, kPageSize, [&](Status) { local_done = sim_.now(); });
  router_.ReadWithStatus(2, 0, kPageSize, [&](Status) { remote_done = sim_.now(); });
  sim_.Run();
  EXPECT_LT(local_done, remote_done);
}

TEST_F(StorageRouterTest, DeviceAccessor) {
  EXPECT_EQ(router_.device(local_id_), &local_);
  EXPECT_EQ(router_.device(remote_id_), &remote_);
}

TEST_F(StorageRouterTest, ReassignmentMoves) {
  router_.AssignFile(5, remote_id_);
  router_.AssignFile(5, local_id_);
  EXPECT_EQ(router_.DeviceFor(5), local_id_);
}

TEST(StorageRouterDeathTest, InvalidUsageAborts) {
  StorageRouter router;
  EXPECT_DEATH(router.ReadWithStatus(1, 0, kPageSize, [](Status) {}), "FAASNAP_CHECK");
  Simulation sim;
  BlockDevice disk(&sim, TestDiskProfile());
  router.AddDevice(&disk);
  EXPECT_DEATH(router.AssignFile(1, 5), "FAASNAP_CHECK");
  EXPECT_DEATH(router.AssignFile(kInvalidFileId, 0), "FAASNAP_CHECK");
}

}  // namespace
}  // namespace faasnap
