// End-to-end storage integration: guest blkfront ↔ NVMe device through a
// storage driver domain (Kite and Linux personalities), exercising xenbus
// negotiation, the block ring, persistent grants, indirect segments,
// batching, and data integrity.
#include <gtest/gtest.h>

#include "src/core/kite.h"
#include "src/workloads/fs.h"

namespace kite {
namespace {

class StorageIntegrationTest : public ::testing::TestWithParam<OsKind> {
 protected:
  void Build(bool store_data = true, BlkbackParams blkparams = BlkbackParams{}) {
    KiteSystem::Params params;
    params.disk_store_data = store_data;
    params.disk.capacity_bytes = 2LL * 1024 * 1024 * 1024;  // 2 GiB test disk.
    sys_ = std::make_unique<KiteSystem>(params);
    DriverDomainConfig config;
    config.os = GetParam();
    stordom_ = sys_->CreateStorageDomain(config, blkparams);
    guest_ = sys_->CreateGuest("db-guest");
    sys_->AttachVbd(guest_, stordom_);
    ASSERT_TRUE(sys_->WaitConnected(guest_));
  }

  std::unique_ptr<KiteSystem> sys_;
  StorageDomain* stordom_ = nullptr;
  GuestVm* guest_ = nullptr;
};

TEST_P(StorageIntegrationTest, NegotiationAdvertisesFeatures) {
  Build();
  Blkfront* front = guest_->blkfront();
  EXPECT_TRUE(front->connected());
  EXPECT_EQ(front->capacity_bytes(), 2LL * 1024 * 1024 * 1024);
  EXPECT_TRUE(front->persistent_supported());
  EXPECT_TRUE(front->indirect_supported());
  EXPECT_EQ(stordom_->driver()->instance_count(), 1);
  sys_->RunFor(Millis(1));
  EXPECT_EQ(stordom_->app()->configured(), 1);
}

TEST_P(StorageIntegrationTest, WriteReadBackIntegrity) {
  Build();
  Rng rng(77);
  Buffer data(64 * 1024);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  const uint64_t digest = Fnv1a(data);

  bool wrote = false;
  guest_->blkfront()->Write(1024 * 1024, data, [&](bool ok) { wrote = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return wrote; }, Seconds(2)));

  Buffer readback;
  bool read_done = false;
  guest_->blkfront()->Read(1024 * 1024, data.size(), &readback,
                           [&](bool ok) { read_done = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return read_done; }, Seconds(2)));
  ASSERT_EQ(readback.size(), data.size());
  EXPECT_EQ(Fnv1a(readback), digest);
}

TEST_P(StorageIntegrationTest, LargeIoUsesIndirectSegments) {
  Build();
  // 128 KiB = 32 pages > 11 direct segments → indirect request.
  bool done = false;
  guest_->blkfront()->Write(0, Buffer(128 * 1024, 0x42), [&](bool ok) { done = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return done; }, Seconds(2)));
  EXPECT_GT(guest_->blkfront()->indirect_requests(), 0u);
  auto* inst = stordom_->driver()->instance(guest_->domain()->id(), 51712);
  ASSERT_NE(inst, nullptr);
  EXPECT_GT(inst->indirect_requests(), 0u);
}

TEST_P(StorageIntegrationTest, PersistentGrantsAvoidRemapping) {
  Build();
  auto* inst = stordom_->driver()->instance(guest_->domain()->id(), 51712);
  ASSERT_NE(inst, nullptr);
  // Two rounds of I/O over the same buffers: second round must hit the
  // persistent-grant cache.
  for (int round = 0; round < 2; ++round) {
    bool done = false;
    guest_->blkfront()->Write(0, Buffer(44 * 1024, 0x01), [&](bool ok) { done = ok; });
    ASSERT_TRUE(sys_->WaitUntil([&] { return done; }, Seconds(2)));
  }
  EXPECT_GT(inst->persistent_hits(), 0u);
  EXPECT_GT(inst->persistent_cache_size(), 0u);
}

TEST_P(StorageIntegrationTest, DisabledPersistentGrantsUnmapEveryTime) {
  BlkbackParams blkparams;
  blkparams.persistent_grants = false;
  Build(/*store_data=*/true, blkparams);
  const uint64_t unmaps_before = sys_->hv().grant_unmaps();
  bool done = false;
  guest_->blkfront()->Write(0, Buffer(16 * 1024, 0x01), [&](bool ok) { done = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return done; }, Seconds(2)));
  EXPECT_GT(sys_->hv().grant_unmaps(), unmaps_before);
  auto* inst = stordom_->driver()->instance(guest_->domain()->id(), 51712);
  EXPECT_EQ(inst->persistent_cache_size(), 0u);
}

TEST_P(StorageIntegrationTest, BatchingCoalescesConsecutiveSegments) {
  Build();
  auto* inst = stordom_->driver()->instance(guest_->domain()->id(), 51712);
  bool done = false;
  // One 128 KiB sequential write: 32 segments, consecutive → few device ops.
  guest_->blkfront()->Write(0, Buffer(128 * 1024, 0x55), [&](bool ok) { done = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return done; }, Seconds(2)));
  EXPECT_LT(inst->device_ops(), inst->segments_handled());
}

TEST_P(StorageIntegrationTest, FlushReachesDevice) {
  Build();
  bool flushed = false;
  guest_->blkfront()->Flush([&](bool ok) { flushed = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return flushed; }, Seconds(2)));
  EXPECT_GE(stordom_->disk()->flushes_completed(), 1u);
}

TEST_P(StorageIntegrationTest, ManyConcurrentOpsComplete) {
  Build(/*store_data=*/false);
  int completed = 0;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const int64_t offset =
        static_cast<int64_t>(rng.NextBelow(1024)) * 1024 * 1024 / 2 / 512 * 512;
    if (rng.NextBool(0.5)) {
      guest_->blkfront()->Read(offset, 8192, nullptr, [&](bool ok) { completed += ok; });
    } else {
      guest_->blkfront()->Write(offset, Buffer(8192, 0x2a),
                                [&](bool ok) { completed += ok; });
    }
  }
  ASSERT_TRUE(sys_->WaitUntil([&] { return completed == 200; }, Seconds(10)));
}

TEST_P(StorageIntegrationTest, SimpleFsEndToEnd) {
  Build(/*store_data=*/false);
  SimpleFs fs(guest_->blkfront());
  ASSERT_TRUE(fs.Create("hello.txt", 1024 * 1024));
  EXPECT_TRUE(fs.Exists("hello.txt"));
  EXPECT_EQ(fs.FileSize("hello.txt"), 1024 * 1024);

  bool wrote = false;
  fs.Write("hello.txt", 0, 256 * 1024, [&](bool ok) { wrote = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return wrote; }, Seconds(2)));

  bool appended = false;
  fs.Append("hello.txt", 4096, [&](bool ok) { appended = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return appended; }, Seconds(2)));
  EXPECT_EQ(fs.FileSize("hello.txt"), 1024 * 1024 + 4096);

  bool synced = false;
  fs.Fsync([&](bool ok) { synced = ok; });
  ASSERT_TRUE(sys_->WaitUntil([&] { return synced; }, Seconds(2)));

  EXPECT_TRUE(fs.Delete("hello.txt"));
  EXPECT_FALSE(fs.Exists("hello.txt"));
}

INSTANTIATE_TEST_SUITE_P(Personalities, StorageIntegrationTest,
                         ::testing::Values(OsKind::kKiteRumprun, OsKind::kUbuntuLinux),
                         [](const ::testing::TestParamInfo<OsKind>& info) {
                           return std::string(OsKindName(info.param));
                         });

}  // namespace
}  // namespace kite
