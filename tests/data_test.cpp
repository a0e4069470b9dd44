// Unit tests for the data layer: directory coherence, transfer accounting
// in the paper's categories, capacity eviction, and the link-occupancy
// transfer engine.
#include <gtest/gtest.h>

#include "data/directory.h"
#include "data/transfer_engine.h"
#include "machine/presets.h"

namespace versa {
namespace {

class DirectoryTest : public ::testing::Test {
 protected:
  DirectoryTest() : machine_(make_minotauro_node(2, 2)), dir_(machine_) {}

  SpaceId gpu0() const { return machine_.worker(2).space; }
  SpaceId gpu1() const { return machine_.worker(3).space; }

  Machine machine_;
  DataDirectory dir_;
};

TEST_F(DirectoryTest, FreshRegionValidOnHostOnly) {
  const RegionId r = dir_.register_region("r", 1024);
  EXPECT_TRUE(dir_.is_valid_in(r, kHostSpace));
  EXPECT_FALSE(dir_.is_valid_in(r, gpu0()));
  EXPECT_EQ(dir_.dirty_space(r), kInvalidSpace);
}

TEST_F(DirectoryTest, ReadOnDeviceCopiesIn) {
  const RegionId r = dir_.register_region("r", 1024);
  TransferList ops;
  dir_.acquire({Access::in(r)}, gpu0(), ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].category, TransferCategory::kInput);
  EXPECT_EQ(ops[0].bytes, 1024u);
  EXPECT_TRUE(dir_.is_valid_in(r, gpu0()));
  EXPECT_TRUE(dir_.is_valid_in(r, kHostSpace));  // reads replicate
  EXPECT_EQ(dir_.stats().input_bytes, 1024u);
}

TEST_F(DirectoryTest, RereadIsFree) {
  const RegionId r = dir_.register_region("r", 1024);
  TransferList ops;
  dir_.acquire({Access::in(r)}, gpu0(), ops);
  ops.clear();
  dir_.acquire({Access::in(r)}, gpu0(), ops);
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(dir_.stats().input_count, 1u);
}

TEST_F(DirectoryTest, WriteInvalidatesOtherCopies) {
  const RegionId r = dir_.register_region("r", 1024);
  TransferList ops;
  dir_.acquire({Access::in(r)}, gpu0(), ops);
  dir_.acquire({Access::inout(r)}, gpu1(), ops);
  EXPECT_TRUE(dir_.is_valid_in(r, gpu1()));
  EXPECT_FALSE(dir_.is_valid_in(r, gpu0()));
  EXPECT_FALSE(dir_.is_valid_in(r, kHostSpace));
  EXPECT_EQ(dir_.dirty_space(r), gpu1());
}

TEST_F(DirectoryTest, PureOutputNeedsNoCopyIn) {
  const RegionId r = dir_.register_region("r", 4096);
  TransferList ops;
  dir_.acquire({Access::out(r)}, gpu0(), ops);
  EXPECT_TRUE(ops.empty());
  EXPECT_TRUE(dir_.is_valid_in(r, gpu0()));
  EXPECT_FALSE(dir_.is_valid_in(r, kHostSpace));
  EXPECT_EQ(dir_.dirty_space(r), gpu0());
}

TEST_F(DirectoryTest, DeviceToDeviceTransferClassified) {
  const RegionId r = dir_.register_region("r", 2048);
  TransferList ops;
  dir_.acquire({Access::inout(r)}, gpu0(), ops);  // dirty on gpu0
  ops.clear();
  dir_.acquire({Access::in(r)}, gpu1(), ops);  // must come from gpu0
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].category, TransferCategory::kDevice);
  EXPECT_EQ(ops[0].from, gpu0());
  EXPECT_EQ(dir_.stats().device_bytes, 2048u);
}

TEST_F(DirectoryTest, HostReadOfDirtyDeviceDataIsOutputTx) {
  const RegionId r = dir_.register_region("r", 2048);
  TransferList ops;
  dir_.acquire({Access::inout(r)}, gpu0(), ops);
  ops.clear();
  dir_.acquire({Access::in(r)}, kHostSpace, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].category, TransferCategory::kOutput);
  EXPECT_EQ(dir_.stats().output_bytes, 2048u);
}

TEST_F(DirectoryTest, HostWriteLeavesRegionClean) {
  const RegionId r = dir_.register_region("r", 64);
  TransferList ops;
  dir_.acquire({Access::inout(r)}, gpu0(), ops);
  dir_.acquire({Access::inout(r)}, kHostSpace, ops);
  EXPECT_EQ(dir_.dirty_space(r), kInvalidSpace);
  EXPECT_FALSE(dir_.is_valid_in(r, gpu0()));
}

TEST_F(DirectoryTest, FlushAllWritesDirtyDataHome) {
  const RegionId r1 = dir_.register_region("r1", 100);
  const RegionId r2 = dir_.register_region("r2", 200);
  TransferList ops;
  dir_.acquire({Access::inout(r1)}, gpu0(), ops);
  dir_.acquire({Access::inout(r2)}, gpu1(), ops);
  ops.clear();
  dir_.flush_all(ops);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(dir_.stats().output_bytes, 300u);
  EXPECT_TRUE(dir_.is_valid_in(r1, kHostSpace));
  EXPECT_TRUE(dir_.is_valid_in(r2, kHostSpace));
  // Flush synchronizes; the device copies stay valid.
  EXPECT_TRUE(dir_.is_valid_in(r1, gpu0()));
  EXPECT_EQ(dir_.dirty_space(r1), kInvalidSpace);
}

TEST_F(DirectoryTest, FlushIsIdempotent) {
  const RegionId r = dir_.register_region("r", 100);
  TransferList ops;
  dir_.acquire({Access::inout(r)}, gpu0(), ops);
  ops.clear();
  dir_.flush_region(r, ops);
  EXPECT_EQ(ops.size(), 1u);
  ops.clear();
  dir_.flush_region(r, ops);
  EXPECT_TRUE(ops.empty());
}

TEST_F(DirectoryTest, BytesMissingAndValidQueries) {
  const RegionId a = dir_.register_region("a", 100);
  const RegionId b = dir_.register_region("b", 200);
  TransferList ops;
  dir_.acquire({Access::in(a)}, gpu0(), ops);
  const AccessList accesses = {Access::in(a), Access::in(b)};
  EXPECT_EQ(dir_.bytes_missing(accesses, gpu0()), 200u);
  EXPECT_EQ(dir_.bytes_valid(accesses, gpu0()), 100u);
  EXPECT_EQ(dir_.bytes_missing(accesses, kHostSpace), 0u);
  // Pure outputs need no copy, so they never count as missing.
  EXPECT_EQ(dir_.bytes_missing({Access::out(b)}, gpu0()), 0u);
}

TEST_F(DirectoryTest, UsedBytesTracksCopies) {
  const std::uint64_t host_before = dir_.used_bytes(kHostSpace);
  const RegionId r = dir_.register_region("r", 1000);
  EXPECT_EQ(dir_.used_bytes(kHostSpace), host_before + 1000);
  TransferList ops;
  dir_.acquire({Access::in(r)}, gpu0(), ops);
  EXPECT_EQ(dir_.used_bytes(gpu0()), 1000u);
  dir_.acquire({Access::inout(r)}, kHostSpace, ops);
  EXPECT_EQ(dir_.used_bytes(gpu0()), 0u);
}

TEST(DirectoryEviction, LruCleanCopyIsDropped) {
  // Tiny GPU space to force eviction.
  Machine::Builder builder;
  const SpaceId gpu_mem = builder.add_space("gpu", 1000);
  const DeviceId gpu = builder.add_device(DeviceKind::kCuda, gpu_mem, "g", 1);
  builder.add_worker(gpu);
  builder.add_bidi_link(kHostSpace, gpu_mem, 1e9, 0.0);
  const Machine machine = builder.build();
  DataDirectory dir(machine);

  const RegionId a = dir.register_region("a", 600);
  const RegionId b = dir.register_region("b", 600);
  TransferList ops;
  dir.acquire({Access::in(a)}, gpu_mem, ops);
  dir.acquire({Access::in(b)}, gpu_mem, ops);  // must evict a
  EXPECT_FALSE(dir.is_valid_in(a, gpu_mem));
  EXPECT_TRUE(dir.is_valid_in(b, gpu_mem));
  EXPECT_EQ(dir.eviction_count(), 1u);
  EXPECT_LE(dir.used_bytes(gpu_mem), 1000u);
}

TEST(DirectoryEviction, RegionNamedTwiceCountsOnceTowardRoom) {
  // Two 3 GiB regions fit the 6 GiB GPU together. A task naming `b` in
  // two clauses needs 3 GiB more, not 6: `a` must stay.
  const Machine machine = make_minotauro_node(1, 1);
  const SpaceId gpu_mem = machine.worker(1).space;
  ASSERT_EQ(machine.space(gpu_mem).capacity, 6ull << 30);
  DataDirectory dir(machine);
  const RegionId a = dir.register_region("a", 3ull << 30);
  const RegionId b = dir.register_region("b", 3ull << 30);
  TransferList ops;
  dir.acquire({Access::in(a)}, gpu_mem, ops);
  ops.clear();
  dir.acquire({Access::in(b), Access::inout(b)}, gpu_mem, ops);
  EXPECT_EQ(dir.eviction_count(), 0u);
  EXPECT_TRUE(dir.is_valid_in(a, gpu_mem));
  EXPECT_TRUE(dir.is_valid_in(b, gpu_mem));
  EXPECT_EQ(dir.dirty_space(b), gpu_mem);
  ASSERT_EQ(ops.size(), 1u);  // b's copy-in only
  EXPECT_EQ(ops[0].region, b);
  EXPECT_EQ(dir.used_bytes(gpu_mem), 6ull << 30);
}

TEST(DirectoryEviction, DirtyVictimIsWrittenBackFirst) {
  Machine::Builder builder;
  const SpaceId gpu_mem = builder.add_space("gpu", 1000);
  const DeviceId gpu = builder.add_device(DeviceKind::kCuda, gpu_mem, "g", 1);
  builder.add_worker(gpu);
  builder.add_bidi_link(kHostSpace, gpu_mem, 1e9, 0.0);
  const Machine machine = builder.build();
  DataDirectory dir(machine);

  const RegionId a = dir.register_region("a", 600);
  const RegionId b = dir.register_region("b", 600);
  TransferList ops;
  dir.acquire({Access::inout(a)}, gpu_mem, ops);  // dirty on device
  ops.clear();
  dir.acquire({Access::in(b)}, gpu_mem, ops);
  // Write-back of a, then copy-in of b.
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].category, TransferCategory::kOutput);
  EXPECT_EQ(ops[0].region, a);
  EXPECT_EQ(ops[1].category, TransferCategory::kInput);
  EXPECT_TRUE(dir.is_valid_in(a, kHostSpace));  // data not lost
}

TEST(TransferStatsTest, Classification) {
  EXPECT_EQ(classify_transfer(0, 1), TransferCategory::kInput);
  EXPECT_EQ(classify_transfer(1, 0), TransferCategory::kOutput);
  EXPECT_EQ(classify_transfer(1, 2), TransferCategory::kDevice);
  EXPECT_EQ(classify_transfer(2, 2), TransferCategory::kLocal);
}

TEST(TransferStatsTest, AccumulateAndSum) {
  TransferStats stats;
  stats.record(TransferCategory::kInput, 100);
  stats.record(TransferCategory::kOutput, 50);
  stats.record(TransferCategory::kDevice, 25);
  stats.record(TransferCategory::kLocal, 999);  // ignored
  EXPECT_EQ(stats.total_bytes(), 175u);
  EXPECT_EQ(stats.total_count(), 3u);
  TransferStats more = stats;
  more += stats;
  EXPECT_EQ(more.input_bytes, 200u);
}

class TransferEngineTest : public ::testing::Test {
 protected:
  TransferEngineTest() : machine_(make_minotauro_node(1, 2)), engine_(machine_) {}
  Machine machine_;
  TransferEngine engine_;
};

TEST_F(TransferEngineTest, SingleTransferTakesLinkTime) {
  // 6 GB/s PCIe, 15 us latency: 6 MB -> 1 ms + 15 us.
  const TransferOp op{0, kHostSpace, 1, 6'000'000, TransferCategory::kInput};
  const Time done = engine_.enqueue_one(op, 0.0);
  EXPECT_NEAR(done, 1e-3 + 15e-6, 1e-9);
}

TEST_F(TransferEngineTest, SameLinkSerializes) {
  const TransferOp op{0, kHostSpace, 1, 6'000'000, TransferCategory::kInput};
  engine_.enqueue_one(op, 0.0);
  const Time done = engine_.enqueue_one(op, 0.0);
  EXPECT_NEAR(done, 2.0 * (1e-3 + 15e-6), 1e-9);
}

TEST_F(TransferEngineTest, DifferentLinksOverlap) {
  const TransferOp to_gpu0{0, kHostSpace, 1, 6'000'000,
                           TransferCategory::kInput};
  const TransferOp to_gpu1{1, kHostSpace, 2, 6'000'000,
                           TransferCategory::kInput};
  const Time d0 = engine_.enqueue_one(to_gpu0, 0.0);
  const Time d1 = engine_.enqueue_one(to_gpu1, 0.0);
  EXPECT_NEAR(d0, d1, 1e-12);  // parallel links, no serialization
}

TEST_F(TransferEngineTest, BatchCompletionIsMaxOfOps) {
  TransferList ops = {
      {0, kHostSpace, 1, 6'000'000, TransferCategory::kInput},
      {1, kHostSpace, 2, 12'000'000, TransferCategory::kInput},
  };
  const Time done = engine_.enqueue(ops, 0.0);
  EXPECT_NEAR(done, 2e-3 + 15e-6, 1e-9);
}

TEST_F(TransferEngineTest, StartTimeRespected) {
  const TransferOp op{0, kHostSpace, 1, 6'000'000, TransferCategory::kInput};
  const Time done = engine_.enqueue_one(op, 5.0);
  EXPECT_NEAR(done, 5.0 + 1e-3 + 15e-6, 1e-9);
}

TEST_F(TransferEngineTest, ResetClearsOccupancy) {
  const TransferOp op{0, kHostSpace, 1, 6'000'000, TransferCategory::kInput};
  engine_.enqueue_one(op, 0.0);
  engine_.reset();
  EXPECT_DOUBLE_EQ(engine_.link_free_at(kHostSpace, 1), 0.0);
  EXPECT_EQ(engine_.routed_bytes(), 0u);
}

TEST(TransferEngineStaging, NoDirectLinkRoutesThroughHost) {
  // Machine with two GPU spaces but no peer link.
  Machine::Builder builder;
  const SpaceId g0 = builder.add_space("g0", 1 << 30);
  const SpaceId g1 = builder.add_space("g1", 1 << 30);
  const DeviceId d0 = builder.add_device(DeviceKind::kCuda, g0, "a", 1);
  const DeviceId d1 = builder.add_device(DeviceKind::kCuda, g1, "b", 1);
  builder.add_worker(d0);
  builder.add_worker(d1);
  builder.add_bidi_link(kHostSpace, g0, 1e9, 0.0);
  builder.add_bidi_link(kHostSpace, g1, 1e9, 0.0);
  const Machine machine = builder.build();
  TransferEngine engine(machine);

  const TransferOp op{0, g0, g1, 1'000'000, TransferCategory::kDevice};
  const Time done = engine.enqueue_one(op, 0.0);
  EXPECT_NEAR(done, 2e-3, 1e-9);  // two 1 ms hops
  EXPECT_EQ(engine.routed_bytes(), 2'000'000u);
}

}  // namespace
}  // namespace versa
