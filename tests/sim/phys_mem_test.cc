#include "src/sim/phys_mem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/context.h"

namespace o1mem {
namespace {

class PhysMemTest : public ::testing::Test {
 protected:
  SimContext ctx_;
  PhysicalMemory mem_{&ctx_, /*dram_bytes=*/4 * kMiB, /*nvm_bytes=*/4 * kMiB};
};

TEST_F(PhysMemTest, TierBoundaries) {
  EXPECT_EQ(mem_.TierOf(0), MemTier::kDram);
  EXPECT_EQ(mem_.TierOf(4 * kMiB - 1), MemTier::kDram);
  EXPECT_EQ(mem_.TierOf(4 * kMiB), MemTier::kNvm);
  EXPECT_EQ(mem_.nvm_base(), 4 * kMiB);
  EXPECT_EQ(mem_.total_bytes(), 8 * kMiB);
}

TEST_F(PhysMemTest, ReadOfUnwrittenMemoryIsZero) {
  std::vector<uint8_t> buf(100, 0xff);
  ASSERT_TRUE(mem_.Read(123, buf).ok());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(PhysMemTest, WriteThenReadRoundTrips) {
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(mem_.Write(kPageSize - 2, data).ok());  // straddles a page boundary
  std::vector<uint8_t> out(5, 0);
  ASSERT_TRUE(mem_.Read(kPageSize - 2, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(PhysMemTest, OutOfRangeRejected) {
  std::vector<uint8_t> buf(16);
  EXPECT_FALSE(mem_.Read(mem_.total_bytes() - 8, buf).ok());
  EXPECT_FALSE(mem_.Write(mem_.total_bytes(), buf).ok());
  EXPECT_FALSE(mem_.Zero(mem_.total_bytes() - 1, 2).ok());
}

TEST_F(PhysMemTest, ZeroClearsData) {
  std::vector<uint8_t> data(kPageSize, 0xab);
  ASSERT_TRUE(mem_.Write(0, data).ok());
  ASSERT_TRUE(mem_.Zero(100, 50).ok());
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(mem_.Read(0, out).ok());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], (i >= 100 && i < 150) ? 0 : 0xab) << i;
  }
  EXPECT_EQ(ctx_.counters().bytes_zeroed, 50u);
}

TEST_F(PhysMemTest, ZeroOfWholeUntouchedPageStaysUnmaterialized) {
  const uint64_t before = mem_.materialized_pages();
  ASSERT_TRUE(mem_.Zero(64 * kPageSize, 4 * kPageSize).ok());
  EXPECT_EQ(mem_.materialized_pages(), before);
}

TEST_F(PhysMemTest, CopyMovesBytesAndCountsThem) {
  std::vector<uint8_t> data = {9, 8, 7, 6};
  ASSERT_TRUE(mem_.Write(10, data).ok());
  ASSERT_TRUE(mem_.Copy(2 * kPageSize + 1, 10, 4).ok());
  std::vector<uint8_t> out(4);
  ASSERT_TRUE(mem_.Read(2 * kPageSize + 1, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(ctx_.counters().bytes_copied, 4u);
}

TEST_F(PhysMemTest, CopyFromUnmaterializedSourceZeroesDestination) {
  std::vector<uint8_t> data(64, 0x5a);
  ASSERT_TRUE(mem_.Write(0, data).ok());
  ASSERT_TRUE(mem_.Copy(0, 512 * kPageSize, 64).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(mem_.Read(0, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(PhysMemTest, BulkCostsChargeDramCheaperThanNvmWrite) {
  std::vector<uint8_t> data(kPageSize, 1);
  const uint64_t t0 = ctx_.now();
  ASSERT_TRUE(mem_.Write(0, data).ok());
  const uint64_t dram_cost = ctx_.now() - t0;
  const uint64_t t1 = ctx_.now();
  ASSERT_TRUE(mem_.Write(mem_.nvm_base(), data).ok());
  const uint64_t nvm_cost = ctx_.now() - t1;
  EXPECT_GT(nvm_cost, dram_cost);
}

TEST_F(PhysMemTest, DropVolatileErasesDramKeepsNvm) {
  std::vector<uint8_t> data = {42};
  ASSERT_TRUE(mem_.Write(0, data).ok());
  ASSERT_TRUE(mem_.Write(mem_.nvm_base(), data).ok());
  mem_.DropVolatile();
  EXPECT_EQ(mem_.PeekByte(0), 0);
  EXPECT_EQ(mem_.PeekByte(mem_.nvm_base()), 42);
}

TEST_F(PhysMemTest, PeekPokeUncharged) {
  const uint64_t t0 = ctx_.now();
  mem_.PokeByte(77, 5);
  EXPECT_EQ(mem_.PeekByte(77), 5);
  EXPECT_EQ(ctx_.now(), t0);
}

// ZeroUncharged walks whole pages through each 2 MiB node's live bits. A
// span from node 0 into the never-touched node 1, with live and
// never-written frames interleaved, must still read back all zero, count
// every byte, and materialize only the partial pages that were not live.
TEST_F(PhysMemTest, ZeroAcrossIntoAbsentNodeClearsLiveFramesOnly) {
  constexpr uint64_t kNode = 2 * kMiB;
  const Paddr start = kNode - 5 * kPageSize - 100;  // last 100 bytes of frame 506
  const Paddr end = kNode + 3 * kPageSize + 200;    // first 200 bytes of frame 515
  const std::vector<uint8_t> pattern(kPageSize, 0xab);
  for (const uint64_t frame : {506u, 507u, 509u}) {  // 508, 510, 511: never written
    ASSERT_TRUE(mem_.Write(frame * kPageSize, pattern).ok());
  }
  const uint64_t materialized = mem_.materialized_pages();
  const uint64_t zeroed = ctx_.counters().bytes_zeroed;

  ASSERT_TRUE(mem_.ZeroUncharged(start, end - start).ok());

  std::vector<uint8_t> out(end - start, 0xff);
  ASSERT_TRUE(mem_.Read(start, out).ok());
  EXPECT_EQ(std::count(out.begin(), out.end(), 0), static_cast<std::ptrdiff_t>(out.size()));
  EXPECT_EQ(ctx_.counters().bytes_zeroed - zeroed, end - start);
  // The live head page keeps its bytes before the span; only the tail
  // page (partial and never written) became materialized.
  EXPECT_EQ(mem_.PeekByte(start - 1), 0xab);
  EXPECT_EQ(mem_.materialized_pages(), materialized + 1);
  EXPECT_NE(mem_.FastSpan(end, 1, AccessType::kRead), nullptr);
  EXPECT_EQ(mem_.FastSpan(508 * kPageSize, 1, AccessType::kRead), nullptr);
  EXPECT_EQ(mem_.FastSpan(kNode, 1, AccessType::kRead), nullptr);
}

}  // namespace
}  // namespace o1mem
