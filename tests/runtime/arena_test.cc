#include "src/runtime/arena.h"

#include <gtest/gtest.h>

namespace o1mem {
namespace {

SystemConfig RuntimeConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 128 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  return config;
}

class ArenaTest : public ::testing::Test {
 protected:
  ArenaTest() : sys_(RuntimeConfig()) {
    auto proc = sys_.Launch(Backend::kFom);
    O1_CHECK(proc.ok());
    proc_ = *proc;
  }

  System sys_;
  Process* proc_ = nullptr;
};

TEST_F(ArenaTest, AllocationsAreUsableAndAligned) {
  auto arena = ObjectArena::Create(&sys_, proc_, "/arena/a", 4 * kMiB);
  ASSERT_TRUE(arena.ok());
  auto a = arena->Allocate(100);
  auto b = arena->Allocate(1, 64);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(IsAligned(*b, 64));
  EXPECT_GE(*b, *a + 100);
  std::vector<uint8_t> data(100, 0xAA);
  ASSERT_TRUE(sys_.UserWrite(*proc_, *a, data).ok());
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(sys_.UserRead(*proc_, *a, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(arena->allocation_count(), 2u);
}

TEST_F(ArenaTest, ExhaustionThenResetRecovers) {
  auto arena = ObjectArena::Create(&sys_, proc_, "/arena/small", kMiB);
  ASSERT_TRUE(arena.ok());
  while (arena->Allocate(64 * kKiB).ok()) {
  }
  auto full = arena->Allocate(64 * kKiB);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kOutOfMemory);
  const uint64_t t0 = sys_.ctx().now();
  ASSERT_TRUE(arena->Reset().ok());
  // O(1): resetting a full arena costs the same tiny constant as an alloc.
  EXPECT_LT(sys_.ctx().now() - t0, 100u);
  EXPECT_EQ(arena->used_bytes(), 0u);
  EXPECT_TRUE(arena->Allocate(64 * kKiB).ok());
}

TEST_F(ArenaTest, ResetCostIndependentOfObjectCount) {
  auto arena = ObjectArena::Create(&sys_, proc_, "/arena/many", 32 * kMiB);
  ASSERT_TRUE(arena.ok());
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(arena->Allocate(128).ok());
  }
  const uint64_t t0 = sys_.ctx().now();
  ASSERT_TRUE(arena->Reset().ok());
  const uint64_t reset_cost = sys_.ctx().now() - t0;
  EXPECT_LT(reset_cost, 100u);  // not 100k frees
}

TEST_F(ArenaTest, DestroyReleasesStorage) {
  const uint64_t free_before = sys_.pmfs().free_bytes();
  auto arena = ObjectArena::Create(&sys_, proc_, "/arena/tmp", 16 * kMiB);
  ASSERT_TRUE(arena.ok());
  EXPECT_LT(sys_.pmfs().free_bytes(), free_before);
  ASSERT_TRUE(arena->Destroy().ok());
  EXPECT_EQ(sys_.pmfs().free_bytes(), free_before);
}

TEST_F(ArenaTest, InvalidRequestsRejected) {
  auto arena = ObjectArena::Create(&sys_, proc_, "/arena/v", kMiB);
  ASSERT_TRUE(arena.ok());
  EXPECT_FALSE(arena->Allocate(0).ok());
  EXPECT_FALSE(arena->Allocate(16, 3).ok());
  EXPECT_FALSE(ObjectArena::Create(&sys_, proc_, "/arena/zero", 0).ok());
  auto baseline = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(ObjectArena::Create(&sys_, *baseline, "/arena/b", kMiB).status().code(),
            StatusCode::kUnsupported);
}

}  // namespace
}  // namespace o1mem
