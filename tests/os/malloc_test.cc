#include "src/os/malloc.h"

#include <gtest/gtest.h>

#include <set>

#include "src/support/rng.h"

namespace o1mem {
namespace {

SystemConfig MallocConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 128 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  return config;
}

class MallocTest : public ::testing::TestWithParam<Backend> {
 protected:
  MallocTest() : sys_(MallocConfig()) {
    auto proc = sys_.Launch(GetParam());
    O1_CHECK(proc.ok());
    proc_ = *proc;
    alloc_ = std::make_unique<SizeClassAllocator>(&sys_, proc_);
  }

  System sys_;
  Process* proc_ = nullptr;
  std::unique_ptr<SizeClassAllocator> alloc_;
};

TEST_P(MallocTest, ClassSelection) {
  EXPECT_EQ(SizeClassAllocator::ClassFor(1), 0);
  EXPECT_EQ(SizeClassAllocator::ClassFor(16), 0);
  EXPECT_EQ(SizeClassAllocator::ClassFor(17), 1);
  EXPECT_EQ(SizeClassAllocator::ClassFor(256 * kKiB), 14);
  EXPECT_EQ(SizeClassAllocator::ClassFor(256 * kKiB + 1), SizeClassAllocator::kClassCount);
}

TEST_P(MallocTest, AllocationsAreUsableMemory) {
  auto p = alloc_->Malloc(100);
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> data(100, 0x11);
  ASSERT_TRUE(sys_.UserWrite(*proc_, *p, data).ok());
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(sys_.UserRead(*proc_, *p, out).ok());
  EXPECT_EQ(out, data);
}

TEST_P(MallocTest, DistinctPointersNoOverlap) {
  std::set<Vaddr> seen;
  for (int i = 0; i < 1000; ++i) {
    auto p = alloc_->Malloc(64);
    ASSERT_TRUE(p.ok());
    // 64-byte class: pointers must be >= 64 apart.
    for (Vaddr q : seen) {
      ASSERT_TRUE(*p + 64 <= q || q + 64 <= *p);
    }
    seen.insert(*p);
  }
}

TEST_P(MallocTest, FreeThenReuse) {
  auto p = alloc_->Malloc(1000);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(alloc_->Free(*p).ok());
  auto q = alloc_->Malloc(1000);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*p, *q);  // LIFO free list reuse
  EXPECT_FALSE(alloc_->Free(*p + 8).ok());
}

TEST_P(MallocTest, BigAllocationsGoThroughMmap) {
  const uint64_t refills_before = alloc_->stats().chunk_refills;
  auto p = alloc_->Malloc(4 * kMiB);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(alloc_->stats().chunk_refills, refills_before);
  EXPECT_EQ(alloc_->UsableSize(*p).value(), 4 * kMiB);
  ASSERT_TRUE(sys_.UserTouch(*proc_, *p + 4 * kMiB - 1, 1, AccessType::kWrite).ok());
  ASSERT_TRUE(alloc_->Free(*p).ok());
  EXPECT_FALSE(sys_.UserTouch(*proc_, *p, 1, AccessType::kRead).ok());
}

TEST_P(MallocTest, StatsTrackLiveBytes) {
  auto a = alloc_->Malloc(16);
  auto b = alloc_->Malloc(4096);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(alloc_->stats().live_bytes, 16u + 4096u);
  ASSERT_TRUE(alloc_->Free(*a).ok());
  EXPECT_EQ(alloc_->stats().live_bytes, 4096u);
  EXPECT_EQ(alloc_->stats().allocations, 2u);
  EXPECT_EQ(alloc_->stats().frees, 1u);
}

TEST_P(MallocTest, RandomChurnStaysConsistent) {
  Rng rng(77);
  std::vector<std::pair<Vaddr, uint8_t>> live;  // ptr + fill byte
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const uint64_t size = rng.NextInRange(1, 8192);
      auto p = alloc_->Malloc(size);
      ASSERT_TRUE(p.ok());
      const auto fill = static_cast<uint8_t>(step & 0xff);
      std::vector<uint8_t> data(std::min<uint64_t>(size, 64), fill);
      ASSERT_TRUE(sys_.UserWrite(*proc_, *p, data).ok());
      live.emplace_back(*p, fill);
    } else {
      const size_t pick = rng.NextBelow(live.size());
      // Contents survived neighbours' churn.
      std::vector<uint8_t> out(1);
      ASSERT_TRUE(sys_.UserRead(*proc_, live[pick].first, out).ok());
      EXPECT_EQ(out[0], live[pick].second);
      ASSERT_TRUE(alloc_->Free(live[pick].first).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
}

// A chunk whose blocks all come back coalesces into the chunk pool, and a
// later refill takes it from there: pool_reuses grows while the address
// space obtained from the kernel (mmap_bytes) stays flat.
TEST_P(MallocTest, CoalescedChunksAreReusedFromThePool) {
  // 256 KiB blocks: four fill a chunk, and one refill pulls two chunks.
  constexpr int kBlocks = 32;
  std::vector<Vaddr> blocks;
  for (int i = 0; i < kBlocks; ++i) {
    auto p = alloc_->Malloc(256 * kKiB);
    ASSERT_TRUE(p.ok());
    blocks.push_back(*p);
  }
  const MallocStats filled = alloc_->stats();
  // Bin overflows flush the oldest blocks to the buddy heap, where their
  // chunks coalesce whole.
  for (Vaddr p : blocks) {
    ASSERT_TRUE(alloc_->Free(p).ok());
  }
  ASSERT_GT(alloc_->stats().chunks_recycled, filled.chunks_recycled);
  for (int i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE(alloc_->Malloc(256 * kKiB).ok());
  }
  EXPECT_GT(alloc_->stats().pool_reuses, filled.pool_reuses);
  EXPECT_EQ(alloc_->stats().mmap_bytes, filled.mmap_bytes);
  EXPECT_EQ(alloc_->stats().chunk_refills, filled.chunk_refills);
}

TEST_P(MallocTest, ZeroByteRejected) {
  EXPECT_FALSE(alloc_->Malloc(0).ok());
}

INSTANTIATE_TEST_SUITE_P(BothBackends, MallocTest,
                         ::testing::Values(Backend::kBaseline, Backend::kFom),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           return param_info.param == Backend::kBaseline ? "Baseline" : "Fom";
                         });

}  // namespace
}  // namespace o1mem
