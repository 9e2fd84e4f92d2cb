// Dedicated reclaimer tests: clock rotation, 2Q promotion/demotion balance,
// scan budgets, and interaction with pinning.
#include "src/mm/reclaim.h"

#include <gtest/gtest.h>

namespace o1mem {
namespace {

class ReclaimTest : public ::testing::Test {
 protected:
  ReclaimTest()
      : machine_(MachineConfig{.dram_bytes = 64 * kMiB, .nvm_bytes = 0}),
        phys_mgr_(&machine_),
        swap_(&machine_.ctx(), &machine_.phys(), 1 << 16),
        as_(machine_.CreateAddressSpace()),
        vmas_(&machine_.ctx()),
        pager_(&machine_, &phys_mgr_, &swap_, as_.get(), &vmas_) {}

  void MapAndPopulate(Vaddr start, uint64_t pages) {
    Vma vma{.start = start, .end = start + pages * kPageSize, .prot = Prot::kReadWrite};
    O1_CHECK(vmas_.Insert(vma).ok());
    O1_CHECK(pager_.Populate(vma).ok());
  }

  void ClearAllReferenced(Vaddr start, uint64_t pages) {
    for (uint64_t p = 0; p < pages; ++p) {
      pager_.TestAndClearReferenced(start + p * kPageSize);
    }
  }

  Machine machine_;
  PhysManager phys_mgr_;
  SwapDevice swap_;
  std::unique_ptr<AddressSpace> as_;
  VmaTree vmas_;
  DemandPager pager_;
};

TEST_F(ReclaimTest, ClockEvictsInLruOrderWhenNothingReferenced) {
  MapAndPopulate(kMiB, 8);
  ClearAllReferenced(kMiB, 8);
  ClockReclaimer clock(&pager_);
  auto stats = clock.Reclaim(3);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 3u);
  EXPECT_EQ(stats->scanned, 3u);  // straight down the list, no rotation
  // The three oldest (lowest) pages went out.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(as_->page_table().Lookup(kMiB + static_cast<Vaddr>(i) * kPageSize)
                     .has_value());
  }
  EXPECT_TRUE(as_->page_table().Lookup(kMiB + 3 * kPageSize).has_value());
}

TEST_F(ReclaimTest, ClockGivesUpWhenEverythingStaysReferenced) {
  MapAndPopulate(kMiB, 8);
  // Everything referenced (set at install) and we keep it that way by not
  // clearing: first revolution clears, second revolution evicts. To model
  // a truly hot set, re-reference after each clear is impossible here, so
  // instead verify the budget bounds total scanning.
  ClockReclaimer clock(&pager_);
  auto stats = clock.Reclaim(4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 4u);
  EXPECT_GT(stats->spared, 0u);       // first pass spared everyone
  EXPECT_LE(stats->scanned, 2 * 8 + 1);  // bounded by two revolutions
}

TEST_F(ReclaimTest, ClockZeroTargetIsNoop) {
  MapAndPopulate(kMiB, 4);
  ClockReclaimer clock(&pager_);
  auto stats = clock.Reclaim(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 0u);
  EXPECT_EQ(stats->scanned, 0u);
}

TEST_F(ReclaimTest, ClockOnEmptyPagerIsNoop) {
  ClockReclaimer clock(&pager_);
  auto stats = clock.Reclaim(10);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 0u);
}

TEST_F(ReclaimTest, TwoQueueKeepsHotPagesViaActiveList) {
  MapAndPopulate(kMiB, 12);
  // Pages start referenced; 2Q promotes them instead of evicting, then
  // demotes from the active list to refill inactive.
  TwoQueueReclaimer two_q(&pager_);
  auto stats = two_q.Reclaim(4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 4u);
  EXPECT_GE(stats->spared, 4u);
  EXPECT_GT(pager_.active_pages(), 0u);
  // Re-referenced survivors keep surviving preferentially.
  const size_t resident_after = pager_.resident_anon_pages();
  EXPECT_EQ(resident_after, 8u);
}

TEST_F(ReclaimTest, ScanCostScalesWithPagesExamined) {
  MapAndPopulate(kMiB, 256);
  ClearAllReferenced(kMiB, 256);
  ClockReclaimer clock(&pager_);
  const uint64_t scanned_before = machine_.ctx().counters().pages_scanned;
  auto stats = clock.Reclaim(128);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(machine_.ctx().counters().pages_scanned - scanned_before, stats->scanned);
  EXPECT_EQ(stats->scanned, 128u);
}

TEST_F(ReclaimTest, EvictedPagesKeepTheirBytesInSwap) {
  MapAndPopulate(kMiB, 4);
  std::vector<uint8_t> data(64, 0xAB);
  ASSERT_TRUE(machine_.mmu().WriteVirt(*as_, kMiB + 2 * kPageSize, data).ok());
  ClearAllReferenced(kMiB, 4);
  ClockReclaimer clock(&pager_);
  ASSERT_TRUE(clock.Reclaim(4).ok());
  EXPECT_EQ(pager_.swapped_pages(), 4u);
  // Fault back: contents intact.
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(machine_.mmu().ReadVirt(*as_, kMiB + 2 * kPageSize, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GT(machine_.ctx().counters().major_faults, 0u);
}

}  // namespace
}  // namespace o1mem
