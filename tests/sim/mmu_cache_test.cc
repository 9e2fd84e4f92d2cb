// Focused tests of the MMU's caching layers: L2 TLB path, page-walk cache,
// range-TLB capacity behaviour, virtualized walk charging.
#include <gtest/gtest.h>

#include "src/sim/machine.h"

namespace o1mem {
namespace {

TEST(MmuCacheTest, L2TlbServesAfterL1Eviction) {
  MachineConfig config;
  config.dram_bytes = 64 * kMiB;
  config.nvm_bytes = 0;
  config.mmu.l1_tlb_entries = 4;  // tiny L1, roomy L2
  config.mmu.l1_tlb_ways = 4;
  config.mmu.l2_tlb_entries = 256;
  config.mmu.l2_tlb_ways = 8;
  Machine machine(config);
  auto as = machine.CreateAddressSpace();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(as->page_table()
                    .MapPage(static_cast<Vaddr>(i) * kPageSize,
                             static_cast<Paddr>(i) * kPageSize, kPageSize, Prot::kRead)
                    .ok());
  }
  // Walk all 16 pages (fills L2; L1 can only hold 4).
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(machine.mmu()
                    .Translate(*as, static_cast<Vaddr>(i) * kPageSize, AccessType::kRead)
                    .ok());
  }
  const uint64_t walks_before = machine.ctx().counters().page_walks;
  const uint64_t l2_before = machine.ctx().counters().tlb_l2_hits;
  // Revisit them: no new walks, L2 hits instead.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(machine.mmu()
                    .Translate(*as, static_cast<Vaddr>(i) * kPageSize, AccessType::kRead)
                    .ok());
  }
  EXPECT_EQ(machine.ctx().counters().page_walks, walks_before);
  EXPECT_GT(machine.ctx().counters().tlb_l2_hits, l2_before);
}

TEST(MmuCacheTest, PwcMakesRepeatWalksCheaper) {
  MachineConfig config;
  config.dram_bytes = 64 * kMiB;
  config.nvm_bytes = 0;
  config.mmu.l1_tlb_entries = 4;  // force walks
  config.mmu.l1_tlb_ways = 4;
  config.mmu.l2_tlb_entries = 8;
  config.mmu.l2_tlb_ways = 8;
  Machine machine(config);
  auto as = machine.CreateAddressSpace();
  // 64 pages in ONE 2 MiB region (one PWC tag covers them all).
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(as->page_table()
                    .MapPage(static_cast<Vaddr>(i) * kPageSize,
                             static_cast<Paddr>(i) * kPageSize, kPageSize, Prot::kRead)
                    .ok());
  }
  const uint64_t t0 = machine.ctx().now();
  ASSERT_TRUE(machine.mmu().Translate(*as, 0, AccessType::kRead).ok());  // cold walk
  const uint64_t cold = machine.ctx().now() - t0;
  const uint64_t t1 = machine.ctx().now();
  ASSERT_TRUE(machine.mmu().Translate(*as, 40 * kPageSize, AccessType::kRead).ok());
  const uint64_t warm = machine.ctx().now() - t1;
  EXPECT_GT(machine.ctx().counters().pwc_hits, 0u);
  EXPECT_LT(warm, cold);
}

TEST(MmuCacheTest, RangeTlbEvictionFallsBackToRangeTable) {
  MachineConfig config;
  config.dram_bytes = 256 * kMiB;
  config.nvm_bytes = 0;
  config.mmu.range_tlb_entries = 2;  // tiny range TLB
  Machine machine(config);
  auto as = machine.CreateAddressSpace();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(as->range_table()
                    .Insert({.vbase = static_cast<Vaddr>(i) * kGiB, .bytes = kMiB,
                             .pbase = static_cast<Paddr>(i) * kMiB, .prot = Prot::kRead})
                    .ok());
  }
  // Round-robin through 8 ranges with a 2-entry range TLB: correctness must
  // hold, and the range table must absorb the misses.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      auto t = machine.mmu().Translate(*as, static_cast<Vaddr>(i) * kGiB + 5,
                                       AccessType::kRead);
      ASSERT_TRUE(t.ok());
      EXPECT_EQ(t->paddr, static_cast<Paddr>(i) * kMiB + 5);
    }
  }
  EXPECT_GT(machine.ctx().counters().range_table_walks, 8u);
}

TEST(MmuCacheTest, FailedWalkIsStillCharged) {
  Machine machine(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 0});
  auto as = machine.CreateAddressSpace();
  const uint64_t t0 = machine.ctx().now();
  EXPECT_FALSE(machine.mmu().Translate(*as, 0x1234000, AccessType::kRead).ok());
  // Hardware walked the (empty) tree and trapped: time moved.
  EXPECT_GT(machine.ctx().now(), t0);
  EXPECT_EQ(machine.ctx().counters().segv_faults, 1u);
}

TEST(MmuCacheTest, TouchZeroLengthIsFree) {
  Machine machine(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 0});
  auto as = machine.CreateAddressSpace();
  const uint64_t t0 = machine.ctx().now();
  EXPECT_TRUE(machine.mmu().Touch(*as, 0xdead000, 0, AccessType::kWrite).ok());
  EXPECT_EQ(machine.ctx().now(), t0);
}

TEST(MmuCacheTest, ReadVirtFailsCleanlyAcrossUnmappedBoundary) {
  Machine machine(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 0});
  auto as = machine.CreateAddressSpace();
  ASSERT_TRUE(as->page_table().MapPage(0, 0, kPageSize, Prot::kReadWrite).ok());
  std::vector<uint8_t> buf(2 * kPageSize, 1);
  // Write starts in the mapped page, crosses into unmapped space: error.
  EXPECT_FALSE(machine.mmu().WriteVirt(*as, kPageSize / 2, buf).ok());
  // The mapped half may have been partially written -- but the mapped page
  // itself is still intact/accessible.
  EXPECT_TRUE(machine.mmu().Touch(*as, 0, kPageSize, AccessType::kRead).ok());
}

// A page-walk cache needs at least one slot: with none, the first walk's
// insert would have no victim to evict.
TEST(MmuCacheDeathTest, ZeroPwcEntriesIsRejected) {
  MachineConfig config{.dram_bytes = 16 * kMiB, .nvm_bytes = 0};
  config.mmu.pwc_entries = 0;
  EXPECT_DEATH({ Machine machine(config); }, "pwc_entries");
}

}  // namespace
}  // namespace o1mem
