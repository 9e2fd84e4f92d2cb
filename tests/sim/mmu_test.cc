#include "src/sim/mmu.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/machine.h"

namespace o1mem {
namespace {

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : as_(machine_.CreateAddressSpace()) {}

  Machine machine_{MachineConfig{.dram_bytes = 64 * kMiB, .nvm_bytes = 64 * kMiB}};
  std::unique_ptr<AddressSpace> as_;
};

TEST_F(MmuTest, PageWalkThenTlbHits) {
  ASSERT_TRUE(as_->page_table().MapPage(0x1000, 0x2000, kPageSize, Prot::kReadWrite).ok());
  auto t1 = machine_.mmu().Translate(*as_, 0x1234, AccessType::kRead);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->paddr, 0x2234u);
  EXPECT_EQ(t1->source, TranslationInfo::Source::kPageWalk);

  auto t2 = machine_.mmu().Translate(*as_, 0x1678, AccessType::kRead);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->source, TranslationInfo::Source::kL1Tlb);
  EXPECT_EQ(machine_.ctx().counters().tlb_l1_hits, 1u);
  EXPECT_EQ(machine_.ctx().counters().page_walks, 1u);
}

TEST_F(MmuTest, TlbHitIsCheaperThanWalk) {
  ASSERT_TRUE(as_->page_table().MapPage(0, 0, kPageSize, Prot::kRead).ok());
  const uint64_t t0 = machine_.ctx().now();
  ASSERT_TRUE(machine_.mmu().Translate(*as_, 0, AccessType::kRead).ok());
  const uint64_t walk_cost = machine_.ctx().now() - t0;
  const uint64_t t1 = machine_.ctx().now();
  ASSERT_TRUE(machine_.mmu().Translate(*as_, 8, AccessType::kRead).ok());
  const uint64_t hit_cost = machine_.ctx().now() - t1;
  EXPECT_GT(walk_cost, hit_cost);
}

TEST_F(MmuTest, RangeTableServesTranslationsAndPopulatesRangeTlb) {
  ASSERT_TRUE(as_->range_table()
                  .Insert({.vbase = kGiB, .bytes = 16 * kMiB, .pbase = 8 * kMiB,
                           .prot = Prot::kReadWrite})
                  .ok());
  auto t1 = machine_.mmu().Translate(*as_, kGiB + 5, AccessType::kWrite);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->paddr, 8 * kMiB + 5);
  EXPECT_EQ(t1->source, TranslationInfo::Source::kRangeTable);
  // A far-away address in the same range: range TLB covers the whole extent.
  auto t2 = machine_.mmu().Translate(*as_, kGiB + 15 * kMiB, AccessType::kRead);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->source, TranslationInfo::Source::kRangeTlb);
}

// The Mmu translates once per page, so a range entry ending inside a page
// would move the rest of an access crossing its end through its own physical
// run. Two adjacent 2 KiB entries at 1 GiB (-> 1 MiB) and 1 GiB + 2 KiB
// (-> 8 MiB) are refused, so a 64-byte write across their seam faults and
// neither physical run is written.
TEST_F(MmuTest, RangeEntriesEndingInsideAPageAreRejected) {
  RangeTable& rt = as_->range_table();
  constexpr uint64_t kHalf = kPageSize / 2;
  EXPECT_EQ(rt.Insert({.vbase = kGiB, .bytes = kHalf, .pbase = kMiB, .prot = Prot::kReadWrite})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rt.Insert({.vbase = kGiB + kHalf, .bytes = kHalf, .pbase = 8 * kMiB,
                       .prot = Prot::kReadWrite})
                .code(),
            StatusCode::kInvalidArgument);
  const std::vector<uint8_t> data(64, 0xab);
  EXPECT_EQ(machine_.mmu().WriteVirt(*as_, kGiB + kHalf - 32, data).code(), StatusCode::kFault);
  EXPECT_EQ(machine_.phys().PeekByte(kMiB + kHalf), 0);
  EXPECT_EQ(machine_.phys().PeekByte(8 * kMiB), 0);
  EXPECT_EQ(machine_.phys().materialized_pages(), 0u);
}

TEST_F(MmuTest, ProtectionViolationIsDenied) {
  ASSERT_TRUE(as_->page_table().MapPage(0, 0, kPageSize, Prot::kRead).ok());
  auto t = machine_.mmu().Translate(*as_, 0, AccessType::kWrite);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(machine_.ctx().counters().segv_faults, 1u);
}

TEST_F(MmuTest, UnhandledFaultIsSegv) {
  auto t = machine_.mmu().Translate(*as_, 0xdead000, AccessType::kRead);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kFault);
}

class MappingFaultHandler : public FaultHandler {
 public:
  MappingFaultHandler(AddressSpace* as, Paddr pool_base) : as_(as), next_(pool_base) {}

  Status HandleFault(Vaddr vaddr, AccessType /*type*/) override {
    ++faults;
    const Paddr frame = next_;
    next_ += kPageSize;
    return as_->page_table().MapPage(AlignDown(vaddr, kPageSize), frame, kPageSize,
                                     Prot::kReadWrite);
  }

  int faults = 0;

 private:
  AddressSpace* as_;
  Paddr next_;
};

TEST_F(MmuTest, FaultHandlerResolvesMiss) {
  MappingFaultHandler handler(as_.get(), 16 * kMiB);
  as_->set_fault_handler(&handler);
  auto t = machine_.mmu().Translate(*as_, 0x5000, AccessType::kWrite);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->faulted);
  EXPECT_EQ(t->paddr, 16 * kMiB);
  EXPECT_EQ(handler.faults, 1);
  // Subsequent access: no fault.
  auto t2 = machine_.mmu().Translate(*as_, 0x5008, AccessType::kRead);
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE(t2->faulted);
  EXPECT_EQ(handler.faults, 1);
}

TEST_F(MmuTest, FaultIsMuchMoreExpensiveThanWarmAccess) {
  MappingFaultHandler handler(as_.get(), 16 * kMiB);
  as_->set_fault_handler(&handler);
  const uint64_t t0 = machine_.ctx().now();
  ASSERT_TRUE(machine_.mmu().Touch(*as_, 0, 1, AccessType::kRead).ok());
  const uint64_t fault_cost = machine_.ctx().now() - t0;
  const uint64_t t1 = machine_.ctx().now();
  ASSERT_TRUE(machine_.mmu().Touch(*as_, 64, 1, AccessType::kRead).ok());
  const uint64_t warm_cost = machine_.ctx().now() - t1;
  EXPECT_GT(fault_cost, 10 * warm_cost);
}

TEST_F(MmuTest, ReadWriteVirtRoundTrip) {
  ASSERT_TRUE(as_->page_table().MapPage(0x10000, 0x40000, kPageSize, Prot::kReadWrite).ok());
  ASSERT_TRUE(as_->page_table().MapPage(0x11000, 0x99000, kPageSize, Prot::kReadWrite).ok());
  std::vector<uint8_t> data(5000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  // Write crosses the (physically discontiguous) page boundary.
  ASSERT_TRUE(machine_.mmu().WriteVirt(*as_, 0x10800, data).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(machine_.mmu().ReadVirt(*as_, 0x10800, out).ok());
  EXPECT_EQ(out, data);
  // Verify the bytes landed at the right physical addresses.
  EXPECT_EQ(machine_.phys().PeekByte(0x40800), data[0]);
  EXPECT_EQ(machine_.phys().PeekByte(0x99000), data[0x800]);
}

TEST_F(MmuTest, ShootdownForcesRewalk) {
  ASSERT_TRUE(as_->page_table().MapPage(0, 0, kPageSize, Prot::kRead).ok());
  ASSERT_TRUE(machine_.mmu().Translate(*as_, 0, AccessType::kRead).ok());
  machine_.mmu().ShootdownPage(as_->asid(), 0);
  const uint64_t walks_before = machine_.ctx().counters().page_walks;
  ASSERT_TRUE(machine_.mmu().Translate(*as_, 0, AccessType::kRead).ok());
  EXPECT_EQ(machine_.ctx().counters().page_walks, walks_before + 1);
  EXPECT_EQ(machine_.ctx().counters().tlb_shootdowns, 1u);
}

TEST_F(MmuTest, StaleTlbEntryServedUntilShootdown) {
  // Documents the hardware behaviour the OS must manage: unmapping the PTE
  // without a shootdown leaves the translation cached.
  ASSERT_TRUE(as_->page_table().MapPage(0, 0x7000, kPageSize, Prot::kRead).ok());
  ASSERT_TRUE(machine_.mmu().Translate(*as_, 0, AccessType::kRead).ok());
  ASSERT_TRUE(as_->page_table().UnmapPage(0, kPageSize).ok());
  auto stale = machine_.mmu().Translate(*as_, 0, AccessType::kRead);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->paddr, 0x7000u);
  machine_.mmu().ShootdownPage(as_->asid(), 0);
  EXPECT_FALSE(machine_.mmu().Translate(*as_, 0, AccessType::kRead).ok());
}

TEST_F(MmuTest, TouchChargesStreamingCheaperThanScattered) {
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(as_->page_table()
                    .MapPage(static_cast<Vaddr>(i) * kPageSize, static_cast<Paddr>(i) * kPageSize,
                             kPageSize, Prot::kRead)
                    .ok());
    ASSERT_TRUE(machine_.mmu().Translate(*as_, static_cast<Vaddr>(i) * kPageSize,
                                         AccessType::kRead)
                    .ok());  // warm the TLB
  }
  const uint64_t t0 = machine_.ctx().now();
  ASSERT_TRUE(machine_.mmu().Touch(*as_, 0, 16 * kPageSize, AccessType::kRead).ok());
  const uint64_t streaming = machine_.ctx().now() - t0;
  const uint64_t t1 = machine_.ctx().now();
  for (int i = 0; i < 16 * 64; ++i) {  // one line at a time
    ASSERT_TRUE(machine_.mmu().Touch(*as_, static_cast<Vaddr>(i) * 64, 1, AccessType::kRead).ok());
  }
  const uint64_t scattered = machine_.ctx().now() - t1;
  EXPECT_GT(scattered, streaming);
}

TEST_F(MmuTest, CrashInvalidatesTranslationCaches) {
  ASSERT_TRUE(as_->page_table().MapPage(0, 0, kPageSize, Prot::kRead).ok());
  ASSERT_TRUE(machine_.mmu().Translate(*as_, 0, AccessType::kRead).ok());
  machine_.Crash();
  const uint64_t walks_before = machine_.ctx().counters().page_walks;
  ASSERT_TRUE(machine_.mmu().Translate(*as_, 0, AccessType::kRead).ok());
  EXPECT_EQ(machine_.ctx().counters().page_walks, walks_before + 1);
  EXPECT_EQ(machine_.crash_count(), 1u);
}

TEST_F(MmuTest, DistinctAddressSpacesDoNotAlias) {
  auto as2 = machine_.CreateAddressSpace();
  ASSERT_TRUE(as_->page_table().MapPage(0, 0x1000, kPageSize, Prot::kRead).ok());
  ASSERT_TRUE(as2->page_table().MapPage(0, 0x2000, kPageSize, Prot::kRead).ok());
  auto a = machine_.mmu().Translate(*as_, 0, AccessType::kRead);
  auto b = machine_.mmu().Translate(*as2, 0, AccessType::kRead);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->paddr, 0x1000u);
  EXPECT_EQ(b->paddr, 0x2000u);
  // Both should now hit their own TLB entries.
  EXPECT_EQ(machine_.mmu().Translate(*as_, 8, AccessType::kRead)->paddr, 0x1008u);
  EXPECT_EQ(machine_.mmu().Translate(*as2, 8, AccessType::kRead)->paddr, 0x2008u);
}

}  // namespace
}  // namespace o1mem
