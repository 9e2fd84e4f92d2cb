#include "src/mm/demand_pager.h"

#include <gtest/gtest.h>

#include <map>

#include "src/mm/reclaim.h"
#include "src/os/system.h"

namespace o1mem {
namespace {

class PagerTest : public ::testing::Test {
 protected:
  PagerTest()
      : machine_(MachineConfig{.dram_bytes = 32 * kMiB, .nvm_bytes = 32 * kMiB}),
        phys_mgr_(&machine_),
        swap_(&machine_.ctx(), &machine_.phys(), /*capacity_pages=*/4096),
        as_(machine_.CreateAddressSpace()),
        vmas_(&machine_.ctx()),
        pager_(&machine_, &phys_mgr_, &swap_, as_.get(), &vmas_) {}

  Status MapAnon(Vaddr start, uint64_t len, bool populate = false) {
    Vma vma{.start = start, .end = start + len, .prot = Prot::kReadWrite,
            .populate = populate};
    O1_RETURN_IF_ERROR(vmas_.Insert(vma));
    if (populate) {
      return pager_.Populate(vma);
    }
    return OkStatus();
  }

  Machine machine_;
  PhysManager phys_mgr_;
  SwapDevice swap_;
  std::unique_ptr<AddressSpace> as_;
  VmaTree vmas_;
  DemandPager pager_;
};

TEST_F(PagerTest, DemandFaultInstallsZeroedPage) {
  ASSERT_TRUE(MapAnon(kMiB, 16 * kPageSize).ok());
  std::vector<uint8_t> buf(8, 0xff);
  ASSERT_TRUE(machine_.mmu().ReadVirt(*as_, kMiB + 100, buf).ok());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(machine_.ctx().counters().minor_faults, 1u);
  EXPECT_EQ(pager_.resident_anon_pages(), 1u);
}

TEST_F(PagerTest, WriteReadRoundTripThroughFaults) {
  ASSERT_TRUE(MapAnon(kMiB, 64 * kPageSize).ok());
  std::vector<uint8_t> data(3 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 251);
  }
  ASSERT_TRUE(machine_.mmu().WriteVirt(*as_, kMiB + 512, data).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(machine_.mmu().ReadVirt(*as_, kMiB + 512, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(machine_.ctx().counters().minor_faults, 4u);  // 3 pages + boundary
}

TEST_F(PagerTest, AccessOutsideVmaIsSegv) {
  ASSERT_TRUE(MapAnon(kMiB, kPageSize).ok());
  auto r = machine_.mmu().Touch(*as_, 64 * kMiB, 1, AccessType::kRead);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(machine_.ctx().counters().segv_faults, 1u);
}

TEST_F(PagerTest, WriteToReadOnlyVmaDenied) {
  Vma vma{.start = kMiB, .end = kMiB + kPageSize, .prot = Prot::kRead};
  ASSERT_TRUE(vmas_.Insert(vma).ok());
  EXPECT_FALSE(machine_.mmu().Touch(*as_, kMiB, 1, AccessType::kWrite).ok());
  // Read still works.
  EXPECT_TRUE(machine_.mmu().Touch(*as_, kMiB, 1, AccessType::kRead).ok());
}

TEST_F(PagerTest, PopulateAvoidsLaterFaults) {
  ASSERT_TRUE(MapAnon(kMiB, 32 * kPageSize, /*populate=*/true).ok());
  EXPECT_EQ(pager_.resident_anon_pages(), 32u);
  const uint64_t faults_before = machine_.ctx().counters().minor_faults;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        machine_.mmu().Touch(*as_, kMiB + static_cast<Vaddr>(i) * kPageSize, 1,
                             AccessType::kRead).ok());
  }
  EXPECT_EQ(machine_.ctx().counters().minor_faults, faults_before);
}

TEST_F(PagerTest, PopulatePerPageIsCheaperThanFaultPerPage) {
  ASSERT_TRUE(MapAnon(kMiB, 64 * kPageSize).ok());
  ASSERT_TRUE(MapAnon(16 * kMiB, 64 * kPageSize).ok());
  // Populate path.
  const uint64_t t0 = machine_.ctx().now();
  ASSERT_TRUE(pager_.Populate(*vmas_.Find(kMiB)).ok());
  const uint64_t populate_cost = machine_.ctx().now() - t0;
  // Demand path.
  const uint64_t t1 = machine_.ctx().now();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(machine_.mmu().Touch(*as_, 16 * kMiB + static_cast<Vaddr>(i) * kPageSize, 1,
                                     AccessType::kWrite).ok());
  }
  const uint64_t demand_cost = machine_.ctx().now() - t1;
  EXPECT_GT(demand_cost, 2 * populate_cost);
}

TEST_F(PagerTest, UnmapReleasesFramesAndPtes) {
  ASSERT_TRUE(MapAnon(kMiB, 8 * kPageSize, /*populate=*/true).ok());
  const uint64_t free_before = phys_mgr_.free_bytes();
  auto removed = vmas_.RemoveRange(kMiB, 8 * kPageSize);
  ASSERT_TRUE(removed.ok());
  for (const Vma& piece : removed.value()) {
    ASSERT_TRUE(pager_.UnmapRange(piece).ok());
  }
  EXPECT_EQ(phys_mgr_.free_bytes(), free_before + 8 * kPageSize);
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  EXPECT_FALSE(machine_.mmu().Touch(*as_, kMiB, 1, AccessType::kRead).ok());
}

TEST_F(PagerTest, SwapOutThenMajorFaultRestoresContents) {
  ASSERT_TRUE(MapAnon(kMiB, 4 * kPageSize).ok());
  std::vector<uint8_t> data(64, 0x7e);
  ASSERT_TRUE(machine_.mmu().WriteVirt(*as_, kMiB, data).ok());
  ASSERT_TRUE(pager_.SwapOutPage(kMiB).ok());
  EXPECT_EQ(pager_.swapped_pages(), 1u);
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(machine_.mmu().ReadVirt(*as_, kMiB, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(machine_.ctx().counters().major_faults, 1u);
  EXPECT_EQ(pager_.swapped_pages(), 0u);
}

TEST_F(PagerTest, ClockReclaimEvictsUnreferencedFirst) {
  ASSERT_TRUE(MapAnon(kMiB, 8 * kPageSize, /*populate=*/true).ok());
  // Clear all referenced bits, then re-reference pages 0..3.
  for (int i = 0; i < 8; ++i) {
    pager_.TestAndClearReferenced(kMiB + static_cast<Vaddr>(i) * kPageSize);
  }
  for (int i = 0; i < 4; ++i) {
    pager_.MarkAccessed(kMiB + static_cast<Vaddr>(i) * kPageSize);
  }
  ClockReclaimer clock(&pager_);
  auto stats = clock.Reclaim(4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 4u);
  EXPECT_GE(stats->spared, 4u);
  // The referenced pages survived.
  for (int i = 0; i < 4; ++i) {
    const Vaddr va = kMiB + static_cast<Vaddr>(i) * kPageSize;
    EXPECT_TRUE(as_->page_table().Lookup(va).has_value()) << i;
  }
  EXPECT_EQ(pager_.swapped_pages(), 4u);
}

TEST_F(PagerTest, ClockReclaimScansMoreThanItReclaims) {
  ASSERT_TRUE(MapAnon(kMiB, 64 * kPageSize, /*populate=*/true).ok());
  ClockReclaimer clock(&pager_);
  // All pages start referenced (set at install), so the first revolution
  // only clears bits.
  auto stats = clock.Reclaim(8);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 8u);
  EXPECT_GT(stats->scanned, stats->reclaimed);
}

TEST_F(PagerTest, TwoQueuePromotesReferencedPages) {
  ASSERT_TRUE(MapAnon(kMiB, 16 * kPageSize, /*populate=*/true).ok());
  TwoQueueReclaimer two_q(&pager_);
  auto stats = two_q.Reclaim(4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 4u);
  // Referenced-at-install pages were promoted rather than evicted on first
  // encounter.
  EXPECT_FALSE(pager_.active_list().empty());
}

TEST_F(PagerTest, ReclaimThenTouchFaultsBackIn) {
  ASSERT_TRUE(MapAnon(kMiB, 16 * kPageSize, /*populate=*/true).ok());
  for (int i = 0; i < 16; ++i) {
    pager_.TestAndClearReferenced(kMiB + static_cast<Vaddr>(i) * kPageSize);
  }
  ClockReclaimer clock(&pager_);
  ASSERT_TRUE(clock.Reclaim(16).ok());
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  ASSERT_TRUE(machine_.mmu().Touch(*as_, kMiB + 5 * kPageSize, 1, AccessType::kRead).ok());
  EXPECT_EQ(pager_.resident_anon_pages(), 1u);
}

TEST_F(PagerTest, OutOfMemoryWhenDramExhausted) {
  // 32 MiB DRAM: populating 64 MiB of anon memory must fail with OOM.
  ASSERT_TRUE(vmas_.Insert(Vma{.start = kMiB, .end = kMiB + 64 * kMiB,
                               .prot = Prot::kReadWrite}).ok());
  Status s = pager_.Populate(*vmas_.Find(kMiB));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
}

// A file's page cache for file-backed VMAs: a backing frame is allocated on
// first use and stays with the file when its mappings go.
class CacheFile : public BackingProvider {
 public:
  explicit CacheFile(PhysManager* phys) : phys_(phys) {}

  Result<Paddr> GetBackingPage(uint64_t file_offset, bool /*for_write*/) override {
    if (auto it = pages_.find(file_offset); it != pages_.end()) {
      return it->second;
    }
    O1_ASSIGN_OR_RETURN(Paddr frame, phys_->AllocFrame(/*zero=*/true));
    pages_.emplace(file_offset, frame);
    return frame;
  }
  uint64_t backing_id() const override { return 1; }

 private:
  PhysManager* phys_;
  std::map<uint64_t, Paddr> pages_;
};

// Teardown over one anonymous VMA that holds every kind of page -- an
// unpopulated hole, a 2 MiB page, then 4 KiB pages (a split 2 MiB page)
// among them swapped-out ones, the VMA's last page included, and an
// mlocked one -- next to a populated file-backed VMA.
class TeardownTest : public PagerTest {
 protected:
  static constexpr Vaddr kAnon = 4 * kMiB;
  static constexpr uint64_t kAnonBytes = 3 * kLargePageSize;
  static constexpr Vaddr kLarge = kAnon + kLargePageSize;
  static constexpr Vaddr kSplit = kAnon + 2 * kLargePageSize;
  static constexpr Vaddr kPinned = kSplit + 100 * kPageSize;
  static constexpr Vaddr kFile = 64 * kMiB;
  static constexpr uint64_t kFilePages = 16;

  TeardownTest() : file_(&phys_mgr_) {}

  void SetUp() override {
    free_at_start_ = phys_mgr_.free_bytes();
    ASSERT_TRUE(vmas_.Insert(Vma{.start = kAnon, .end = kAnon + kAnonBytes,
                                 .prot = Prot::kReadWrite, .large_pages = true})
                    .ok());
    ASSERT_TRUE(machine_.mmu().Touch(*as_, kLarge, 1, AccessType::kWrite).ok());
    ASSERT_TRUE(machine_.mmu().Touch(*as_, kSplit, 1, AccessType::kWrite).ok());
    ASSERT_TRUE(pager_.SplitLargePage(kSplit).ok());
    ASSERT_TRUE(pager_.SwapOutPage(kSplit + 5 * kPageSize).ok());
    ASSERT_TRUE(pager_.SwapOutPage(kAnon + kAnonBytes - kPageSize).ok());
    ASSERT_TRUE(pager_.PinRange(kPinned, kPageSize).ok());
    pinned_frame_ = as_->page_table().Lookup(kPinned)->paddr;
    const Vma file{.start = kFile, .end = kFile + kFilePages * kPageSize,
                   .prot = Prot::kReadWrite, .backing = &file_};
    ASSERT_TRUE(vmas_.Insert(file).ok());
    ASSERT_TRUE(pager_.Populate(file).ok());
    ASSERT_EQ(pager_.resident_anon_pages(), 1u + 512u - 2u);
    ASSERT_EQ(pager_.swapped_pages(), 2u);
    ASSERT_EQ(swap_.used_slots(), 2u);
    ASSERT_EQ(PinnedRefcount(), 2);  // one mapping plus the pin
  }

  int32_t PinnedRefcount() { return phys_mgr_.meta().Peek(pinned_frame_).refcount; }

  // What System::Exit does to a pager: every VMA torn down in address order.
  static void ExitPager(DemandPager& pager, VmaTree& vmas, Machine& machine) {
    for (const Vma& vma : vmas.Regions()) {
      ASSERT_TRUE(pager.UnmapRange(vma).ok());
    }
    machine.mmu().FlushPending();
  }

  CacheFile file_;
  uint64_t free_at_start_ = 0;
  Paddr pinned_frame_ = 0;
};

TEST_F(TeardownTest, MunmapReleasesEveryKindOfPage) {
  for (Vaddr start : {kAnon, kFile}) {
    const uint64_t bytes = start == kAnon ? kAnonBytes : kFilePages * kPageSize;
    auto removed = vmas_.RemoveRange(start, bytes);
    ASSERT_TRUE(removed.ok());
    for (const Vma& piece : removed.value()) {
      ASSERT_TRUE(pager_.UnmapRange(piece).ok());
    }
  }
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  EXPECT_EQ(pager_.swapped_pages(), 0u);
  EXPECT_EQ(swap_.used_slots(), 0u);
  EXPECT_EQ(PinnedRefcount(), 0);  // implicit munlock, then freed
  // Only the file's cached pages stay allocated.
  EXPECT_EQ(phys_mgr_.free_bytes(), free_at_start_ - kFilePages * kPageSize);
  EXPECT_FALSE(as_->page_table().Lookup(kLarge).has_value());
  EXPECT_FALSE(as_->page_table().Lookup(kSplit).has_value());
  EXPECT_FALSE(as_->page_table().Lookup(kFile).has_value());
}

TEST_F(TeardownTest, ForkExitThenExitReleaseEveryKindOfPage) {
  const uint64_t resident = pager_.resident_anon_pages();
  const uint64_t free_before_fork = phys_mgr_.free_bytes();
  {
    std::unique_ptr<AddressSpace> child_as = machine_.CreateAddressSpace();
    VmaTree child_vmas(&machine_.ctx());
    DemandPager child(&machine_, &phys_mgr_, &swap_, child_as.get(), &child_vmas);
    for (const Vma& vma : vmas_.Regions()) {
      ASSERT_TRUE(child_vmas.Insert(vma).ok());
    }
    ASSERT_TRUE(pager_.ForkInto(child).ok());
    machine_.mmu().FlushPending();
    EXPECT_EQ(child.resident_anon_pages(), resident);
    EXPECT_EQ(child.swapped_pages(), 2u);
    EXPECT_EQ(swap_.used_slots(), 4u);
    ExitPager(child, child_vmas, machine_);
    EXPECT_EQ(child.resident_anon_pages(), 0u);
    EXPECT_EQ(child.swapped_pages(), 0u);
  }
  EXPECT_EQ(pager_.resident_anon_pages(), resident);
  EXPECT_EQ(pager_.swapped_pages(), 2u);
  EXPECT_EQ(swap_.used_slots(), 2u);
  EXPECT_EQ(phys_mgr_.free_bytes(), free_before_fork);
  // The mlock flag lives on the frame the child shared, so the child's exit
  // took the implicit munlock -- and the pin's reference -- with it.
  EXPECT_EQ(PinnedRefcount(), 1);

  ExitPager(pager_, vmas_, machine_);
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  EXPECT_EQ(pager_.swapped_pages(), 0u);
  EXPECT_EQ(swap_.used_slots(), 0u);
  EXPECT_EQ(PinnedRefcount(), 0);
  EXPECT_EQ(phys_mgr_.free_bytes(), free_at_start_ - kFilePages * kPageSize);
}

// munmap charges the pages present, not the length of the VMA: one CPU,
// eight touched pages, the same cycles whether the VMA is eight pages or
// 1 GiB and whether the touches sit together or 128 MiB apart.
TEST(MunmapCostTest, ChargesPresentPagesNotVmaLength) {
  const auto munmap_cycles = [](uint64_t vma_bytes, uint64_t stride) -> uint64_t {
    SystemConfig config;
    config.machine.dram_bytes = 256 * kMiB;
    config.machine.nvm_bytes = 256 * kMiB;
    System sys(config);
    auto proc = sys.Launch(Backend::kBaseline);
    EXPECT_TRUE(proc.ok());
    auto vaddr = sys.Mmap(**proc, MmapArgs{.length = vma_bytes});
    EXPECT_TRUE(vaddr.ok());
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(sys.UserTouch(**proc, *vaddr + i * stride, 1, AccessType::kWrite).ok());
    }
    const uint64_t t0 = sys.ctx().now();
    EXPECT_TRUE(sys.Munmap(**proc, *vaddr, vma_bytes).ok());
    return sys.ctx().now() - t0;
  };
  const uint64_t small = munmap_cycles(8 * kPageSize, kPageSize);
  EXPECT_EQ(small, 7970u);
  EXPECT_EQ(munmap_cycles(kGiB, kPageSize), small);
  EXPECT_EQ(munmap_cycles(kGiB, 128 * kMiB), small);
}

}  // namespace
}  // namespace o1mem
