// Tests for the extension features: large pages (+ huge-page splitting),
// memory pinning, userfault delegation, and virtualized page walks.
#include <gtest/gtest.h>

#include "src/os/system.h"

namespace o1mem {
namespace {

SystemConfig FeatureConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 256 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  return config;
}

class LargePageTest : public ::testing::Test {
 protected:
  LargePageTest() : sys_(FeatureConfig()) {
    auto proc = sys_.Launch(Backend::kBaseline);
    O1_CHECK(proc.ok());
    proc_ = *proc;
  }

  System sys_;
  Process* proc_ = nullptr;
};

TEST_F(LargePageTest, FaultInstallsOne2MiBPage) {
  auto vaddr = sys_.Mmap(*proc_, MmapArgs{.length = 8 * kMiB, .large_pages = true});
  ASSERT_TRUE(vaddr.ok());
  EXPECT_TRUE(IsAligned(*vaddr, kLargePageSize));
  const uint64_t faults_before = sys_.ctx().counters().minor_faults;
  // Touch 2 MiB worth of 4K pages: one fault covers them all.
  for (uint64_t off = 0; off < kLargePageSize; off += kPageSize) {
    ASSERT_TRUE(sys_.UserTouch(*proc_, *vaddr + off, 1, AccessType::kRead).ok());
  }
  EXPECT_EQ(sys_.ctx().counters().minor_faults, faults_before + 1);
  auto t = proc_->address_space().page_table().Lookup(*vaddr);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->page_bytes, kLargePageSize);
}

TEST_F(LargePageTest, PopulateUsesFarFewerOperations) {
  auto small = sys_.Mmap(*proc_, MmapArgs{.length = 32 * kMiB, .populate = true});
  ASSERT_TRUE(small.ok());
  const uint64_t ptes_small = sys_.ctx().counters().ptes_written;
  auto large = sys_.Mmap(
      *proc_, MmapArgs{.length = 32 * kMiB, .populate = true, .large_pages = true});
  ASSERT_TRUE(large.ok());
  const uint64_t ptes_large = sys_.ctx().counters().ptes_written - ptes_small;
  EXPECT_EQ(ptes_large, 16u);  // 32 MiB / 2 MiB leaves
}

TEST_F(LargePageTest, DataRoundTripsThroughLargePages) {
  auto vaddr = sys_.Mmap(
      *proc_, MmapArgs{.length = 4 * kMiB, .populate = true, .large_pages = true});
  ASSERT_TRUE(vaddr.ok());
  std::vector<uint8_t> data(kPageSize * 3, 0x4d);
  ASSERT_TRUE(sys_.UserWrite(*proc_, *vaddr + kLargePageSize - kPageSize, data).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(sys_.UserRead(*proc_, *vaddr + kLargePageSize - kPageSize, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(LargePageTest, MisuseRejected) {
  // File-backed or non-2MiB-multiple requests cannot use large pages.
  EXPECT_FALSE(
      sys_.Mmap(*proc_, MmapArgs{.length = kMiB, .large_pages = true}).ok());
  auto fd = sys_.Creat(*proc_, sys_.tmpfs(), "/f", FileFlags{});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(sys_.Ftruncate(*proc_, *fd, 2 * kMiB).ok());
  EXPECT_FALSE(sys_.Mmap(*proc_, MmapArgs{.length = 2 * kMiB, .large_pages = true,
                                          .fd = *fd})
                   .ok());
}

TEST_F(LargePageTest, PartialUnmapRejectedWholeUnmapWorks) {
  auto vaddr = sys_.Mmap(
      *proc_, MmapArgs{.length = 4 * kMiB, .populate = true, .large_pages = true});
  ASSERT_TRUE(vaddr.ok());
  EXPECT_EQ(sys_.Munmap(*proc_, *vaddr, 2 * kMiB).code(), StatusCode::kUnsupported);
  const uint64_t free_before = sys_.phys_manager().free_bytes();
  ASSERT_TRUE(sys_.Munmap(*proc_, *vaddr, 4 * kMiB).ok());
  EXPECT_EQ(sys_.phys_manager().free_bytes(), free_before + 4 * kMiB);
  EXPECT_FALSE(sys_.UserTouch(*proc_, *vaddr, 1, AccessType::kRead).ok());
}

TEST_F(LargePageTest, SwapOutSplitsHugePageFirst) {
  // The paper: "2MB pages are expensive to swap and Linux instead fragments
  // them into 4KB pages".
  const uint64_t resident_base = proc_->pager().resident_anon_pages();  // launch segments
  auto vaddr = sys_.Mmap(
      *proc_, MmapArgs{.length = 2 * kMiB, .populate = true, .large_pages = true});
  ASSERT_TRUE(vaddr.ok());
  std::vector<uint8_t> data(64, 0x99);
  ASSERT_TRUE(sys_.UserWrite(*proc_, *vaddr + 5 * kPageSize, data).ok());
  EXPECT_EQ(proc_->pager().resident_anon_pages(), resident_base + 1);  // one 2 MiB entry

  const uint64_t ptes_before = sys_.ctx().counters().ptes_written;
  ASSERT_TRUE(proc_->pager().SwapOutPage(*vaddr).ok());
  // Split wrote 512 PTEs, then one page went to swap.
  EXPECT_GE(sys_.ctx().counters().ptes_written, ptes_before + 512);
  EXPECT_EQ(proc_->pager().resident_anon_pages(), resident_base + 511);
  EXPECT_EQ(proc_->pager().swapped_pages(), 1u);
  // Untouched data in the split remainder is intact, and the swapped page
  // faults back in with its contents.
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(sys_.UserRead(*proc_, *vaddr + 5 * kPageSize, out).ok());
  EXPECT_EQ(out, data);
}

class PinTest : public ::testing::Test {
 protected:
  PinTest() : sys_(FeatureConfig()) {}

  static bool Mapped(Process& proc, Vaddr vaddr) {
    return proc.address_space().page_table().Lookup(vaddr).has_value();
  }

  System sys_;
};

TEST_F(PinTest, PinnedPagesSurviveReclaim) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 16 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(sys_.Mlock(**proc, *vaddr, 8 * kPageSize).ok());
  for (int i = 0; i < 16; ++i) {
    (*proc)->pager().TestAndClearReferenced(*vaddr + static_cast<Vaddr>(i) * kPageSize);
  }
  auto stats = sys_.ReclaimBaseline(**proc, 8, System::ReclaimPolicy::kClock);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 8u);  // only the unpinned half went out
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(Mapped(**proc, *vaddr + static_cast<Vaddr>(i) * kPageSize)) << i;
  }
  ASSERT_TRUE(sys_.Munlock(**proc, *vaddr, 8 * kPageSize).ok());
  auto more = sys_.ReclaimBaseline(**proc, 8, System::ReclaimPolicy::kClock);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(more->reclaimed, 8u);  // now they can go
}

TEST_F(PinTest, PinFaultsPagesInFirst) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  const uint64_t resident_base = (*proc)->pager().resident_anon_pages();
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 8 * kPageSize});
  ASSERT_TRUE(vaddr.ok());
  EXPECT_EQ((*proc)->pager().resident_anon_pages(), resident_base);
  const uint64_t faults_before = sys_.ctx().counters().minor_faults;
  ASSERT_TRUE(sys_.Mlock(**proc, *vaddr, 8 * kPageSize).ok());
  EXPECT_EQ((*proc)->pager().resident_anon_pages(), resident_base + 8);
  // One minor fault per page faulted in, as touching the pages would count.
  EXPECT_EQ(sys_.ctx().counters().minor_faults - faults_before, 8u);
}

// munlock(2) succeeds on any mapped range: pages never touched, and touched
// pages never locked, hold no pin and are skipped. Only unmapped space fails.
TEST_F(PinTest, MunlockSkipsPagesHoldingNoPin) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 8 * kPageSize});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(sys_.UserTouch(**proc, *vaddr, 4 * kPageSize, AccessType::kWrite).ok());
  EXPECT_TRUE(sys_.Munlock(**proc, *vaddr, 8 * kPageSize).ok());
  EXPECT_EQ(sys_.Munlock(**proc, /*vaddr=*/0, kPageSize).code(), StatusCode::kNotFound);
}

TEST_F(PinTest, FomMlockIsValidationOnly) {
  auto proc = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 8 * kMiB});
  ASSERT_TRUE(vaddr.ok());
  const uint64_t t0 = sys_.ctx().now();
  ASSERT_TRUE(sys_.Mlock(**proc, *vaddr, 8 * kMiB).ok());
  // O(1): just the syscall + lookup, no per-page loop.
  EXPECT_LT(sys_.ctx().now() - t0, 5000u);
  EXPECT_FALSE(sys_.Mlock(**proc, *vaddr + kPageSize, kPageSize).ok());
}

// Runs mmap 4 pages, touch them, `mlocks` x Mlock, `munlocks` x Munlock and
// Munmap on a fresh baseline System; returns DRAM's free bytes after that.
uint64_t DramFreeAfterPinCycle(int mlocks, int munlocks) {
  System sys(FeatureConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = 4 * kPageSize});
  O1_CHECK(vaddr.ok());
  EXPECT_TRUE(sys.UserTouch(**proc, *vaddr, 4 * kPageSize, AccessType::kWrite).ok());
  for (int i = 0; i < mlocks; ++i) {
    EXPECT_TRUE(sys.Mlock(**proc, *vaddr, 4 * kPageSize).ok());
  }
  for (int i = 0; i < munlocks; ++i) {
    EXPECT_TRUE(sys.Munlock(**proc, *vaddr, 4 * kPageSize).ok());
  }
  EXPECT_TRUE(sys.Munmap(**proc, *vaddr, 4 * kPageSize).ok());
  return sys.Occupancy().dram_free_bytes;
}

// mlock(2) is idempotent: locking a locked page takes no second pin, so the
// munmap (with or without one munlock first) gives every frame back.
TEST(RepeatPinTest, SecondMlockThenMunmapFreesEveryFrame) {
  EXPECT_EQ(DramFreeAfterPinCycle(2, /*munlocks=*/0), DramFreeAfterPinCycle(1, /*munlocks=*/0));
}

TEST(RepeatPinTest, SecondMlockThenMunlockAndMunmapFreesEveryFrame) {
  EXPECT_EQ(DramFreeAfterPinCycle(2, /*munlocks=*/1), DramFreeAfterPinCycle(1, /*munlocks=*/1));
}

// So is munlock(2): a second munlock succeeds and drops no reference the
// pages do not hold.
TEST(RepeatPinTest, SecondMunlockThenMunmapFreesEveryFrame) {
  EXPECT_EQ(DramFreeAfterPinCycle(1, /*munlocks=*/2), DramFreeAfterPinCycle(1, /*munlocks=*/1));
}

class CountingUserFault : public System::UserFaultHandler {
 public:
  explicit CountingUserFault(System* sys) : sys_(sys) {}

  Status OnUserFault(Process& proc, Vaddr page_base, AccessType type) override {
    (void)type;
    ++faults;
    if (provide) {
      std::vector<uint8_t> data(kPageSize, 0xCD);
      return proc.pager().ProvidePage(page_base, data);
    }
    return OkStatus();  // let the kernel install a zero page
  }

  int faults = 0;
  bool provide = false;

 private:
  System* sys_;
};

class UserFaultTest : public ::testing::Test {
 protected:
  UserFaultTest() : sys_(FeatureConfig()) {}
  System sys_;
};

TEST_F(UserFaultTest, HandlerSeesFaultsInRegisteredRange) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 16 * kPageSize});
  ASSERT_TRUE(vaddr.ok());
  CountingUserFault handler(&sys_);
  ASSERT_TRUE(sys_.RegisterUserFault(**proc, *vaddr, 8 * kPageSize, &handler).ok());
  // Faults inside the range hit the handler; outside they do not.
  ASSERT_TRUE(sys_.UserTouch(**proc, *vaddr, 1, AccessType::kRead).ok());
  ASSERT_TRUE(sys_.UserTouch(**proc, *vaddr + 10 * kPageSize, 1, AccessType::kRead).ok());
  EXPECT_EQ(handler.faults, 1);
  // Kernel fallback installed a zero page.
  std::vector<uint8_t> out(4, 0xff);
  ASSERT_TRUE(sys_.UserRead(**proc, *vaddr, out).ok());
  EXPECT_EQ(out[0], 0);
}

TEST_F(UserFaultTest, HandlerProvidesItsOwnContents) {
  // App-level swapping: the handler supplies page contents (UFFDIO_COPY).
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 4 * kPageSize});
  ASSERT_TRUE(vaddr.ok());
  CountingUserFault handler(&sys_);
  handler.provide = true;
  ASSERT_TRUE(sys_.RegisterUserFault(**proc, *vaddr, 4 * kPageSize, &handler).ok());
  std::vector<uint8_t> out(8);
  ASSERT_TRUE(sys_.UserRead(**proc, *vaddr + kPageSize, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0xCD);
  }
  EXPECT_EQ(handler.faults, 1);
}

TEST_F(UserFaultTest, OverlapAndFomRejected) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 8 * kPageSize});
  ASSERT_TRUE(vaddr.ok());
  CountingUserFault handler(&sys_);
  ASSERT_TRUE(sys_.RegisterUserFault(**proc, *vaddr, 4 * kPageSize, &handler).ok());
  EXPECT_FALSE(sys_.RegisterUserFault(**proc, *vaddr + kPageSize, kPageSize, &handler).ok());
  auto fom_proc = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(fom_proc.ok());
  EXPECT_EQ(sys_.RegisterUserFault(**fom_proc, 0, kPageSize, &handler).code(),
            StatusCode::kUnsupported);
}

TEST(VirtualizedWalkTest, NestedWalksCostMore) {
  auto run = [](bool virtualized, int depth) {
    MachineConfig config;
    config.dram_bytes = 16 * kMiB;
    config.nvm_bytes = 0;
    config.cost.virtualized_walks = virtualized;
    config.page_table_depth = depth;
    Machine machine(config);
    auto as = machine.CreateAddressSpace();
    O1_CHECK(as->page_table().MapPage(0, 0, kPageSize, Prot::kRead).ok());
    const uint64_t t0 = machine.ctx().now();
    O1_CHECK(machine.mmu().Translate(*as, 0, AccessType::kRead).ok());
    return machine.ctx().now() - t0;
  };
  const uint64_t native4 = run(false, 4);
  const uint64_t native5 = run(false, 5);
  const uint64_t virt4 = run(true, 4);
  const uint64_t virt5 = run(true, 5);
  EXPECT_GT(native5, native4);
  // 24/4 = 6x and 35/5 = 7x reference blowup for cold walks (modulo the
  // 1-cycle TLB-insert constant shared by all four).
  EXPECT_EQ(virt4 - 1, 6 * (native4 - 1));
  EXPECT_EQ(virt5 - 1, 7 * (native5 - 1));
}

TEST(VirtualizedWalkTest, WalkRefsMatchPaperNumbers) {
  CostModel cost;
  EXPECT_EQ(cost.WalkRefs(4), 4u);
  cost.virtualized_walks = true;
  EXPECT_EQ(cost.WalkRefs(4), 24u);
  EXPECT_EQ(cost.WalkRefs(5), 35u);  // Sec. 2: "up to 35 memory references"
}

}  // namespace
}  // namespace o1mem
