// fork(2) semantics: baseline copy-on-write vs FOM share-on-fork.
//
// The paper gives up copy-on-write under file-only memory (Sec. 3.1), so the
// two backends genuinely diverge here: baseline children get private copies
// (made lazily on first write), FOM children share the same segment files.
// These tests nail down both behaviours and the COW machinery's corner
// cases.
#include <gtest/gtest.h>

#include "src/os/system.h"

namespace o1mem {
namespace {

SystemConfig ForkConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 256 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  return config;
}

class ForkTest : public ::testing::Test {
 protected:
  ForkTest() : sys_(ForkConfig()) {}

  Status WriteByte(Process& proc, Vaddr vaddr, uint8_t value) {
    return sys_.UserWrite(proc, vaddr, std::span<const uint8_t>(&value, 1));
  }
  Result<uint8_t> ReadByte(Process& proc, Vaddr vaddr) {
    uint8_t value = 0;
    O1_RETURN_IF_ERROR(sys_.UserRead(proc, vaddr, std::span<uint8_t>(&value, 1)));
    return value;
  }

  System sys_;
};

TEST_F(ForkTest, BaselineChildSeesParentDataThenDiverges) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 16 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 7).ok());

  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  // Child sees the parent's data...
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 7);
  // ...but writes diverge: COW gives each side a private copy.
  ASSERT_TRUE(WriteByte(**child, *vaddr, 42).ok());
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 42);
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 7);
  // Parent writes after the break stay private too.
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 9).ok());
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 9);
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 42);
}

TEST_F(ForkTest, CowCopiesOnlyWrittenPages) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 64 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  const uint64_t frames_before = sys_.ctx().counters().frames_allocated;
  // Child writes 3 pages: exactly 3 frames get copied.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(WriteByte(**child, *vaddr + static_cast<Vaddr>(i) * kPageSize, 1).ok());
  }
  EXPECT_EQ(sys_.ctx().counters().frames_allocated, frames_before + 3);
  // Reads never copy.
  EXPECT_TRUE(sys_.UserTouch(**child, *vaddr + 10 * kPageSize, 1, AccessType::kRead).ok());
  EXPECT_EQ(sys_.ctx().counters().frames_allocated, frames_before + 3);
}

TEST_F(ForkTest, ParentWriteAfterForkBreaksCowToo) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 4 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 1).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  // Parent writes first this time.
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 2).ok());
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 1);
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 2);
}

TEST_F(ForkTest, ExitOfEitherSideLeavesTheOtherIntact) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 8 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 5).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  Process* child_ptr = *child;
  ASSERT_TRUE(sys_.Exit(*parent).ok());
  // The shared frames survive via refcount; child still reads its data.
  EXPECT_EQ(ReadByte(*child_ptr, *vaddr).value(), 5);
  ASSERT_TRUE(WriteByte(*child_ptr, *vaddr, 6).ok());
  EXPECT_EQ(ReadByte(*child_ptr, *vaddr).value(), 6);
  const uint64_t free_before = sys_.phys_manager().free_bytes();
  ASSERT_TRUE(sys_.Exit(child_ptr).ok());
  EXPECT_GT(sys_.phys_manager().free_bytes(), free_before);
}

TEST_F(ForkTest, SwappedPagesAreForkedToo) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 4 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr + kPageSize, 0x5e).ok());
  ASSERT_TRUE((*parent)->pager().SwapOutPage(*vaddr + kPageSize).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  // Both fault their copy back in independently.
  EXPECT_EQ(ReadByte(**child, *vaddr + kPageSize).value(), 0x5e);
  ASSERT_TRUE(WriteByte(**child, *vaddr + kPageSize, 1).ok());
  EXPECT_EQ(ReadByte(**parent, *vaddr + kPageSize).value(), 0x5e);
}

TEST_F(ForkTest, FileMappingsStayShared) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto fd = sys_.Creat(**parent, sys_.pmfs(), "/shared/f", FileFlags{});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(sys_.Ftruncate(**parent, *fd, 4 * kPageSize).ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 4 * kPageSize, .populate = true,
                                            .fd = *fd});
  ASSERT_TRUE(vaddr.ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  // File mappings are MAP_SHARED in this model: both sides see one copy.
  ASSERT_TRUE(WriteByte(**child, *vaddr, 0x77).ok());
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 0x77);
}

// A 2 MiB page comes straight from the buddy, so its install must take the
// mapping's reference itself: after fork the two sides then hold two, a
// write copies, and one side's exit does not free the other's page.
TEST_F(ForkTest, LargePageIsSharedCopyOnWrite) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = kLargePageSize, .populate = true,
                                            .large_pages = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 1).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(WriteByte(**child, *vaddr, 2).ok());
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 1);
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 2);
  const uint64_t free_before = sys_.phys_manager().free_bytes();
  ASSERT_TRUE(sys_.Exit(*child).ok());
  EXPECT_EQ(sys_.phys_manager().free_bytes(), free_before + kLargePageSize);
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 1);
}

// Splitting a 2 MiB page that a fork still shares would give each 4 KiB
// frame a refcount of 1 while the child still maps the whole block: the
// child's exit would then free the block under the parent, and the parent's
// exit would free it again. The split is refused instead (kBusy, as swap-out
// refuses a shared 4 KiB page), so each side's exit frees the block once.
TEST(ForkLargePageTest, SplitOfSharedLargePageIsRefusedAndEachExitFreesOnce) {
  SystemConfig config;
  config.machine.dram_bytes = 64 * kMiB;
  config.machine.nvm_bytes = 64 * kMiB;
  System sys(config);
  const uint64_t free_at_start = sys.phys_manager().free_bytes();
  auto parent = sys.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys.Mmap(**parent, MmapArgs{.length = kLargePageSize, .populate = true,
                                           .large_pages = true});
  ASSERT_TRUE(vaddr.ok());
  const uint8_t one = 1;
  ASSERT_TRUE(sys.UserWrite(**parent, *vaddr, std::span<const uint8_t>(&one, 1)).ok());
  const uint64_t free_before_fork = sys.phys_manager().free_bytes();
  auto child = sys.Fork(**parent);
  ASSERT_TRUE(child.ok());
  EXPECT_EQ((*parent)->pager().SplitLargePage(*vaddr).code(), StatusCode::kBusy);

  ASSERT_TRUE(sys.Exit(*child).ok());
  // The child gives back what the fork took and nothing of the shared block.
  EXPECT_EQ(sys.phys_manager().free_bytes(), free_before_fork);
  uint8_t read = 0;
  ASSERT_TRUE(sys.UserRead(**parent, *vaddr, std::span<uint8_t>(&read, 1)).ok());
  EXPECT_EQ(read, 1);

  ASSERT_TRUE(sys.Exit(*parent).ok());
  EXPECT_LE(sys.phys_manager().free_bytes(), config.machine.dram_bytes);
  EXPECT_EQ(sys.phys_manager().free_bytes(), free_at_start);
}

// mprotect rewrites every PTE in its range, but a page still shared
// copy-on-write must stay write-protected there: otherwise the next write
// lands in the frame the other side still maps.
TEST_F(ForkTest, ParentMprotectAfterForkKeepsCowPagesWriteProtected) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 4 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 1).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(sys_.Mprotect(**parent, *vaddr, 4 * kPageSize, Prot::kReadWrite).ok());
  const uint64_t frames_before = sys_.ctx().counters().frames_allocated;
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 2).ok());
  EXPECT_EQ(sys_.ctx().counters().frames_allocated, frames_before + 1);  // COW copy
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 2);
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 1);
}

TEST_F(ForkTest, ChildMprotectRoundTripAfterForkKeepsCowPagesWriteProtected) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 4 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 5).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(sys_.Mprotect(**child, *vaddr, 4 * kPageSize, Prot::kRead).ok());
  ASSERT_TRUE(sys_.Mprotect(**child, *vaddr, 4 * kPageSize, Prot::kReadWrite).ok());
  ASSERT_TRUE(WriteByte(**child, *vaddr, 6).ok());
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 6);
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 5);
}

// A pin raises the frame's refcount, not its mapcount, so mprotect restores
// write on a pinned page that no sibling maps: the write lands in place and
// the pinned frame is not copied away from under the pin.
TEST_F(ForkTest, MprotectRestoresWriteOnPinnedUnsharedPage) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 4 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(sys_.Mlock(**proc, *vaddr, kPageSize).ok());
  const Paddr pinned = (*proc)->address_space().page_table().Lookup(*vaddr)->paddr;
  ASSERT_TRUE(sys_.Mprotect(**proc, *vaddr, 4 * kPageSize, Prot::kRead).ok());
  ASSERT_TRUE(sys_.Mprotect(**proc, *vaddr, 4 * kPageSize, Prot::kReadWrite).ok());
  const uint64_t faults_before = sys_.ctx().counters().minor_faults;
  ASSERT_TRUE(WriteByte(**proc, *vaddr, 3).ok());
  EXPECT_EQ(sys_.ctx().counters().minor_faults, faults_before);
  EXPECT_EQ((*proc)->address_space().page_table().Lookup(*vaddr)->paddr, pinned);
}

TEST_F(ForkTest, FomForkSharesSegments) {
  auto parent = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 4 * kMiB});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 3).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  // Same addresses, same memory: writes are visible both ways (the COW
  // casualty the paper concedes).
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 3);
  ASSERT_TRUE(WriteByte(**child, *vaddr, 4).ok());
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 4);
  // And the segment file's map refcount reflects both processes.
  const InodeId inode = (*parent)->fom().mappings().at(*vaddr).inode;
  EXPECT_EQ(sys_.pmfs().Stat(inode)->map_count, 2u);
  ASSERT_TRUE(sys_.Exit(*parent).ok());
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 4);  // child keeps it alive
}

TEST_F(ForkTest, FomForkIsCheapBaselineForkIsLinear) {
  auto baseline_parent = sys_.Launch(Backend::kBaseline);
  auto fom_parent = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(baseline_parent.ok());
  ASSERT_TRUE(fom_parent.ok());
  ASSERT_TRUE(
      sys_.Mmap(**baseline_parent, MmapArgs{.length = 64 * kMiB, .populate = true}).ok());
  ASSERT_TRUE(sys_.Mmap(**fom_parent, MmapArgs{.length = 64 * kMiB}).ok());

  const uint64_t t0 = sys_.ctx().now();
  ASSERT_TRUE(sys_.Fork(**baseline_parent).ok());
  const uint64_t baseline_cost = sys_.ctx().now() - t0;
  const uint64_t t1 = sys_.ctx().now();
  ASSERT_TRUE(sys_.Fork(**fom_parent).ok());
  const uint64_t fom_cost = sys_.ctx().now() - t1;
  EXPECT_GT(baseline_cost, 50 * fom_cost);
}

TEST_F(ForkTest, DescriptorsInherited) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto fd = sys_.Creat(**parent, sys_.pmfs(), "/fds/f", FileFlags{});
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data{1, 2, 3};
  ASSERT_TRUE(sys_.Write(**parent, *fd, data).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  std::vector<uint8_t> out(3);
  ASSERT_TRUE(sys_.Pread(**child, *fd, 0, out).ok());
  EXPECT_EQ(out, data);
  // Closing in the child does not close the parent's descriptor.
  ASSERT_TRUE(sys_.Close(**child, *fd).ok());
  EXPECT_TRUE(sys_.Pread(**parent, *fd, 0, out).ok());
}

TEST_F(ForkTest, GrandchildrenWork) {
  auto parent = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(parent.ok());
  auto vaddr = sys_.Mmap(**parent, MmapArgs{.length = 4 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(WriteByte(**parent, *vaddr, 1).ok());
  auto child = sys_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  auto grandchild = sys_.Fork(**child);
  ASSERT_TRUE(grandchild.ok());
  EXPECT_EQ(ReadByte(**grandchild, *vaddr).value(), 1);
  ASSERT_TRUE(WriteByte(**grandchild, *vaddr, 3).ok());
  EXPECT_EQ(ReadByte(**parent, *vaddr).value(), 1);
  EXPECT_EQ(ReadByte(**child, *vaddr).value(), 1);
  EXPECT_EQ(ReadByte(**grandchild, *vaddr).value(), 3);
}

}  // namespace
}  // namespace o1mem
