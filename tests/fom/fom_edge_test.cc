// Edge cases of the file-only memory manager: fragmented files under every
// mechanism, pressure interplay with mapped files, config variants, rollback
// paths.
#include <gtest/gtest.h>

#include "src/fom/fom_manager.h"

namespace o1mem {
namespace {

class FomEdgeTest : public ::testing::Test {
 protected:
  FomEdgeTest()
      : machine_(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 512 * kMiB}),
        pmfs_(&machine_, machine_.phys().nvm_base(), 512 * kMiB),
        fom_(&machine_, &pmfs_),
        proc_(fom_.CreateProcess()) {}

  // Creates a file guaranteed to have >= 2 extents by fragmenting first.
  InodeId MakeFragmented(uint64_t bytes) {
    auto f1 = fom_.CreateSegment("/frag/fill1", 200 * kMiB);
    auto f2 = fom_.CreateSegment("/frag/fill2", 200 * kMiB);
    O1_CHECK(f1.ok() && f2.ok());
    O1_CHECK(fom_.DeleteSegment("/frag/fill1").ok());
    auto target = fom_.CreateSegment("/frag/target", bytes);
    O1_CHECK(target.ok());
    O1_CHECK(pmfs_.Stat(*target)->extent_count >= 2);
    return *target;
  }

  Machine machine_;
  Pmfs pmfs_;
  FomManager fom_;
  std::unique_ptr<FomProcess> proc_;
};

TEST_F(FomEdgeTest, FragmentedFileMapsCorrectlyViaRanges) {
  const InodeId inode = MakeFragmented(210 * kMiB);
  auto vaddr = fom_.Map(*proc_, inode, Prot::kReadWrite,
                        MapOptions{.mechanism = MapMechanism::kRangeTable});
  ASSERT_TRUE(vaddr.ok());
  const auto extents = pmfs_.Extents(inode).value();
  EXPECT_EQ(proc_->address_space().range_table().size(), extents.size());
  // Write across the extent seam and read back.
  const uint64_t seam = extents.front().bytes;
  std::vector<uint8_t> data(4096, 0x6e);
  ASSERT_TRUE(machine_.mmu()
                  .WriteVirt(proc_->address_space(), *vaddr + seam - 2048, data)
                  .ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(machine_.mmu()
                  .ReadVirt(proc_->address_space(), *vaddr + seam - 2048, out)
                  .ok());
  EXPECT_EQ(out, data);
  // Unmap removes every range entry.
  ASSERT_TRUE(fom_.Unmap(*proc_, *vaddr).ok());
  EXPECT_EQ(proc_->address_space().range_table().size(), 0u);
}

TEST_F(FomEdgeTest, FragmentedFileMapsCorrectlyViaSplice) {
  const InodeId inode = MakeFragmented(210 * kMiB);
  auto vaddr = fom_.Map(*proc_, inode, Prot::kReadWrite,
                        MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(vaddr.ok());
  const auto extents = pmfs_.Extents(inode).value();
  const uint64_t seam = extents.front().bytes;
  // Translate across the seam: two adjacent virtual pages hit two extents.
  auto before = machine_.mmu().Translate(proc_->address_space(), *vaddr + seam - kPageSize,
                                         AccessType::kRead);
  auto after =
      machine_.mmu().Translate(proc_->address_space(), *vaddr + seam, AccessType::kRead);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->paddr, extents.front().paddr + seam - kPageSize);
  EXPECT_EQ(after->paddr, extents[1].paddr);
}

TEST_F(FomEdgeTest, PressureSkipsMappedDiscardables) {
  auto mapped = fom_.CreateSegment(
      "/cache/mapped", 32 * kMiB, SegmentOptions{.flags = FileFlags{.discardable = true}});
  auto idle = fom_.CreateSegment(
      "/cache/idle", 32 * kMiB, SegmentOptions{.flags = FileFlags{.discardable = true}});
  ASSERT_TRUE(mapped.ok() && idle.ok());
  auto vaddr = fom_.Map(*proc_, *mapped, Prot::kRead);
  ASSERT_TRUE(vaddr.ok());
  auto released = fom_.HandlePressure(16 * kMiB);
  ASSERT_TRUE(released.ok());
  EXPECT_GE(released.value(), 16 * kMiB);
  EXPECT_TRUE(pmfs_.LookupPath("/cache/mapped").ok());   // in use: spared
  EXPECT_FALSE(pmfs_.LookupPath("/cache/idle").ok());    // idle: deleted
  // The mapping still works.
  EXPECT_TRUE(machine_.mmu()
                  .Touch(proc_->address_space(), *vaddr, 1, AccessType::kRead)
                  .ok());
}

TEST_F(FomEdgeTest, PressureWithNothingDiscardableReleasesZero) {
  ASSERT_TRUE(fom_.CreateSegment("/data/vital", 32 * kMiB).ok());
  auto released = fom_.HandlePressure(kMiB);
  ASSERT_TRUE(released.ok());
  EXPECT_EQ(released.value(), 0u);
}

TEST_F(FomEdgeTest, LazyTableBuildOnFirstSpliceMap) {
  FomConfig config;
  config.precreate_page_tables = false;
  FomManager lazy_fom(&machine_, &pmfs_, config);
  auto proc = lazy_fom.CreateProcess();
  const uint64_t nodes_before = machine_.ctx().counters().pt_nodes_allocated;
  auto inode = lazy_fom.CreateSegment("/lazy/seg", 8 * kMiB);
  ASSERT_TRUE(inode.ok());
  // No tables were built at creation.
  EXPECT_EQ(machine_.ctx().counters().pt_nodes_allocated, nodes_before);
  EXPECT_EQ(lazy_fom.precreated_node_count(), 0u);
  // First splice map builds them; range map would not need them at all.
  auto vaddr = lazy_fom.Map(*proc, *inode, Prot::kReadWrite,
                            MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(vaddr.ok());
  EXPECT_EQ(lazy_fom.precreated_node_count(), 2 * 4u);  // RO+RW, 4 windows
}

TEST_F(FomEdgeTest, RangeMapNeedsNoTablesEver) {
  FomConfig config;
  config.precreate_page_tables = false;
  FomManager lazy_fom(&machine_, &pmfs_, config);
  auto proc = lazy_fom.CreateProcess();
  auto inode = lazy_fom.CreateSegment("/lazy/r", 8 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto vaddr = lazy_fom.Map(*proc, *inode, Prot::kRead,
                            MapOptions{.mechanism = MapMechanism::kRangeTable});
  ASSERT_TRUE(vaddr.ok());
  EXPECT_EQ(lazy_fom.precreated_node_count(), 0u);
}

TEST_F(FomEdgeTest, DoubleMapSameFileInOneProcess) {
  auto inode = fom_.CreateSegment("/dup/seg", 4 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto v1 = fom_.Map(*proc_, *inode, Prot::kReadWrite);
  auto v2 = fom_.Map(*proc_, *inode, Prot::kRead);
  ASSERT_TRUE(v1.ok() && v2.ok());
  EXPECT_NE(*v1, *v2);
  EXPECT_EQ(pmfs_.Stat(*inode)->map_count, 2u);
  // Aliases see each other's data.
  std::vector<uint8_t> data{1, 2, 3};
  ASSERT_TRUE(machine_.mmu().WriteVirt(proc_->address_space(), *v1 + 100, data).ok());
  std::vector<uint8_t> out(3);
  ASSERT_TRUE(machine_.mmu().ReadVirt(proc_->address_space(), *v2 + 100, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(fom_.Unmap(*proc_, *v1).ok());
  ASSERT_TRUE(fom_.Unmap(*proc_, *v2).ok());
  EXPECT_EQ(pmfs_.Stat(*inode)->map_count, 0u);
}

TEST_F(FomEdgeTest, ProtectByNonBaseAddressRejected) {
  auto inode = fom_.CreateSegment("/p/seg", 4 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto vaddr = fom_.Map(*proc_, *inode, Prot::kReadWrite);
  ASSERT_TRUE(vaddr.ok());
  EXPECT_FALSE(fom_.Protect(*proc_, *vaddr + kPageSize, Prot::kRead).ok());
  EXPECT_TRUE(fom_.Protect(*proc_, *vaddr, Prot::kRead).ok());
}

TEST_F(FomEdgeTest, SpliceFixedVaddrMisalignmentRejected) {
  auto inode = fom_.CreateSegment("/a/seg", 4 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto bad = fom_.Map(*proc_, *inode, Prot::kRead,
                      MapOptions{.mechanism = MapMechanism::kPtSplice,
                                 .fixed_vaddr = fom_.config().map_region_base + kPageSize});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// A resize changes the file's extents, so a splice map must not reuse the
// table set cached for the old ones: a shrunk segment must not translate
// into the blocks it freed, and a grown one must translate its new tail.
TEST_F(FomEdgeTest, SpliceAfterShrinkDoesNotReachFreedBlocks) {
  auto inode = fom_.CreateSegment("/resize/shrunk", 4 * kMiB,
                                  SegmentOptions{.flags = FileFlags{.persistent = true}});
  ASSERT_TRUE(inode.ok());
  const MapOptions splice{.mechanism = MapMechanism::kPtSplice};
  auto before = fom_.Map(*proc_, *inode, Prot::kReadWrite, splice);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(fom_.Unmap(*proc_, *before).ok());
  ASSERT_TRUE(pmfs_.Resize(*inode, 8 * kKiB).ok());

  auto vaddr = fom_.Map(*proc_, *inode, Prot::kReadWrite, splice);
  ASSERT_TRUE(vaddr.ok());
  const Paddr base = pmfs_.Extents(*inode)->front().paddr;
  auto kept =
      machine_.mmu().Translate(proc_->address_space(), *vaddr + kPageSize, AccessType::kRead);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->paddr, base + kPageSize);
  auto freed = machine_.mmu().Translate(proc_->address_space(), *vaddr + kMiB, AccessType::kRead);
  EXPECT_FALSE(freed.ok()) << "translated into a freed block at paddr " << freed->paddr;
  // The persistent segment's sidecar was validated and rewritten for the
  // new size: header plus one paddr per page.
  auto sidecar = pmfs_.LookupPath("/.fom/tables/" + std::to_string(*inode));
  ASSERT_TRUE(sidecar.ok());
  EXPECT_EQ(pmfs_.Stat(*sidecar)->size, 40u + 2 * 8);
}

TEST_F(FomEdgeTest, SpliceAfterGrowMapsTheNewTail) {
  auto inode = fom_.CreateSegment("/resize/grown", 4 * kMiB);
  ASSERT_TRUE(inode.ok());
  const MapOptions splice{.mechanism = MapMechanism::kPtSplice};
  auto before = fom_.Map(*proc_, *inode, Prot::kReadWrite, splice);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(fom_.Unmap(*proc_, *before).ok());
  ASSERT_TRUE(pmfs_.Resize(*inode, 6 * kMiB).ok());

  auto vaddr = fom_.Map(*proc_, *inode, Prot::kReadWrite, splice);
  ASSERT_TRUE(vaddr.ok());
  auto tail =
      machine_.mmu().Translate(proc_->address_space(), *vaddr + 5 * kMiB, AccessType::kRead);
  ASSERT_TRUE(tail.ok());
  const auto extents = pmfs_.Extents(*inode).value();
  for (const FileExtentView& e : extents) {
    if (e.file_offset <= 5 * kMiB && 5 * kMiB < e.file_offset + e.bytes) {
      EXPECT_EQ(tail->paddr, e.paddr + (5 * kMiB - e.file_offset));
    }
  }
}

TEST_F(FomEdgeTest, ProtectAfterShrinkUnderSpliceMappingIsRejected) {
  auto inode = fom_.CreateSegment("/resize/mapped", 4 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto vaddr = fom_.Map(*proc_, *inode, Prot::kReadWrite,
                        MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(pmfs_.Resize(*inode, 8 * kKiB).ok());
  EXPECT_EQ(fom_.Protect(*proc_, *vaddr, Prot::kRead).code(), StatusCode::kNotFound);
}

TEST_F(FomEdgeTest, ExitProcessIdempotentOnEmptyProcess) {
  auto fresh = fom_.CreateProcess();
  EXPECT_TRUE(fom_.ExitProcess(*fresh).ok());
  EXPECT_TRUE(fom_.ExitProcess(*fresh).ok());
}

}  // namespace
}  // namespace o1mem
