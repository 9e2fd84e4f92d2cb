// Lender revocation end to end, through the System surface: discardable
// tmpfs files borrow second-class extents and lose their contents (holes)
// when a claim takes the window; mapped files promote their borrowed pages
// to first-class frames *before* the map lands, so a revoke can never yank
// memory under live PTEs; tier clean-copy borrows are surrendered by
// repointing home -- after a durable writeback when dirty -- and a poisoned
// dirty copy quarantines instead of failing the claim.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/os/system.h"

namespace o1mem {
namespace {

constexpr uint64_t kAreaBytes = 16 * kMiB;

SystemConfig ContigOn() {
  SystemConfig config;
  config.machine.dram_bytes = 64 * kMiB;
  config.machine.nvm_bytes = 128 * kMiB;
  config.machine.contig.area_bytes = kAreaBytes;
  return config;
}

// Tier cache of one 64 KiB unit: the first promotion of anything larger
// exhausts AllocCache, so promotions land on borrowed area extents.
SystemConfig ContigTierOn() {
  SystemConfig config = ContigOn();
  config.machine.tier.enabled = true;
  config.machine.tier.dram_cache_bytes = 16 * kPageSize;
  config.machine.tier.aggregation_ticks = 2;
  config.machine.tier.min_region_bytes = 16 * kPageSize;
  config.machine.tier.promote_after = 1;
  config.machine.tier.demote_after = 2;
  return config;
}

ProcessImage TinyImage() {
  return ProcessImage{.code_bytes = kPageSize, .stack_bytes = kPageSize,
                      .heap_bytes = kPageSize};
}

std::vector<uint8_t> Pattern(uint64_t n, uint8_t salt) {
  std::vector<uint8_t> data(n);
  for (uint64_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + salt);
  }
  return data;
}

class ContigRevokeTest : public ::testing::Test {
 protected:
  void Boot(const SystemConfig& config) {
    sys_ = std::make_unique<System>(config);
    auto launched = sys_->Launch(Backend::kFom, TinyImage());
    ASSERT_TRUE(launched.ok());
    proc_ = *launched;
  }

  // Discardable tmpfs file of `bytes` with Pattern(touch, salt) written at
  // offset 0 -- the first touch borrows the whole extent from the area.
  InodeId MakeDiscardable(const std::string& path, uint64_t bytes, uint64_t touch,
                          uint8_t salt) {
    auto fd = sys_->Creat(*proc_, sys_->tmpfs(), path, FileFlags{.discardable = true});
    O1_CHECK(fd.ok());
    O1_CHECK(sys_->Ftruncate(*proc_, *fd, bytes).ok());
    auto data = Pattern(touch, salt);
    auto wrote = sys_->Pwrite(*proc_, *fd, 0, data);
    O1_CHECK(wrote.ok() && *wrote == touch);
    O1_CHECK(sys_->Close(*proc_, *fd).ok());
    auto id = sys_->tmpfs().LookupPath(path);
    O1_CHECK(id.ok());
    return *id;
  }

  std::vector<uint8_t> FileRead(InodeId id, uint64_t off, uint64_t len) {
    std::vector<uint8_t> out(len);
    auto read = sys_->tmpfs().ReadAt(id, off, out);
    O1_CHECK(read.ok() && *read == len);
    return out;
  }

  // --- tier-side helpers (persistent FOM segment, as in tier tests) ------
  void MakeSegment(const std::string& path, uint64_t bytes, uint8_t salt) {
    auto seg = sys_->fom().CreateSegment(path, bytes,
                                         SegmentOptions{.flags = {.persistent = true}});
    ASSERT_TRUE(seg.ok());
    inode_ = *seg;
    auto va = sys_->fom().Map(proc_->fom(), *seg, Prot::kReadWrite);
    ASSERT_TRUE(va.ok());
    va_ = *va;
    bytes_ = bytes;
    auto data = Pattern(bytes, salt);
    ASSERT_TRUE(sys_->UserWrite(*proc_, va_, data).ok());
    ASSERT_TRUE(sys_->UserFlush(*proc_, va_, bytes).ok());
  }

  std::vector<uint8_t> ReadMapped(uint64_t off, uint64_t len) {
    std::vector<uint8_t> out(len);
    O1_CHECK(sys_->UserRead(*proc_, va_ + off, out).ok());
    return out;
  }

  std::vector<uint8_t> ReadHome(uint64_t off, uint64_t len) {
    std::vector<uint8_t> out(len);
    auto read = sys_->pmfs().ReadAt(inode_, off, out);
    O1_CHECK(read.ok() && *read == len);
    return out;
  }

  // Promotes the mapped segment onto a borrowed area extent and returns it.
  PromotedExtent PromoteBorrowed() {
    O1_CHECK(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kHot).ok());
    auto promoted = sys_->tier()->PromotedOf(inode_);
    O1_CHECK(promoted.size() == 1 && promoted[0].borrowed);
    O1_CHECK(sys_->contig()->lent_bytes(LenderClass::kTierCleanCopy) == bytes_);
    return promoted[0];
  }

  std::unique_ptr<System> sys_;
  Process* proc_ = nullptr;
  InodeId inode_ = kInvalidInode;
  Vaddr va_ = 0;
  uint64_t bytes_ = 0;
};

TEST_F(ContigRevokeTest, DisabledSystemHasNoArea) {
  System sys;  // all defaults: contig off
  EXPECT_EQ(sys.contig(), nullptr);
  const TierOccupancy o = sys.Occupancy();
  EXPECT_EQ(o.contig_area_bytes, 0u);
}

TEST_F(ContigRevokeTest, DiscardableFileBorrowsSecondClassBacking) {
  Boot(ContigOn());
  const InodeId id = MakeDiscardable("/c/f", 1 * kMiB, 2 * kPageSize, /*salt=*/1);
  EXPECT_EQ(sys_->contig()->lent_bytes(LenderClass::kDiscardableFile), 1 * kMiB);
  EXPECT_EQ(sys_->tmpfs().borrowed_used_bytes(), 2 * kPageSize);
  EXPECT_EQ(FileRead(id, 0, 2 * kPageSize), Pattern(2 * kPageSize, 1));
  // Unlinking returns the borrow voluntarily.
  ASSERT_TRUE(sys_->Unlink("/c/f").ok());
  EXPECT_EQ(sys_->contig()->lent_bytes_total(), 0u);
  EXPECT_EQ(sys_->tmpfs().borrowed_used_bytes(), 0u);
  EXPECT_GE(sys_->ctx().counters().contig_returns, 1u);
}

TEST_F(ContigRevokeTest, ClaimDropsDiscardableContentsToHoles) {
  Boot(ContigOn());
  const InodeId id = MakeDiscardable("/c/drop", 1 * kMiB, 2 * kPageSize, /*salt=*/2);
  std::vector<ContigVictim> victims;
  auto claim = sys_->contig()->Claim(kAreaBytes, &victims);
  ASSERT_TRUE(claim.ok());
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].cls, LenderClass::kDiscardableFile);
  EXPECT_EQ(victims[0].cookie, static_cast<uint64_t>(id));
  // The file survives -- size intact, contents now holes (zeros): exactly
  // what "discardable" licenses.
  auto st = sys_->tmpfs().Stat(id);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 1 * kMiB);
  EXPECT_EQ(FileRead(id, 0, 2 * kPageSize), std::vector<uint8_t>(2 * kPageSize, 0));
  EXPECT_EQ(sys_->tmpfs().borrowed_used_bytes(), 0u);
  EXPECT_EQ(sys_->ctx().counters().discard_bytes, 2 * kPageSize);
  EXPECT_EQ(sys_->ctx().counters().lender_evictions, 1u);
  // After the claim is released, the next touch borrows again.
  ASSERT_TRUE(sys_->contig()->Release(*claim).ok());
  uint8_t byte = 9;
  ASSERT_TRUE(sys_->tmpfs().WriteAt(id, 0, std::span<const uint8_t>(&byte, 1)).ok());
  EXPECT_EQ(sys_->contig()->lent_bytes(LenderClass::kDiscardableFile), 1 * kMiB);
}

TEST_F(ContigRevokeTest, MappingPromotesBorrowedPagesToFirstClass) {
  Boot(ContigOn());
  const InodeId id = MakeDiscardable("/c/map", 64 * kPageSize, 3 * kPageSize, /*salt=*/3);
  ASSERT_GT(sys_->tmpfs().borrowed_used_bytes(), 0u);
  // The map reference promotes every borrowed page to a first-class frame
  // (quota-charged copy) and returns the extent -- contents preserved, and
  // no future claim can touch a mapped page.
  ASSERT_TRUE(sys_->tmpfs().AddMapRef(id).ok());
  EXPECT_EQ(sys_->tmpfs().borrowed_used_bytes(), 0u);
  EXPECT_EQ(sys_->contig()->lent_bytes_total(), 0u);
  EXPECT_EQ(FileRead(id, 0, 3 * kPageSize), Pattern(3 * kPageSize, 3));
  std::vector<ContigVictim> victims;
  ASSERT_TRUE(sys_->contig()->Claim(kAreaBytes, &victims).ok());
  EXPECT_TRUE(victims.empty());
  EXPECT_EQ(FileRead(id, 0, 3 * kPageSize), Pattern(3 * kPageSize, 3));
  ASSERT_TRUE(sys_->tmpfs().DropMapRef(id).ok());
}

TEST_F(ContigRevokeTest, CleanTierCopyRevokeRepointsToHome) {
  Boot(ContigTierOn());
  MakeSegment("/c/tier", 2 * kMiB, /*salt=*/4);
  PromoteBorrowed();
  const uint64_t demotions0 = sys_->ctx().counters().tier_demotions;
  std::vector<ContigVictim> victims;
  auto claim = sys_->contig()->Claim(kAreaBytes, &victims);
  ASSERT_TRUE(claim.ok());
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].cls, LenderClass::kTierCleanCopy);
  EXPECT_EQ(victims[0].cookie, static_cast<uint64_t>(inode_));
  // The copy was clean: no writeback needed, the mappings now resolve to the
  // intact NVM home and reads see the original bytes.
  EXPECT_TRUE(sys_->tier()->PromotedOf(inode_).empty());
  EXPECT_GT(sys_->ctx().counters().tier_demotions, demotions0);
  EXPECT_EQ(ReadMapped(0, kPageSize), Pattern(kPageSize, 4));
  EXPECT_EQ(ReadHome(0, kPageSize), Pattern(kPageSize, 4));
}

TEST_F(ContigRevokeTest, DirtyTierCopyWritesBackBeforeRevoke) {
  Boot(ContigTierOn());
  MakeSegment("/c/dirty", 2 * kMiB, /*salt=*/5);
  PromoteBorrowed();
  auto dirty = Pattern(bytes_, /*salt=*/6);
  ASSERT_TRUE(sys_->UserWrite(*proc_, va_, dirty).ok());
  // The durability invariant: the dirty delta lands durably in the NVM home
  // *before* the claim reuses the window.
  auto claim = sys_->contig()->Claim(kAreaBytes);
  ASSERT_TRUE(claim.ok());
  EXPECT_TRUE(sys_->tier()->PromotedOf(inode_).empty());
  EXPECT_EQ(ReadHome(0, bytes_), Pattern(bytes_, 6));
  EXPECT_EQ(ReadMapped(0, kPageSize), Pattern(kPageSize, 6));
}

TEST_F(ContigRevokeTest, PoisonedDirtyCopyQuarantinesClaimStillSucceeds) {
  Boot(ContigTierOn());
  MakeSegment("/c/poison", 2 * kMiB, /*salt=*/7);
  const PromotedExtent e = PromoteBorrowed();
  auto dirty = Pattern(bytes_, /*salt=*/8);
  ASSERT_TRUE(sys_->UserWrite(*proc_, va_, dirty).ok());
  // Poison a cache line: the surrender's writeback read fails. The claim
  // must still succeed -- the range quarantines and the dirty delta is
  // forfeited (same contract as any degraded demotion).
  sys_->machine().fault_injector().MarkUnreadable(e.cache + 64, /*sticky=*/false);
  auto claim = sys_->contig()->Claim(kAreaBytes);
  ASSERT_TRUE(claim.ok());
  EXPECT_TRUE(sys_->tier()->PromotedOf(inode_).empty());
  EXPECT_EQ(sys_->tier()->quarantined_bytes(), bytes_);
  EXPECT_GE(sys_->ctx().counters().poison_quarantines, 1u);
  // Home still holds the pre-dirty bytes; mapped reads serve them degraded.
  EXPECT_EQ(ReadHome(0, kPageSize), Pattern(kPageSize, 7));
  const uint64_t degraded0 = sys_->ctx().counters().degraded_reads;
  EXPECT_EQ(ReadMapped(0, kPageSize), Pattern(kPageSize, 7));
  EXPECT_GT(sys_->ctx().counters().degraded_reads, degraded0);
  // The fence holds: the range never re-promotes into the reclaimed window.
  ASSERT_TRUE(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kHot).ok());
  EXPECT_TRUE(sys_->tier()->PromotedOf(inode_).empty());
}

TEST_F(ContigRevokeTest, OccupancyAndProcSnapshotExposeAreaState) {
  Boot(ContigOn());
  MakeDiscardable("/c/gauge", 1 * kMiB, kPageSize, /*salt=*/9);
  const TierOccupancy o = sys_->Occupancy();
  EXPECT_EQ(o.contig_area_bytes, kAreaBytes);
  EXPECT_EQ(o.contig_lent_file_bytes, 1 * kMiB);
  EXPECT_EQ(o.contig_free_bytes, kAreaBytes - 1 * kMiB);
  const std::string snapshot = sys_->DumpProcSnapshot();
  EXPECT_NE(snapshot.find("== contigstat =="), std::string::npos);
  EXPECT_NE(snapshot.find("\ncontig_cma 0\n"), std::string::npos);
  EXPECT_NE(snapshot.find("\ncontig_lent_file_bytes 1048576\n"), std::string::npos);
}

TEST_F(ContigRevokeTest, LendingSurvivesCrashRewire) {
  Boot(ContigOn());
  MakeDiscardable("/c/precrash", 1 * kMiB, kPageSize, /*salt=*/10);
  ASSERT_TRUE(sys_->Crash().ok());
  // Tmpfs is empty after the crash and the rebuilt area starts fresh; the
  // rewired revokers must serve a whole new lend/claim cycle.
  ASSERT_EQ(sys_->contig()->lent_bytes_total(), 0u);
  auto launched = sys_->Launch(Backend::kFom, TinyImage());
  ASSERT_TRUE(launched.ok());
  proc_ = *launched;
  const InodeId id = MakeDiscardable("/c/postcrash", 1 * kMiB, kPageSize, /*salt=*/11);
  EXPECT_EQ(sys_->contig()->lent_bytes(LenderClass::kDiscardableFile), 1 * kMiB);
  std::vector<ContigVictim> victims;
  ASSERT_TRUE(sys_->contig()->Claim(kAreaBytes, &victims).ok());
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].cookie, static_cast<uint64_t>(id));
  EXPECT_EQ(FileRead(id, 0, kPageSize), std::vector<uint8_t>(kPageSize, 0));
}

}  // namespace
}  // namespace o1mem
