// Degraded mode: media errors surfaced by tier migration must quarantine
// the affected extent and fall back to read-only-NVM serving -- never abort
// the operation. Covers poison caught during promotion (home read), during
// writeback/demotion (cache read), the no-re-promote fence, procfs
// visibility, and the crash semantics of DRAM-tier poison.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/os/system.h"

namespace o1mem {
namespace {

SystemConfig TierOn(uint64_t cache_bytes = 8 * kMiB) {
  SystemConfig config;
  config.machine.dram_bytes = 64 * kMiB;
  config.machine.nvm_bytes = 128 * kMiB;
  config.machine.tier.enabled = true;
  config.machine.tier.dram_cache_bytes = cache_bytes;
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

class QuarantineTest : public ::testing::Test {
 protected:
  void Boot(const SystemConfig& config) {
    sys_ = std::make_unique<System>(config);
    auto launched = sys_->Launch(Backend::kFom, TinyImage());
    ASSERT_TRUE(launched.ok());
    proc_ = *launched;
  }

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

  // Physical address of the segment's first home byte.
  Paddr HomePaddr() {
    auto extents = sys_->pmfs().Extents(inode_);
    O1_CHECK(extents.ok() && !extents->empty());
    return (*extents)[0].paddr;
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

  std::unique_ptr<System> sys_;
  Process* proc_ = nullptr;
  InodeId inode_ = kInvalidInode;
  Vaddr va_ = 0;
  uint64_t bytes_ = 0;
};

TEST_F(QuarantineTest, HomePoisonDuringPromotionQuarantinesInsteadOfAborting) {
  Boot(TierOn());
  MakeSegment("/q/promo", 2 * kMiB, /*salt=*/1);
  FaultInjector& fi = sys_->machine().fault_injector();
  fi.MarkUnreadable(HomePaddr(), /*sticky=*/false);

  // The promotion's bulk copy hits the poisoned home line: the whole unit is
  // fenced off, the hint itself succeeds.
  ASSERT_TRUE(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kHot).ok());
  EXPECT_EQ(sys_->tier()->promoted_bytes(), 0u);
  EXPECT_GE(sys_->ctx().counters().poison_quarantines, 1u);
  EXPECT_EQ(sys_->tier()->quarantined_bytes(), bytes_);
  ASSERT_EQ(sys_->tier()->QuarantinedOf(inode_).size(), 1u);
  EXPECT_EQ(sys_->tier()->QuarantinedOf(inode_)[0].first, 0u);

  // The fence holds: a second hint neither re-promotes nor re-counts.
  const uint64_t quarantines = sys_->ctx().counters().poison_quarantines;
  ASSERT_TRUE(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kHot).ok());
  EXPECT_EQ(sys_->tier()->promoted_bytes(), 0u);
  EXPECT_EQ(sys_->ctx().counters().poison_quarantines, quarantines);

  // Reads of the quarantined range (off the poisoned line) are served from
  // the NVM home and counted as degraded.
  const uint64_t degraded0 = sys_->ctx().counters().degraded_reads;
  EXPECT_EQ(ReadMapped(kPageSize, kPageSize), Pattern(kPageSize, 1));
  EXPECT_GT(sys_->ctx().counters().degraded_reads, degraded0);

  // The poisoned line itself still errors on read, and heals on rewrite
  // (transient poison), so repair-by-rewrite always works.
  std::vector<uint8_t> line(64);
  EXPECT_EQ(sys_->UserRead(*proc_, va_, line).code(), StatusCode::kMediaError);
  ASSERT_TRUE(sys_->UserWrite(*proc_, va_, line).ok());
  EXPECT_TRUE(sys_->UserRead(*proc_, va_, line).ok());
  EXPECT_FALSE(fi.has_poison());
}

TEST_F(QuarantineTest, CachePoisonOnFlushAbandonsDirtyDeltaToHome) {
  Boot(TierOn());
  MakeSegment("/q/flush", 2 * kMiB, /*salt=*/3);
  ASSERT_TRUE(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kHot).ok());
  auto promoted = sys_->tier()->PromotedOf(inode_);
  ASSERT_EQ(promoted.size(), 1u);
  ASSERT_EQ(promoted[0].bytes, bytes_);

  // Dirty the cache copy, then poison one of its lines: the writeback's
  // cache read fails, so UserFlush must abandon the copy instead of erroring.
  auto dirty = Pattern(bytes_, /*salt=*/4);
  ASSERT_TRUE(sys_->UserWrite(*proc_, va_, dirty).ok());
  sys_->machine().fault_injector().MarkUnreadable(promoted[0].cache + 64, /*sticky=*/false);
  const uint64_t demotions0 = sys_->ctx().counters().tier_demotions;

  ASSERT_TRUE(sys_->UserFlush(*proc_, va_, bytes_).ok());
  EXPECT_EQ(sys_->tier()->promoted_bytes(), 0u);
  EXPECT_EQ(sys_->tier()->quarantined_bytes(), bytes_);
  EXPECT_GE(sys_->ctx().counters().poison_quarantines, 1u);
  EXPECT_GT(sys_->ctx().counters().tier_demotions, demotions0);

  // The dirty delta is lost by design: home still holds the pre-dirty
  // pattern, and mapped reads now serve it (degraded, from NVM).
  EXPECT_EQ(ReadHome(0, bytes_), Pattern(bytes_, 3));
  const uint64_t degraded0 = sys_->ctx().counters().degraded_reads;
  EXPECT_EQ(ReadMapped(0, kPageSize), Pattern(kPageSize, 3));
  EXPECT_GT(sys_->ctx().counters().degraded_reads, degraded0);
}

TEST_F(QuarantineTest, CachePoisonOnDemotionQuarantines) {
  Boot(TierOn());
  MakeSegment("/q/demote", 2 * kMiB, /*salt=*/5);
  ASSERT_TRUE(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kHot).ok());
  auto promoted = sys_->tier()->PromotedOf(inode_);
  ASSERT_EQ(promoted.size(), 1u);

  auto dirty = Pattern(bytes_, /*salt=*/6);
  ASSERT_TRUE(sys_->UserWrite(*proc_, va_, dirty).ok());
  sys_->machine().fault_injector().MarkUnreadable(promoted[0].cache, /*sticky=*/false);

  // Demotion's writeback hits the poison: degrade, don't fail.
  ASSERT_TRUE(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kCold).ok());
  EXPECT_EQ(sys_->tier()->promoted_bytes(), 0u);
  EXPECT_EQ(sys_->tier()->quarantined_bytes(), bytes_);
  EXPECT_EQ(ReadHome(0, kPageSize), Pattern(kPageSize, 5));
}

TEST_F(QuarantineTest, SnapshotExposesQuarantineState) {
  Boot(TierOn());
  MakeSegment("/q/proc", 2 * kMiB, /*salt=*/7);
  sys_->machine().fault_injector().MarkUnreadable(HomePaddr(), /*sticky=*/false);
  ASSERT_TRUE(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kHot).ok());

  const std::string snap = sys_->DumpProcSnapshot();
  EXPECT_NE(snap.find("\ntier_quarantined_bytes " + std::to_string(bytes_) + "\n"),
            std::string::npos)
      << snap;
  EXPECT_NE(snap.find("poison_quarantines"), std::string::npos);
  EXPECT_NE(snap.find("degraded_reads"), std::string::npos);
}

TEST_F(QuarantineTest, CrashClearsTransientDramPoisonButKeepsSticky) {
  Boot(TierOn());
  MakeSegment("/q/crash", 2 * kMiB, /*salt=*/9);
  ASSERT_TRUE(sys_->MadviseTier(*proc_, va_, bytes_, TierHint::kHot).ok());
  auto promoted = sys_->tier()->PromotedOf(inode_);
  ASSERT_EQ(promoted.size(), 1u);

  FaultInjector& fi = sys_->machine().fault_injector();
  const Paddr dram_line = promoted[0].cache;
  const Paddr nvm_line = HomePaddr();
  fi.MarkUnreadable(dram_line, /*sticky=*/false);   // latched ECC event
  fi.MarkUnreadable(nvm_line + 128, /*sticky=*/true);  // worn-out NVM cell
  ASSERT_EQ(fi.CheckRead(dram_line, 64).code(), StatusCode::kMediaError);

  // Power cycle: the latched DRAM error clears with the power, the sticky
  // NVM fault is a property of the part and survives.
  ASSERT_TRUE(sys_->Crash().ok());
  EXPECT_TRUE(fi.CheckRead(dram_line, 64).ok());
  EXPECT_EQ(fi.CheckRead(nvm_line + 128, 64).code(), StatusCode::kMediaError);
  EXPECT_TRUE(fi.IsSticky(nvm_line + 128));
}

}  // namespace
}  // namespace o1mem
