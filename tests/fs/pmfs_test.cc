#include "src/fs/pmfs.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/support/byte_order.h"
#include "src/support/crc32.h"

namespace o1mem {
namespace {

class PmfsTest : public ::testing::Test {
 protected:
  PmfsTest()
      : machine_(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 64 * kMiB}),
        fs_(&machine_, machine_.phys().nvm_base(), 64 * kMiB) {}

  Machine machine_;
  Pmfs fs_;
};

TEST_F(PmfsTest, CreateResizeAllocatesExtentsEagerly) {
  auto id = fs_.Create("/data", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, 4 * kMiB).ok());
  auto st = fs_.Stat(*id);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4 * kMiB);
  EXPECT_EQ(st->allocated_bytes, 4 * kMiB);
  // Fresh fs: one contiguous extent.
  EXPECT_EQ(st->extent_count, 1u);
}

TEST_F(PmfsTest, WriteReadRoundTripInNvm) {
  auto id = fs_.Create("/rt", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(3 * kPageSize + 17);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i * 31) % 255);
  }
  ASSERT_TRUE(fs_.WriteAt(*id, 1000, data).ok());
  std::vector<uint8_t> out(data.size());
  auto read = fs_.ReadAt(*id, 1000, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, data);
  // Backing is in the NVM tier.
  auto extents = fs_.Extents(*id);
  ASSERT_TRUE(extents.ok());
  ASSERT_FALSE(extents->empty());
  EXPECT_EQ(machine_.phys().TierOf(extents->front().paddr), MemTier::kNvm);
}

TEST_F(PmfsTest, EagerZeroClearsRecycledBlocks) {
  auto a = fs_.Create("/a", FileFlags{});
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> junk(kMiB, 0xAB);
  ASSERT_TRUE(fs_.WriteAt(*a, 0, junk).ok());
  ASSERT_TRUE(fs_.Unlink("/a").ok());
  // New file reuses the same blocks; must read zero.
  auto b = fs_.Create("/b", FileFlags{});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fs_.Resize(*b, kMiB).ok());
  std::vector<uint8_t> out(4096, 0xff);
  ASSERT_TRUE(fs_.ReadAt(*b, 0, out).ok());
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
}

TEST_F(PmfsTest, TruncateShrinksAndFreesBlocks) {
  auto id = fs_.Create("/t", FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, 2 * kMiB).ok());
  const uint64_t free_before = fs_.free_bytes();
  ASSERT_TRUE(fs_.Resize(*id, kMiB).ok());
  EXPECT_EQ(fs_.free_bytes(), free_before + kMiB);
  EXPECT_EQ(fs_.Stat(*id)->size, kMiB);
}

TEST_F(PmfsTest, FragmentedFsBuildsMultiExtentFiles) {
  // Carve holes: alloc a, b, c, free b, then grow d beyond hole size.
  auto a = fs_.Create("/a", FileFlags{});
  auto b = fs_.Create("/b", FileFlags{});
  auto c = fs_.Create("/c", FileFlags{});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(fs_.Resize(*a, 15 * kMiB).ok());
  ASSERT_TRUE(fs_.Resize(*b, 15 * kMiB).ok());
  // c is sized so the free tail after it (~17.9 MiB of the ~63.9 MiB
  // quota) cannot hold d contiguously; d must span the hole and the tail.
  ASSERT_TRUE(fs_.Resize(*c, 16 * kMiB).ok());
  ASSERT_TRUE(fs_.Unlink("/b").ok());
  auto d = fs_.Create("/d", FileFlags{});
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs_.Resize(*d, 18 * kMiB).ok());  // 15 MiB hole + 3 MiB tail
  auto st = fs_.Stat(*d);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->allocated_bytes, 18 * kMiB);
  EXPECT_GE(st->extent_count, 2u);
  // Data still round-trips across the extent seam.
  std::vector<uint8_t> data(kMiB, 0x5c);
  ASSERT_TRUE(fs_.WriteAt(*d, 15 * kMiB - kMiB / 2, data).ok());
  std::vector<uint8_t> out(kMiB);
  ASSERT_TRUE(fs_.ReadAt(*d, 15 * kMiB - kMiB / 2, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(PmfsTest, OutOfSpaceReported) {
  auto id = fs_.Create("/huge", FileFlags{});
  ASSERT_TRUE(id.ok());
  auto s = fs_.Resize(*id, 100 * kMiB);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
}

TEST_F(PmfsTest, PersistentFileSurvivesCrash) {
  auto id = fs_.Create("/keep", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(2 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 100);
  }
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  auto found = fs_.LookupPath("/keep");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs_.ReadAt(*found, 0, out).ok());
  EXPECT_EQ(out, data);  // NVM contents survived the crash
}

TEST_F(PmfsTest, VolatileFileDroppedAtRecovery) {
  auto keep = fs_.Create("/keep", FileFlags{.persistent = true});
  auto temp = fs_.Create("/temp", FileFlags{.persistent = false});
  ASSERT_TRUE(keep.ok() && temp.ok());
  ASSERT_TRUE(fs_.Resize(*temp, 8 * kMiB).ok());
  const uint64_t free_before_crash = fs_.free_bytes();
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_TRUE(fs_.LookupPath("/keep").ok());
  EXPECT_FALSE(fs_.LookupPath("/temp").ok());
  EXPECT_EQ(fs_.free_bytes(), free_before_crash + 8 * kMiB);
}

TEST_F(PmfsTest, SetPersistentFlipsSurvival) {
  auto id = fs_.Create("/flip", FileFlags{.persistent = false});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.WriteAt(*id, 0, std::vector<uint8_t>(10, 3)).ok());
  ASSERT_TRUE(fs_.SetPersistent(*id, true).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_TRUE(fs_.LookupPath("/flip").ok());
}

TEST_F(PmfsTest, OpenAndMapRefsClearedByCrash) {
  auto id = fs_.Create("/refs", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddOpenRef(*id).ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  auto st = fs_.Stat(*fs_.LookupPath("/refs"));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->open_count, 0u);
  EXPECT_EQ(st->map_count, 0u);
}

TEST_F(PmfsTest, TornAllocationReclaimedAtRecovery) {
  const uint64_t free_before = fs_.free_bytes();
  ASSERT_TRUE(fs_.LeakBlocksForTest(100).ok());
  EXPECT_EQ(fs_.free_bytes(), free_before - 100 * kPageSize);
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(fs_.free_bytes(), free_before);
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
}

TEST_F(PmfsTest, JournalGrowsWithMetadataOpsAndResetsAtRecovery) {
  const uint64_t before = fs_.journal_records();
  auto id = fs_.Create("/j", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, kMiB).ok());
  EXPECT_GT(fs_.journal_records(), before);
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(fs_.journal_records(), 0u);
}

TEST_F(PmfsTest, IntegrityVerificationPasses) {
  auto a = fs_.Create("/a", FileFlags{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(fs_.Resize(*a, 3 * kMiB).ok());
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
}

// ExtentTree::Insert refuses only overlapping file offsets, so a journal can
// map one block at two offsets of one file. Recovery keeps the file whole (no
// other file contests the block); the integrity check still names the state,
// and Scrub still finds the file as the owner of a bad line in its blocks.
TEST_F(PmfsTest, IntegrityCatchesTwoExtentsOfOneFileOnOneBlock) {
  auto id = fs_.Create("/twice", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, 2 * kPageSize).ok());
  auto paddr = fs_.GetBackingPage(*id, 0, false);
  ASSERT_TRUE(paddr.ok());
  // A kAllocExtent record (op 5) written by hand at the tail of a fresh
  // mount's slot 0 (generation 1): offset 2 pages -> the file's first block.
  const Paddr base = machine_.phys().nvm_base();
  std::vector<uint8_t> rec(56, 0);
  StoreLe(rec.data(), uint32_t{56});
  StoreLe(rec.data() + 8, uint64_t{1});
  rec[16] = 5;
  StoreLe(rec.data() + 24, *id);
  StoreLe(rec.data() + 32, 2 * kPageSize);
  StoreLe(rec.data() + 40, (*paddr - base) >> kPageShift);
  StoreLe(rec.data() + 48, uint64_t{1});
  StoreLe(rec.data() + 4, Crc32(rec));
  const Paddr at = base + kPageSize + fs_.journal_tail_bytes();
  ASSERT_TRUE(machine_.phys().Write(at, rec).ok());
  ASSERT_TRUE(machine_.phys().FlushLines(at, rec.size()).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  ASSERT_EQ(fs_.Stat(*id)->extent_count, 2u);
  EXPECT_EQ(fs_.VerifyIntegrity().code(), StatusCode::kCorruption);

  // The second block is inside the first extent only.
  machine_.fault_injector().MarkUnreadable(*paddr + kPageSize + 64, /*sticky=*/true);
  auto report = fs_.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_quarantined, 1u);
  EXPECT_EQ(report->bad_blocks_retired, 0u);
  EXPECT_TRUE(fs_.Stat(*id)->quarantined);
}

TEST_F(PmfsTest, DaxBackingPageInsideExtent) {
  auto id = fs_.Create("/dax", FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, kMiB).ok());
  auto p0 = fs_.GetBackingPage(*id, 0, false);
  auto p1 = fs_.GetBackingPage(*id, 5 * kPageSize, false);
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(p1.value() - p0.value(), 5 * kPageSize);  // contiguous extent
  EXPECT_FALSE(fs_.GetBackingPage(*id, 2 * kMiB, false).ok());
}

class PmfsZeroEpochTest : public ::testing::Test {
 protected:
  PmfsZeroEpochTest()
      : machine_(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 64 * kMiB}),
        fs_(&machine_, machine_.phys().nvm_base(), 64 * kMiB, ZeroPolicy::kZeroEpoch) {}

  Machine machine_;
  Pmfs fs_;
};

TEST_F(PmfsZeroEpochTest, RecycledBlocksStillReadZero) {
  auto a = fs_.Create("/a", FileFlags{});
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> junk(kMiB, 0xAB);
  ASSERT_TRUE(fs_.WriteAt(*a, 0, junk).ok());
  ASSERT_TRUE(fs_.Unlink("/a").ok());
  auto b = fs_.Create("/b", FileFlags{});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fs_.Resize(*b, kMiB).ok());
  std::vector<uint8_t> out(kPageSize, 0xff);
  ASSERT_TRUE(fs_.ReadAt(*b, kPageSize * 3, out).ok());
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
}

TEST_F(PmfsZeroEpochTest, AllocationIsMuchCheaperThanEagerZero) {
  Machine eager_machine(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 64 * kMiB});
  Pmfs eager(&eager_machine, eager_machine.phys().nvm_base(), 64 * kMiB,
             ZeroPolicy::kEagerZero);
  auto e = eager.Create("/e", FileFlags{});
  ASSERT_TRUE(e.ok());
  const uint64_t t0 = eager_machine.ctx().now();
  ASSERT_TRUE(eager.Resize(*e, 32 * kMiB).ok());
  const uint64_t eager_cost = eager_machine.ctx().now() - t0;

  auto z = fs_.Create("/z", FileFlags{});
  ASSERT_TRUE(z.ok());
  const uint64_t t1 = machine_.ctx().now();
  ASSERT_TRUE(fs_.Resize(*z, 32 * kMiB).ok());
  const uint64_t epoch_cost = machine_.ctx().now() - t1;
  EXPECT_GT(eager_cost, 50 * epoch_cost);
}

// --- Volatile (O_TMPFILE-style) inodes -----------------------------------

TEST_F(PmfsTest, VolatileInodeLivesByRefsAndDiesWithLast) {
  const uint64_t free_before = fs_.free_bytes();
  auto id = fs_.CreateVolatile(FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  ASSERT_TRUE(fs_.Resize(*id, 2 * kMiB).ok());
  EXPECT_LT(fs_.free_bytes(), free_before);
  std::vector<uint8_t> data(4096, 0xAB);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  ASSERT_TRUE(fs_.DropMapRef(*id).ok());
  // Last reference gone: blocks return to the bitmap.
  EXPECT_EQ(fs_.free_bytes(), free_before);
  EXPECT_FALSE(fs_.Stat(*id).ok());
}

TEST_F(PmfsTest, VolatileInodeCannotBecomePersistent) {
  auto id = fs_.CreateVolatile(FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  EXPECT_EQ(fs_.SetPersistent(*id, true).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(fs_.DropMapRef(*id).ok());
}

TEST_F(PmfsTest, VolatileInodeVanishesOnCrashAndFreesBlocks) {
  const uint64_t free_before = fs_.free_bytes();
  auto id = fs_.CreateVolatile(FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  ASSERT_TRUE(fs_.Resize(*id, 4 * kMiB).ok());
  // A persistent neighbor proves the bitmap rebuild keeps owned blocks.
  auto keeper = fs_.Create("/keeper", FileFlags{.persistent = true});
  ASSERT_TRUE(keeper.ok());
  ASSERT_TRUE(fs_.Resize(*keeper, kMiB).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  // The volatile inode is gone; its blocks are free again; the persistent
  // file survived with its allocation intact.
  EXPECT_FALSE(fs_.Stat(*id).ok());
  auto kept = fs_.LookupPath("/keeper");
  ASSERT_TRUE(kept.ok());
  auto st = fs_.Stat(*kept);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->allocated_bytes, kMiB);
  EXPECT_EQ(fs_.free_bytes(), free_before - kMiB);
}

TEST_F(PmfsZeroEpochTest, WritesLandAfterLazyZero) {
  auto id = fs_.Create("/w", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(100, 0x11);
  ASSERT_TRUE(fs_.WriteAt(*id, 50, data).ok());
  std::vector<uint8_t> out(200);
  ASSERT_TRUE(fs_.ReadAt(*id, 0, out).ok());
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out[i], 0) << i;  // lazily zeroed prefix
  }
  for (size_t i = 50; i < 150; ++i) {
    EXPECT_EQ(out[i], 0x11) << i;
  }
}

// --- On-media format pin ------------------------------------------------
//
// One fixed script issues every journal record kind, failing ops, two
// unjournaled volatile inodes and enough create/unlink pairs to force a
// checkpoint. What it leaves on NVM is pinned before and after crash
// recovery: the CRC-32 of the metadata area (superblock and both journal
// slots, read without a charge), the journal tail and record count, and the
// injector's NVM line-write and flush counts. A change that moves a byte
// PMFS writes, or the order of its writes and flushes (which the crash
// sweeps index by), fails here.

struct MediaPin {
  uint32_t meta_crc = 0;
  uint64_t tail_bytes = 0;
  uint64_t records = 0;
  uint64_t line_writes = 0;
  uint64_t flushes = 0;
  bool operator==(const MediaPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const MediaPin& p) {
  return os << "{" << p.meta_crc << "u, " << p.tail_bytes << ", " << p.records << ", "
            << p.line_writes << ", " << p.flushes << "}";
}

MediaPin PinMedia(Machine& machine, const Pmfs& fs) {
  std::vector<uint8_t> meta(kPageSize + 2 * fs.journal_slot_bytes());
  O1_CHECK(machine.phys().ReadUncharged(machine.phys().nvm_base(), meta).ok());
  return MediaPin{.meta_crc = Crc32(meta),
                  .tail_bytes = fs.journal_tail_bytes(),
                  .records = fs.journal_records(),
                  .line_writes = machine.fault_injector().nvm_line_writes(),
                  .flushes = machine.fault_injector().nvm_flushes()};
}

void RunFormatScript(Pmfs& fs) {
  auto path = [](std::string_view dir, int i) { return std::string(dir) + std::to_string(i); };
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Mkdir("/e").ok());
  // Eight 1 MiB files, a filler up to 64 blocks short of the end, then three
  // 1 MiB holes: the 701-block grow below takes three extents.
  for (int i = 0; i < 8; ++i) {
    auto id = fs.Create(path("/d/a", i), FileFlags{.persistent = true});
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(fs.Resize(*id, kMiB).ok());
  }
  auto filler = fs.Create("/d/filler", FileFlags{.persistent = true});
  ASSERT_TRUE(filler.ok());
  ASSERT_TRUE(fs.Resize(*filler, fs.free_bytes() - 64 * kPageSize).ok());
  for (int i : {1, 3, 5}) {
    ASSERT_TRUE(fs.Unlink(path("/d/a", i)).ok());
  }
  auto grown = fs.Create("/d/grown", FileFlags{.persistent = true});
  ASSERT_TRUE(grown.ok());
  ASSERT_TRUE(fs.Resize(*grown, 700 * kPageSize + 100).ok());
  ASSERT_EQ(fs.Stat(*grown)->extent_count, 3u);
  ASSERT_TRUE(fs.WriteAt(*grown, 3 * kPageSize - 10, std::vector<uint8_t>(50, 0x5a)).ok());

  auto single = fs.Create("/e/single", FileFlags{.persistent = true});
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(fs.ResizeSingleExtent(*single, 40 * kPageSize + 5).ok());
  auto disc = fs.Create("/d/disc", FileFlags{.discardable = true});
  ASSERT_TRUE(disc.ok());
  ASSERT_TRUE(fs.WriteAt(*disc, 0, std::vector<uint8_t>(3 * kPageSize, 0x33)).ok());
  ASSERT_TRUE(fs.Link("/d/grown", "/e/grown_link").ok());
  ASSERT_TRUE(fs.Rename("/d/disc", "/e/disc").ok());
  // A linked volatile file with a second name: recovery drops both.
  auto vol = fs.Create("/d/vol", FileFlags{});
  ASSERT_TRUE(vol.ok());
  ASSERT_TRUE(fs.Resize(*vol, 2 * kPageSize).ok());
  ASSERT_TRUE(fs.Link("/d/vol", "/e/vol_link").ok());
  auto flip = fs.Create("/d/flip", FileFlags{});
  ASSERT_TRUE(flip.ok());
  ASSERT_TRUE(fs.SetPersistent(*flip, true).ok());
  ASSERT_TRUE(fs.SetPersistent(*vol, false).ok());
  // Shrink across extents to a size inside a page.
  ASSERT_TRUE(fs.Resize(*grown, 300 * kPageSize + 7).ok());
  ASSERT_TRUE(fs.Unlink("/d/a0").ok());
  ASSERT_TRUE(fs.Mkdir("/gone").ok());
  ASSERT_TRUE(fs.Rmdir("/gone").ok());

  // Unjournaled O_TMPFILE-style inodes, multi-page and single-extent.
  auto tmp = fs.CreateVolatile(FileFlags{});
  ASSERT_TRUE(tmp.ok());
  ASSERT_TRUE(fs.AddMapRef(*tmp).ok());
  ASSERT_TRUE(fs.Resize(*tmp, 5 * kPageSize).ok());
  auto tmp_single = fs.CreateVolatile(FileFlags{});
  ASSERT_TRUE(tmp_single.ok());
  ASSERT_TRUE(fs.AddMapRef(*tmp_single).ok());
  ASSERT_TRUE(fs.ResizeSingleExtent(*tmp_single, 3 * kPageSize).ok());

  // Ops that fail after their checks or part-way through.
  EXPECT_EQ(fs.Create("/d/grown", FileFlags{}).status().code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(fs.Rmdir("/d").ok());
  EXPECT_EQ(fs.Unlink("/d/missing").code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.ResizeSingleExtent(*single, kPageSize).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs.Link("/d/missing", "/e/x").code(), StatusCode::kNotFound);

  // Create/unlink pairs until the active slot has been compacted at least
  // once by a reservation that did not fit.
  int checkpoints = 0;
  for (int i = 0; i < 300; ++i) {
    const uint64_t before = fs.journal_tail_bytes();
    ASSERT_TRUE(fs.Create(path("/d/t", i), FileFlags{}).ok());
    ASSERT_TRUE(fs.Unlink(path("/d/t", i)).ok());
    checkpoints += fs.journal_tail_bytes() < before ? 1 : 0;
  }
  ASSERT_GE(checkpoints, 1);

  // A grow that takes every free run and then fails: its extents are
  // journaled, its size never is.
  EXPECT_EQ(fs.Resize(*filler, 64 * kMiB).code(), StatusCode::kOutOfMemory);
}

void ExpectPinnedFormat(ZeroPolicy policy, const MediaPin& after_script,
                        const MediaPin& after_recovery) {
  Machine machine(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 16 * kMiB});
  Pmfs fs(&machine, machine.phys().nvm_base(), 16 * kMiB, policy);
  RunFormatScript(fs);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  EXPECT_EQ(PinMedia(machine, fs), after_script);
  machine.Crash();
  ASSERT_TRUE(fs.OnCrash().ok());
  EXPECT_EQ(fs.mount_mode(), MountMode::kReadWrite);
  EXPECT_EQ(PinMedia(machine, fs), after_recovery);
  EXPECT_TRUE(fs.VerifyIntegrity().ok());
  EXPECT_TRUE(fs.LookupPath("/e/grown_link").ok());
  EXPECT_TRUE(fs.LookupPath("/d/flip").ok());
  EXPECT_FALSE(fs.LookupPath("/e/vol_link").ok());
}

TEST(PmfsFormatTest, EagerZeroScriptLeavesPinnedMedia) {
  ExpectPinnedFormat(ZeroPolicy::kEagerZero, MediaPin{3417933883u, 13592, 661, 354035, 691},
                     MediaPin{2003589512u, 1512, 0, 354189, 694});
}

TEST(PmfsFormatTest, ZeroEpochScriptLeavesPinnedMedia) {
  ExpectPinnedFormat(ZeroPolicy::kZeroEpoch, MediaPin{3417933883u, 13592, 661, 92467, 669},
                     MediaPin{2003589512u, 1512, 0, 93453, 672});
}

}  // namespace
}  // namespace o1mem
