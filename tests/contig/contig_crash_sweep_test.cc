// Crash-point sweep over the revoke-with-writeback path: a persistent FOM
// segment is promoted onto a *borrowed* contiguous-area extent (the tier
// carve is pre-filled so the promotion must borrow), dirtied through the
// mapping, and then a Claim() takes the window -- forcing the surrender's
// durable writeback. The golden run counts the NVM line-writes the claim
// generates; the workload is re-run once per index with the fault injector
// cutting power exactly there. After crash + recovery the segment must hold
// wholly the old or wholly the new pattern -- never a mix -- because the
// surrender rides the same journaled copy-then-publish writeback as any
// demotion (DESIGN.md Sec. 14 durability invariant).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/os/system.h"

namespace o1mem {
namespace {

constexpr uint64_t kSegBytes = 16 * kKiB;
constexpr uint64_t kAreaBytes = 4 * kMiB;
constexpr char kSegPath[] = "/c/sweep";

ProcessImage TinyImage() {
  return ProcessImage{.code_bytes = kPageSize, .stack_bytes = kPageSize,
                      .heap_bytes = kPageSize};
}

SystemConfig SweepConfig(PersistenceModel persistence) {
  SystemConfig config;
  config.machine.dram_bytes = 16 * kMiB;
  config.machine.nvm_bytes = 32 * kMiB;
  config.machine.persistence = persistence;
  config.machine.tier.enabled = true;
  // One promotion unit of carve: the filler segment exhausts it, so the
  // swept segment's promotion lands on a borrowed area extent.
  config.machine.tier.dram_cache_bytes = 4 * kPageSize;
  config.machine.tier.min_region_bytes = 4 * kPageSize;
  config.machine.contig.area_bytes = kAreaBytes;
  config.machine.smp.num_cpus = 2;
  config.machine.smp.batched_shootdowns = true;
  config.swap_pages = 1024;
  return config;
}

std::vector<uint8_t> Pattern(uint8_t salt) {
  std::vector<uint8_t> data(kSegBytes);
  for (uint64_t i = 0; i < kSegBytes; ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + salt);
  }
  return data;
}

struct Driver {
  System& sys;
  Process* proc = nullptr;
  InodeId inode = kInvalidInode;
  Vaddr va = 0;

  // Creates + maps the swept segment (Pattern(0), durably flushed) and a
  // filler segment whose promotion consumes the whole tier carve. Runs
  // before the swept window, so it is never interrupted.
  void Setup() {
    auto launched = sys.Launch(Backend::kFom, TinyImage());
    O1_CHECK(launched.ok());
    proc = *launched;
    auto fill = sys.fom().CreateSegment("/c/fill", 4 * kPageSize,
                                        SegmentOptions{.flags = {.persistent = true}});
    O1_CHECK(fill.ok());
    auto fill_va = sys.fom().Map(proc->fom(), *fill, Prot::kReadWrite);
    O1_CHECK(fill_va.ok());
    O1_CHECK(sys.MadviseTier(*proc, *fill_va, 4 * kPageSize, TierHint::kHot).ok());
    auto filler = sys.tier()->PromotedOf(*fill);
    O1_CHECK(filler.size() == 1 && !filler[0].borrowed);  // carve now full

    auto seg = sys.fom().CreateSegment(kSegPath, kSegBytes,
                                       SegmentOptions{.flags = {.persistent = true}});
    O1_CHECK(seg.ok());
    inode = *seg;
    auto mapped = sys.fom().Map(proc->fom(), inode, Prot::kReadWrite);
    O1_CHECK(mapped.ok());
    va = *mapped;
    auto data = Pattern(0);
    O1_CHECK(sys.UserWrite(*proc, va, data).ok());
    O1_CHECK(sys.UserFlush(*proc, va, kSegBytes).ok());
  }

  // The swept transition: promote onto a borrowed extent, dirty it with
  // Pattern(1), then claim the window -- the revoke's journaled writeback is
  // the A -> B transition under test.
  void Run() {
    O1_CHECK(sys.MadviseTier(*proc, va, kSegBytes, TierHint::kHot).ok());
    auto promoted = sys.tier()->PromotedOf(inode);
    O1_CHECK(promoted.size() == 1 && promoted[0].borrowed);
    auto data = Pattern(1);
    O1_CHECK(sys.UserWrite(*proc, va, data).ok());
    std::vector<ContigVictim> victims;
    auto claim = sys.contig()->Claim(kAreaBytes, &victims);
    O1_CHECK(claim.ok());
    O1_CHECK(victims.size() == 1 &&
             victims[0].cls == LenderClass::kTierCleanCopy);
    O1_CHECK(sys.tier()->PromotedOf(inode).empty());
  }
};

// The recovered segment must hold exactly Pattern(0) or Pattern(1).
void VerifyRecovered(System& sys) {
  ASSERT_TRUE(sys.pmfs().VerifyIntegrity().ok());
  auto scrub = sys.pmfs().Scrub();
  ASSERT_TRUE(scrub.ok());
  ASSERT_EQ(scrub->files_quarantined, 0u);

  auto inode = sys.pmfs().LookupPath(kSegPath);
  ASSERT_TRUE(inode.ok()) << "segment lost";
  std::vector<uint8_t> out(kSegBytes);
  auto read = sys.pmfs().ReadAt(*inode, 0, out);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(*read, kSegBytes);
  const std::vector<uint8_t> before = Pattern(0);
  const std::vector<uint8_t> after = Pattern(1);
  ASSERT_TRUE(out == before || out == after)
      << "segment is neither wholly the old nor wholly the new pattern "
      << "(got first byte " << int(out[0]) << ")";

  // Recovery must drain the writeback staging area.
  auto wb = sys.pmfs().List("/.tier/wb");
  if (wb.ok()) {
    for (const DirEntry& e : *wb) {
      ASSERT_TRUE(e.is_dir) << "stranded staging file " << e.name;
    }
  }
}

constexpr int kShards = 4;

struct Param {
  PersistenceModel persistence;
  int shard = 0;
};

class ContigCrashSweep : public ::testing::TestWithParam<Param> {};

TEST_P(ContigCrashSweep, EveryRevokeCrashPointRecovers) {
  const PersistenceModel persistence = GetParam().persistence;
  const auto shard = static_cast<uint64_t>(GetParam().shard);

  // Golden run: bound the claim's NVM write window, check the clean end
  // state (the dirty pattern written back, then survives an ordinary crash).
  uint64_t first = 0;
  uint64_t last = 0;
  {
    System sys(SweepConfig(persistence));
    Driver d{sys};
    d.Setup();
    FaultInjector& fi = sys.machine().fault_injector();
    first = fi.nvm_line_writes();
    d.Run();
    last = fi.nvm_line_writes();
    // A journaled 16 KiB writeback must produce a substantial window or the
    // sweep is vacuous.
    ASSERT_GT(last - first, 300u);
    ASSERT_TRUE(sys.Crash().ok());
    VerifyRecovered(sys);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  SCOPED_TRACE("sweeping shard " + std::to_string(shard) + " of " +
               std::to_string(last - first) + " revoke crash points");

  for (uint64_t index = first + shard; index < last; index += kShards) {
    System sys(SweepConfig(persistence));
    Driver d{sys};
    d.Setup();

    FaultInjector& fi = sys.machine().fault_injector();
    if (persistence == PersistenceModel::kExplicitFlush) {
      fi.EnableTornPersists(/*seed=*/index * 2654435761ull + 1, /*persist_percent=*/50);
    }
    fi.ArmCrashAtNvmWrite(index);
    d.Run();
    ASSERT_TRUE(fi.triggered()) << "index " << index << " never fired";
    ASSERT_TRUE(sys.Crash().ok()) << "index " << index;
    {
      SCOPED_TRACE("crash index " + std::to_string(index));
      VerifyRecovered(sys);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string name = info.param.persistence == PersistenceModel::kAutoDurable
                         ? "Auto"
                         : "Strict";
  name += "Shard" + std::to_string(info.param.shard);
  return name;
}

std::vector<Param> SweepParams() {
  std::vector<Param> params;
  for (PersistenceModel persistence :
       {PersistenceModel::kAutoDurable, PersistenceModel::kExplicitFlush}) {
    for (int shard = 0; shard < kShards; ++shard) {
      params.push_back(Param{persistence, shard});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContigCrashSweep, ::testing::ValuesIn(SweepParams()),
                         ParamName);

}  // namespace
}  // namespace o1mem
