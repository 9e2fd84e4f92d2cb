// Differential test of the Mmu's host fast path: two machines built from one
// config, the second with O1MEM_NO_HOST_FASTPATH=1, take one seeded mix of
// Touch/ReadVirt/WriteVirt, shootdowns, remaps, zeroing, poison and a crash
// point. After every op the status, the bytes read, the clock, each CPU's
// cycles, every event counter, the injector's NVM line-write count and the
// live-frame count must match: the fast path may change host work only.
//
// The mix reaches never-written and written frames, in-page spans and spans
// of up to 3 pages, 4 KiB and 2 MiB page leaves and range-table extents,
// DRAM and NVM, a read-only mapping and an unmapped hole, and 2 CPUs with
// batched shootdowns whose invalidations stay queued between ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/machine.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

constexpr uint64_t kOps = 3000;
constexpr Paddr kNvm = 64 * kMiB;  // nvm_base() of the config below

// One mapped region of the mix; `pbase` is the physical address of `vbase`
// (physically contiguous in every region).
struct Region {
  Vaddr vbase;
  uint64_t bytes;
  Paddr pbase;
  Prot prot;
  enum Kind { kPages4K, kPage2M, kRange } kind;
};

// Regions A and B are adjacent, as are the two range extents, so spans run
// from DRAM into NVM; the read-only region ends at an unmapped hole.
const std::vector<Region> kRegions = {
    {0x10000000, 32 * kPageSize, 0x100000, Prot::kReadWrite, Region::kPages4K},
    {0x10020000, 32 * kPageSize, kNvm + 0x100000, Prot::kReadWrite, Region::kPages4K},
    {0x10040000, 8 * kPageSize, 0x200000, Prot::kRead, Region::kPages4K},
    {0x40000000, kLargePageSize, 0x400000, Prot::kReadWrite, Region::kPage2M},
    {0x40200000, kLargePageSize, kNvm + 0x400000, Prot::kReadWrite, Region::kPage2M},
    {0x80000000, kMiB, 0x800000, Prot::kReadWrite, Region::kRange},
    {0x80100000, kMiB, kNvm + 0x800000, Prot::kReadWrite, Region::kRange},
    {0x80200000, 256 * kKiB, 0xc00000, Prot::kRead, Region::kRange},
};

// Region A's pages are remapped between their own frame and one of these.
constexpr Paddr kAltFrames = 0x300000;

MachineConfig DifferentialConfig(PersistenceModel persistence) {
  MachineConfig config;
  config.dram_bytes = 64 * kMiB;
  config.nvm_bytes = 64 * kMiB;
  config.persistence = persistence;
  config.smp = SmpConfig{.num_cpus = 2, .batched_shootdowns = true};
  // Small caches, so evictions and refills happen under the comparison.
  config.mmu.l1_tlb_entries = 8;
  config.mmu.l1_tlb_ways = 2;
  config.mmu.l2_tlb_entries = 32;
  config.mmu.l2_tlb_ways = 4;
  config.mmu.range_tlb_entries = 2;
  config.mmu.pwc_entries = 2;
  return config;
}

// One machine of the pair with its two address spaces: ASID 1 maps every
// region, ASID 2 only region A, so queued invalidations for one ASID can sit
// on a CPU while it works in the other.
struct Rig {
  explicit Rig(const MachineConfig& config)
      : machine(config), as1(machine.CreateAddressSpace()), as2(machine.CreateAddressSpace()) {
    for (const Region& r : kRegions) {
      switch (r.kind) {
        case Region::kPages4K:
          for (uint64_t off = 0; off < r.bytes; off += kPageSize) {
            O1_CHECK(
                as1->page_table().MapPage(r.vbase + off, r.pbase + off, kPageSize, r.prot).ok());
          }
          break;
        case Region::kPage2M:
          O1_CHECK(as1->page_table().MapPage(r.vbase, r.pbase, kLargePageSize, r.prot).ok());
          break;
        case Region::kRange:
          O1_CHECK(
              as1->range_table()
                  .Insert({.vbase = r.vbase, .bytes = r.bytes, .pbase = r.pbase, .prot = r.prot})
                  .ok());
          break;
      }
    }
    const Region& a = kRegions[0];
    for (uint64_t off = 0; off < a.bytes; off += kPageSize) {
      O1_CHECK(as2->page_table().MapPage(a.vbase + off, a.pbase + off, kPageSize, a.prot).ok());
    }
  }

  Machine machine;
  std::unique_ptr<AddressSpace> as1;
  std::unique_ptr<AddressSpace> as2;
  std::vector<bool> remapped = std::vector<bool>(32, false);  // region A page -> on kAltFrames
};

// Everything the two machines must agree on after an op.
struct Fingerprint {
  uint64_t now = 0;
  std::vector<uint64_t> cpu_cycles;
  std::vector<std::pair<std::string, uint64_t>> counters;
  uint64_t nvm_line_writes = 0;
  uint64_t materialized_pages = 0;
  bool triggered = false;
};

Fingerprint Take(Machine& m) {
  Fingerprint f;
  f.now = m.ctx().now();
  for (int cpu = 0; cpu < m.ctx().num_cpus(); ++cpu) {
    f.cpu_cycles.push_back(m.ctx().cpu_cycles(cpu));
  }
  m.ctx().counters().ForEachField(
      [&f](const char* name, uint64_t value) { f.counters.emplace_back(name, value); });
  f.nvm_line_writes = m.fault_injector().nvm_line_writes();
  f.materialized_pages = m.phys().materialized_pages();
  f.triggered = m.fault_injector().triggered();
  return f;
}

void ExpectSame(const Fingerprint& fast, const Fingerprint& slow, uint64_t op) {
  ASSERT_EQ(fast.now, slow.now) << "clock after op " << op;
  ASSERT_EQ(fast.cpu_cycles, slow.cpu_cycles) << "per-CPU cycles after op " << op;
  ASSERT_EQ(fast.counters.size(), slow.counters.size());
  for (size_t i = 0; i < fast.counters.size(); ++i) {
    ASSERT_EQ(fast.counters[i].second, slow.counters[i].second)
        << "counter " << fast.counters[i].first << " after op " << op;
  }
  ASSERT_EQ(fast.nvm_line_writes, slow.nvm_line_writes) << "after op " << op;
  ASSERT_EQ(fast.materialized_pages, slow.materialized_pages) << "after op " << op;
  ASSERT_EQ(fast.triggered, slow.triggered) << "after op " << op;
}

// Remaps region A's page `page` to its other frame and shoots it down
// (queued on the other CPU).
Status Remap(Rig& rig, uint64_t page) {
  const Region& a = kRegions[0];
  const Vaddr vaddr = a.vbase + page * kPageSize;
  rig.remapped[page] = !rig.remapped[page];
  const Paddr to = (rig.remapped[page] ? kAltFrames : a.pbase) + page * kPageSize;
  O1_RETURN_IF_ERROR(rig.as1->page_table().UnmapPage(vaddr, kPageSize));
  O1_RETURN_IF_ERROR(rig.as1->page_table().MapPage(vaddr, to, kPageSize, a.prot));
  rig.machine.mmu().ShootdownPage(rig.as1->asid(), vaddr);
  return OkStatus();
}

class MmuFastPathTest : public ::testing::TestWithParam<PersistenceModel> {};

TEST_P(MmuFastPathTest, FastPathMatchesSlowPathOnEveryOp) {
  const MachineConfig config = DifferentialConfig(GetParam());
  Rig fast(config);
  ASSERT_EQ(setenv("O1MEM_NO_HOST_FASTPATH", "1", 1), 0);
  Rig slow(config);
  ASSERT_EQ(unsetenv("O1MEM_NO_HOST_FASTPATH"), 0);
  Rig* const rigs[] = {&fast, &slow};
  // Lines poisoned for the second quarter of the run: a 4 KiB DRAM page, a
  // 2 MiB DRAM leaf and an NVM extent, each near its region's start.
  const Paddr poisoned[] = {kRegions[0].pbase + 64, kRegions[3].pbase + kPageSize,
                            kRegions[6].pbase + kPageSize + 128};

  Rng rng(GetParam() == PersistenceModel::kAutoDurable ? 21 : 22);
  uint64_t crash_at_op = 0;  // nonzero: both machines crash after this op
  uint64_t crashes = 0;
  uint64_t media_errors = 0;
  uint64_t faults = 0;
  for (uint64_t op = 0; op < kOps; ++op) {
    const int cpu = static_cast<int>(rng.NextBelow(2));
    const Region& region = kRegions[rng.NextBelow(kRegions.size())];
    // Most ops stay near a region's start, so accesses revisit frames.
    const uint64_t window_pick = rng.NextBelow(10);
    const uint64_t window = window_pick < 4   ? 2 * kPageSize
                            : window_pick < 7 ? std::min<uint64_t>(region.bytes, 16 * kPageSize)
                                              : region.bytes;
    const Vaddr vaddr = region.vbase + rng.NextBelow(window);
    const uint64_t size_pick = rng.NextBelow(10);
    const uint64_t len = size_pick < 4   ? 1 + rng.NextBelow(64)
                         : size_pick < 7 ? 1 + rng.NextBelow(kPageSize)
                                         : 1 + rng.NextBelow(3 * kPageSize);
    const bool in_as2 = region.vbase == kRegions[0].vbase && rng.NextBool(0.3);
    const uint64_t kind = rng.NextBelow(100);
    const uint64_t page = rng.NextBelow(32);
    std::vector<uint8_t> payload(len);
    for (uint8_t& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }

    std::vector<uint8_t> read_back[2];
    StatusCode code[2] = {StatusCode::kOk, StatusCode::kOk};
    for (int side = 0; side < 2; ++side) {
      Rig& rig = *rigs[side];
      Machine& m = rig.machine;
      AddressSpace& as = in_as2 ? *rig.as2 : *rig.as1;
      m.ctx().SetCurrentCpu(cpu);
      if (op == kOps / 4) {
        for (Paddr line : poisoned) {
          m.fault_injector().MarkUnreadable(line, /*sticky=*/true);
        }
      } else if (op == kOps / 2) {
        for (Paddr line : poisoned) {
          m.fault_injector().ClearUnreadable(line);
        }
      } else if (op == 3 * kOps / 5 || op == 4 * kOps / 5) {
        m.fault_injector().ArmCrashAtNvmWrite(m.fault_injector().nvm_line_writes() + 40);
      }
      Status s;
      if (kind < 30) {
        read_back[side].assign(len, 0xee);
        s = m.mmu().ReadVirt(as, vaddr, read_back[side]);
      } else if (kind < 55) {
        s = m.mmu().WriteVirt(as, vaddr, payload);
      } else if (kind < 70) {
        s = m.mmu().Touch(as, vaddr, len, kind < 63 ? AccessType::kRead : AccessType::kWrite);
      } else if (kind < 74) {
        const AccessType type = kind < 72 ? AccessType::kRead : AccessType::kWrite;
        s = m.mmu().Translate(as, vaddr, type).status();
      } else if (kind < 80) {
        m.mmu().ShootdownRange(as.asid(), vaddr, len);
      } else if (kind < 83) {
        m.mmu().ShootdownPage(as.asid(), vaddr);
      } else if (kind < 84) {
        m.mmu().ShootdownAsid(as.asid());
      } else if (kind < 88) {
        m.mmu().FlushPending();
      } else if (kind < 92) {
        s = Remap(rig, page);
      } else if (kind < 96) {
        // Zeroing whole frames takes written frames out of the live set.
        const Paddr at = region.pbase + AlignDown(vaddr - region.vbase, kPageSize);
        s = m.phys().Zero(at, kPageSize * (1 + len % 3));
      } else {
        s = m.phys().FlushLines(region.pbase + (vaddr - region.vbase), len);
      }
      code[side] = s.code();
      if (op == crash_at_op && crash_at_op != 0) {
        m.Crash();
      }
    }
    ASSERT_EQ(code[0], code[1]) << "status of op " << op << " (kind " << kind << ")";
    ASSERT_EQ(read_back[0], read_back[1]) << "bytes read by op " << op;
    ASSERT_NO_FATAL_FAILURE(ExpectSame(Take(fast.machine), Take(slow.machine), op));
    media_errors += code[0] == StatusCode::kMediaError ? 1 : 0;
    faults += code[0] == StatusCode::kFault || code[0] == StatusCode::kPermissionDenied ? 1 : 0;
    if (op == crash_at_op && crash_at_op != 0) {
      crash_at_op = 0;
      ++crashes;
    } else if (crash_at_op == 0 && fast.machine.fault_injector().triggered()) {
      crash_at_op = op + 25;  // a few post-trigger writes first
    }
  }
  // The mix reached what it is for.
  EXPECT_GT(media_errors, 0u);
  EXPECT_GT(faults, 0u);
  EXPECT_EQ(crashes, 2u);
}

INSTANTIATE_TEST_SUITE_P(Persistence, MmuFastPathTest,
                         ::testing::Values(PersistenceModel::kAutoDurable,
                                           PersistenceModel::kExplicitFlush),
                         [](const ::testing::TestParamInfo<PersistenceModel>& param) {
                           return param.param == PersistenceModel::kAutoDurable
                                      ? std::string("AutoDurable")
                                      : std::string("ExplicitFlush");
                         });

}  // namespace
}  // namespace o1mem
