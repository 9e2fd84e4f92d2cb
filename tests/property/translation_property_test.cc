// Property test: the MMU (TLBs + page walks + range walks + shootdowns)
// always agrees with a flat reference model of the address space.
//
// A random operation stream -- 4K/2M page maps and unmaps, range-entry
// installs and removals, TLB shootdowns, accesses -- is applied both to the
// simulated hardware and to a byte-granularity reference map. After every
// step a batch of random probe addresses must translate to exactly the
// reference's answer (including misses and protection denials).
#include <gtest/gtest.h>

#include <map>

#include "src/sim/machine.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

struct RefMapping {
  Paddr pbase;
  uint64_t bytes;
  Prot prot;
};

class TranslationModel {
 public:
  // Reference: sorted map vbase -> mapping; no overlaps by construction.
  bool Overlaps(Vaddr vbase, uint64_t bytes) const {
    auto next = ref_.lower_bound(vbase);
    if (next != ref_.end() && next->first < vbase + bytes) {
      return true;
    }
    if (next != ref_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second.bytes > vbase) {
        return true;
      }
    }
    return false;
  }

  void Add(Vaddr vbase, Paddr pbase, uint64_t bytes, Prot prot) {
    ref_.emplace(vbase, RefMapping{.pbase = pbase, .bytes = bytes, .prot = prot});
  }

  void Remove(Vaddr vbase) { ref_.erase(vbase); }

  // nullopt = unmapped.
  std::optional<std::pair<Paddr, Prot>> Lookup(Vaddr vaddr) const {
    auto it = ref_.upper_bound(vaddr);
    if (it == ref_.begin()) {
      return std::nullopt;
    }
    --it;
    if (vaddr >= it->first && vaddr < it->first + it->second.bytes) {
      return std::make_pair(it->second.pbase + (vaddr - it->first), it->second.prot);
    }
    return std::nullopt;
  }

  std::vector<Vaddr> Bases() const {
    std::vector<Vaddr> out;
    for (const auto& [vbase, m] : ref_) {
      out.push_back(vbase);
    }
    return out;
  }

  const std::map<Vaddr, RefMapping>& ref() const { return ref_; }

 private:
  std::map<Vaddr, RefMapping> ref_;
};

class TranslationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TranslationProperty, HardwareAgreesWithReferenceModel) {
  MachineConfig config;
  config.dram_bytes = 1 * kGiB;
  config.nvm_bytes = 0;
  // Tiny TLBs so replacement and staleness paths are exercised hard.
  config.mmu.l1_tlb_entries = 16;
  config.mmu.l1_tlb_ways = 4;
  config.mmu.l2_tlb_entries = 64;
  config.mmu.l2_tlb_ways = 8;
  config.mmu.range_tlb_entries = 4;
  config.mmu.pwc_entries = 8;
  Machine machine(config);
  auto as = machine.CreateAddressSpace();
  TranslationModel model;
  Rng rng(GetParam());

  constexpr Vaddr kVaSpan = 8 * kGiB;
  // Kind of mapping per live vbase, needed for correct teardown.
  std::map<Vaddr, int> kind;  // 0 = 4K page, 1 = 2M page, 2 = range

  for (int step = 0; step < 400; ++step) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 40) {
      // Install something new.
      const int what = static_cast<int>(rng.NextBelow(3));
      uint64_t bytes;
      Vaddr vbase;
      if (what == 0) {
        bytes = kPageSize;
        vbase = AlignDown(rng.NextBelow(kVaSpan), kPageSize);
      } else if (what == 1) {
        bytes = kLargePageSize;
        vbase = AlignDown(rng.NextBelow(kVaSpan), kLargePageSize);
      } else {
        bytes = AlignUp(rng.NextInRange(1, 64) * kPageSize, kPageSize);
        vbase = AlignDown(rng.NextBelow(kVaSpan), kPageSize);
      }
      if (model.Overlaps(vbase, bytes)) {
        continue;
      }
      const Paddr pbase = AlignDown(rng.NextBelow(config.dram_bytes - bytes),
                                    what == 1 ? kLargePageSize : kPageSize);
      const Prot prot = rng.NextBool(0.5) ? Prot::kReadWrite : Prot::kRead;
      if (what == 2) {
        ASSERT_TRUE(as->range_table()
                        .Insert({.vbase = vbase, .bytes = bytes, .pbase = pbase, .prot = prot})
                        .ok());
      } else {
        if (!as->page_table().MapPage(vbase, pbase, bytes, prot).ok()) {
          continue;  // e.g. 4K under an existing 2M region of the radix tree
        }
      }
      model.Add(vbase, pbase, bytes, prot);
      kind[vbase] = what;
    } else if (dice < 60 && !model.ref().empty()) {
      // Tear something down (with the mandatory shootdown).
      const auto bases = model.Bases();
      const Vaddr vbase = bases[rng.NextBelow(bases.size())];
      const uint64_t bytes = model.ref().at(vbase).bytes;
      if (kind.at(vbase) == 2) {
        ASSERT_TRUE(as->range_table().Remove(vbase).ok());
      } else {
        ASSERT_TRUE(as->page_table().UnmapPage(vbase, bytes).ok());
      }
      machine.mmu().ShootdownRange(as->asid(), vbase, bytes);
      model.Remove(vbase);
      kind.erase(vbase);
    } else if (dice < 65) {
      // Random gratuitous shootdown: must never break correctness.
      machine.mmu().ShootdownRange(as->asid(), AlignDown(rng.NextBelow(kVaSpan), kPageSize),
                                   rng.NextInRange(1, 512) * kPageSize);
    }

    // Probe: 8 random addresses + 2 targeted at live mappings.
    for (int probe = 0; probe < 10; ++probe) {
      Vaddr vaddr;
      if (probe < 8 || model.ref().empty()) {
        vaddr = rng.NextBelow(kVaSpan);
      } else {
        const auto bases = model.Bases();
        const Vaddr vbase = bases[rng.NextBelow(bases.size())];
        vaddr = vbase + rng.NextBelow(model.ref().at(vbase).bytes);
      }
      const auto expected = model.Lookup(vaddr);
      const bool want_write = rng.NextBool(0.3);
      auto got = machine.mmu().Translate(*as, vaddr,
                                         want_write ? AccessType::kWrite : AccessType::kRead);
      if (!expected.has_value()) {
        EXPECT_FALSE(got.ok()) << "step " << step << " vaddr " << vaddr;
        continue;
      }
      if (want_write && !HasProt(expected->second, Prot::kWrite)) {
        ASSERT_FALSE(got.ok()) << "step " << step << " vaddr " << vaddr;
        EXPECT_EQ(got.status().code(), StatusCode::kPermissionDenied);
        continue;
      }
      ASSERT_TRUE(got.ok()) << "step " << step << " vaddr " << vaddr << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->paddr, expected->first) << "step " << step << " vaddr " << vaddr;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslationProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace o1mem
