#include "src/sim/tlb.h"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "src/support/rng.h"

namespace o1mem {
namespace {

TEST(TlbTest, MissThenHitAfterInsert) {
  Tlb tlb(64, 4);
  EXPECT_FALSE(tlb.Lookup(1, 0x1000).has_value());
  tlb.Insert(1, 0x1000, 0x8000, kPageSize, Prot::kRead);
  auto e = tlb.Lookup(1, 0x1abc);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->pbase, 0x8000u);
  EXPECT_EQ(e->page_bytes, kPageSize);
}

TEST(TlbTest, AsidIsolation) {
  Tlb tlb(64, 4);
  tlb.Insert(1, 0x1000, 0x8000, kPageSize, Prot::kRead);
  EXPECT_FALSE(tlb.Lookup(2, 0x1000).has_value());
}

TEST(TlbTest, LargePageEntryCoversWholePage) {
  Tlb tlb(64, 4);
  tlb.Insert(1, kLargePageSize, 0, kLargePageSize, Prot::kReadWrite);
  auto e = tlb.Lookup(1, kLargePageSize + 12345);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->page_bytes, kLargePageSize);
}

TEST(TlbTest, LruEvictionWithinSet) {
  Tlb tlb(4, 4);  // one set, four ways
  for (int i = 0; i < 4; ++i) {
    tlb.Insert(1, static_cast<Vaddr>(i) * 4 * kPageSize, 0, kPageSize, Prot::kRead);
  }
  // Touch entry 0 so it is most recently used.
  ASSERT_TRUE(tlb.Lookup(1, 0).has_value());
  // Insert a fifth entry: the LRU (entry for page 1*4) must be evicted.
  tlb.Insert(1, 100 * kPageSize, 0, kPageSize, Prot::kRead);
  EXPECT_TRUE(tlb.Lookup(1, 0).has_value());
  EXPECT_FALSE(tlb.Lookup(1, 4 * kPageSize).has_value());
}

TEST(TlbTest, ReinsertionRefreshesInPlace) {
  Tlb tlb(4, 4);
  tlb.Insert(1, 0, 0x1000, kPageSize, Prot::kRead);
  tlb.Insert(1, 0, 0x2000, kPageSize, Prot::kReadWrite);
  auto e = tlb.Lookup(1, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->pbase, 0x2000u);
  EXPECT_EQ(e->prot, Prot::kReadWrite);
}

TEST(TlbTest, InvalidateRangeDropsOverlapsOnly) {
  Tlb tlb(64, 4);
  tlb.Insert(1, 0, 0, kPageSize, Prot::kRead);
  tlb.Insert(1, kPageSize, 0, kPageSize, Prot::kRead);
  tlb.Insert(1, 10 * kPageSize, 0, kPageSize, Prot::kRead);
  EXPECT_EQ(tlb.InvalidateRange(1, 0, 2 * kPageSize), 2);
  EXPECT_TRUE(tlb.Lookup(1, 10 * kPageSize).has_value());
}

TEST(TlbTest, InvalidateAsidKeepsOthers) {
  Tlb tlb(64, 4);
  tlb.Insert(1, 0, 0, kPageSize, Prot::kRead);
  tlb.Insert(2, 0, 0, kPageSize, Prot::kRead);
  tlb.InvalidateAsid(1);
  EXPECT_FALSE(tlb.Lookup(1, 0).has_value());
  EXPECT_TRUE(tlb.Lookup(2, 0).has_value());
}

TEST(RangeTlbTest, OneEntryCoversArbitrarilyLargeRange) {
  RangeTlb rtlb(4);
  rtlb.Insert(1, kGiB, 64 * kGiB, /*pbase=*/0, Prot::kReadWrite);
  EXPECT_TRUE(rtlb.Lookup(1, kGiB).has_value());
  EXPECT_TRUE(rtlb.Lookup(1, kGiB + 63 * kGiB).has_value());
  EXPECT_FALSE(rtlb.Lookup(1, kGiB + 64 * kGiB).has_value());
  EXPECT_FALSE(rtlb.Lookup(1, kGiB - 1).has_value());
}

TEST(RangeTlbTest, OffsetTranslationIsLinear) {
  RangeTlb rtlb(4);
  rtlb.Insert(1, 0x10000, 0x1000, 0x90000, Prot::kRead);
  auto e = rtlb.Lookup(1, 0x10abc);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->pbase + (0x10abcu - e->vbase), 0x90abcu);
}

TEST(RangeTlbTest, LruEviction) {
  RangeTlb rtlb(2);
  rtlb.Insert(1, 0, kPageSize, 0, Prot::kRead);
  rtlb.Insert(1, kMiB, kPageSize, 0, Prot::kRead);
  ASSERT_TRUE(rtlb.Lookup(1, 0).has_value());  // refresh first entry
  rtlb.Insert(1, kGiB, kPageSize, 0, Prot::kRead);
  EXPECT_TRUE(rtlb.Lookup(1, 0).has_value());
  EXPECT_FALSE(rtlb.Lookup(1, kMiB).has_value());
}

TEST(RangeTlbTest, InvalidateRange) {
  RangeTlb rtlb(4);
  rtlb.Insert(1, 0, kMiB, 0, Prot::kRead);
  rtlb.Insert(1, 2 * kMiB, kMiB, 0, Prot::kRead);
  EXPECT_EQ(rtlb.InvalidateRange(1, kMiB / 2, kMiB), 1);
  EXPECT_FALSE(rtlb.Lookup(1, kMiB / 2).has_value());
  EXPECT_TRUE(rtlb.Lookup(1, 2 * kMiB).has_value());
}

// Tlb keeps a count of valid entries per ASID and skips invalidations for an
// ASID with none. An ASID whose last entry was evicted by another ASID's
// Insert reads zero; once re-inserted, both invalidations must drop it.
TEST(TlbTest, AsidEvictedByAnotherAsidIsStillInvalidatedAfterReinsert) {
  Tlb tlb(4, 4);  // one set, four ways
  tlb.Insert(1, 0, 0x1000, kPageSize, Prot::kRead);
  for (int i = 1; i <= 4; ++i) {
    tlb.Insert(2, static_cast<Vaddr>(i) * kPageSize, 0, kPageSize, Prot::kRead);
  }
  EXPECT_FALSE(tlb.Lookup(1, 0).has_value());
  EXPECT_EQ(tlb.InvalidateRange(1, 0, kGiB), 0);

  tlb.Insert(1, 0, 0x1000, kPageSize, Prot::kRead);  // evicts one of ASID 2's
  EXPECT_EQ(tlb.InvalidateRange(1, 0, kPageSize), 1);
  EXPECT_FALSE(tlb.Lookup(1, 0).has_value());

  tlb.Insert(1, 0, 0x1000, kPageSize, Prot::kRead);
  tlb.InvalidateAsid(1);
  EXPECT_FALSE(tlb.Lookup(1, 0).has_value());
  EXPECT_EQ(tlb.InvalidateRange(2, 0, kGiB), 3);
}

// Brute-force model: the same set-associative LRU TLB with every
// invalidation scanning every slot, as Tlb did before it counted entries.
class BruteForceTlb {
 public:
  BruteForceTlb(int entries, int ways)
      : ways_(ways), sets_(entries / ways), slots_(static_cast<size_t>(entries)) {}

  std::optional<TlbEntry> Lookup(Asid asid, Vaddr vaddr) {
    ++tick_;
    for (uint64_t page_bytes : {kPageSize, kLargePageSize, kHugePageSize}) {
      const Vaddr vbase = AlignDown(vaddr, page_bytes);
      for (TlbEntry& e : Set(vbase, page_bytes)) {
        if (e.valid && e.asid == asid && e.page_bytes == page_bytes && e.vbase == vbase) {
          e.lru_tick = tick_;
          return e;
        }
      }
    }
    return std::nullopt;
  }

  void Insert(Asid asid, Vaddr vbase, Paddr pbase, uint64_t page_bytes, Prot prot) {
    ++tick_;
    const std::span<TlbEntry> set = Set(vbase, page_bytes);
    TlbEntry* victim = &set.front();
    uint64_t oldest = UINT64_MAX;
    for (TlbEntry& e : set) {
      if (e.valid && e.asid == asid && e.page_bytes == page_bytes && e.vbase == vbase) {
        victim = &e;
        break;
      }
      if (!e.valid) {
        victim = &e;
        oldest = 0;
        continue;
      }
      if (e.lru_tick < oldest) {
        oldest = e.lru_tick;
        victim = &e;
      }
    }
    *victim = TlbEntry{.valid = true,
                       .asid = asid,
                       .vbase = vbase,
                       .pbase = pbase,
                       .page_bytes = page_bytes,
                       .prot = prot,
                       .lru_tick = tick_};
  }

  int InvalidateRange(Asid asid, Vaddr vaddr, uint64_t len) {
    int dropped = 0;
    for (TlbEntry& e : slots_) {
      if (e.valid && e.asid == asid && e.vbase < vaddr + len && vaddr < e.vbase + e.page_bytes) {
        e.valid = false;
        ++dropped;
      }
    }
    return dropped;
  }

  void InvalidateAsid(Asid asid) {
    for (TlbEntry& e : slots_) {
      e.valid = e.valid && e.asid != asid;
    }
  }

  void InvalidateAll() {
    for (TlbEntry& e : slots_) {
      e.valid = false;
    }
  }

 private:
  std::span<TlbEntry> Set(Vaddr vbase, uint64_t page_bytes) {
    const uint64_t set =
        ((vbase / page_bytes) ^ (page_bytes >> kPageShift)) % static_cast<uint64_t>(sets_);
    return std::span<TlbEntry>(slots_).subspan(set * static_cast<uint64_t>(ways_),
                                               static_cast<size_t>(ways_));
  }

  int ways_;
  int sets_;
  uint64_t tick_ = 0;
  std::vector<TlbEntry> slots_;
};

void ExpectSameEntry(const std::optional<TlbEntry>& got, const std::optional<TlbEntry>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (want.has_value()) {
    ASSERT_EQ(got->asid, want->asid);
    ASSERT_EQ(got->vbase, want->vbase);
    ASSERT_EQ(got->pbase, want->pbase);
    ASSERT_EQ(got->page_bytes, want->page_bytes);
    ASSERT_EQ(got->prot, want->prot);
    ASSERT_EQ(got->lru_tick, want->lru_tick);
  }
}

// The op mix maps 4 KiB pages in the first `small_pages` pages, 2 MiB pages
// at 2 and 4 MiB and a 1 GiB page at 1 GiB, so the sets stay full and
// inserts evict across ASIDs.
struct OpMixGeometry {
  int entries;
  int ways;
  uint64_t small_pages;
  int ops;
};

// Every translation either TLB could hold, probed on copies so the probes
// leave the LRU state of the originals alone.
void ExpectSameContents(const Tlb& tlb, const BruteForceTlb& model, uint64_t small_pages) {
  Tlb probe = tlb;
  BruteForceTlb probe_model = model;
  for (Asid asid = 1; asid <= 3; ++asid) {
    for (uint64_t page = 0; page < small_pages + 3; ++page) {
      const Vaddr vaddr = page < small_pages       ? page * kPageSize
                          : page < small_pages + 2 ? (page - small_pages + 1) * kLargePageSize
                                                   : kHugePageSize;
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameEntry(probe.Lookup(asid, vaddr), probe_model.Lookup(asid, vaddr)));
    }
  }
}

// A 16-entry TLB, where almost every range is long enough for the full
// scan, and a 1,024-entry 8-way one, where a range of a few pages probes
// only its sets. Half the ranges cover 1-4 KiB pages from anywhere in the
// page drawn, the other half up to 6 MiB from its base.
TEST(TlbTest, SeededOpMixOverThreeAsidsMatchesBruteForceModel) {
  for (const OpMixGeometry& geometry :
       {OpMixGeometry{16, 4, 48, 2000}, OpMixGeometry{1024, 8, 512, 500}}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      Tlb tlb(geometry.entries, geometry.ways);
      BruteForceTlb model(geometry.entries, geometry.ways);
      Rng rng(seed);
      auto pick_page = [&rng, &geometry](uint64_t& page_bytes) {
        const uint64_t kind = rng.NextBelow(100);
        page_bytes = kind < 10 ? kHugePageSize : kind < 25 ? kLargePageSize : kPageSize;
        return page_bytes == kPageSize        ? rng.NextBelow(geometry.small_pages) * kPageSize
               : page_bytes == kLargePageSize ? rng.NextInRange(1, 2) * kLargePageSize
                                              : kHugePageSize;
      };
      for (int op = 0; op < geometry.ops; ++op) {
        SCOPED_TRACE(::testing::Message() << geometry.entries << " entries, seed " << seed
                                          << " op " << op);
        const Asid asid = static_cast<Asid>(rng.NextInRange(1, 3));
        uint64_t page_bytes = 0;
        const Vaddr vbase = pick_page(page_bytes);
        const uint64_t kind = rng.NextBelow(100);
        if (kind < 50) {
          const Paddr pbase = rng.NextBelow(4) * kHugePageSize;
          const Prot prot = rng.NextBool(0.5) ? Prot::kRead : Prot::kReadWrite;
          tlb.Insert(asid, vbase, pbase, page_bytes, prot);
          model.Insert(asid, vbase, pbase, page_bytes, prot);
        } else if (kind < 70) {
          const Vaddr vaddr = vbase + rng.NextBelow(page_bytes);
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameEntry(tlb.Lookup(asid, vaddr), model.Lookup(asid, vaddr)));
        } else if (kind < 95) {
          const bool short_range = rng.NextBool(0.5);
          const Vaddr vaddr = short_range ? vbase + rng.NextBelow(page_bytes) : vbase;
          const uint64_t len = short_range ? rng.NextInRange(1, 4 * kPageSize)
                                           : rng.NextInRange(1, 3 * kLargePageSize);
          ASSERT_EQ(tlb.InvalidateRange(asid, vaddr, len),
                    model.InvalidateRange(asid, vaddr, len));
        } else if (kind < 99) {
          tlb.InvalidateAsid(asid);
          model.InvalidateAsid(asid);
        } else {
          tlb.InvalidateAll();
          model.InvalidateAll();
        }
        ASSERT_NO_FATAL_FAILURE(ExpectSameContents(tlb, model, geometry.small_pages));
      }
    }
  }
}

}  // namespace
}  // namespace o1mem
