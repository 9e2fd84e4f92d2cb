#include "src/sim/page_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/context.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

class PageTableTest : public ::testing::Test {
 protected:
  SimContext ctx_;
  PageTable pt_{&ctx_, 4};
};

TEST_F(PageTableTest, GeometryConstants) {
  EXPECT_EQ(BytesPerEntry(1), kPageSize);
  EXPECT_EQ(BytesPerEntry(2), kLargePageSize);
  EXPECT_EQ(BytesPerEntry(3), kHugePageSize);
  EXPECT_EQ(BytesPerNode(1), kLargePageSize);
  EXPECT_EQ(BytesPerNode(2), kHugePageSize);
  EXPECT_EQ(pt_.va_limit(), 256 * kTiB);
}

TEST_F(PageTableTest, MapAndLookup4K) {
  ASSERT_TRUE(pt_.MapPage(0x200000, 0x5000, kPageSize, Prot::kReadWrite).ok());
  auto t = pt_.Lookup(0x200123);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->paddr, 0x5123u);
  EXPECT_EQ(t->page_bytes, kPageSize);
  EXPECT_EQ(t->leaf_level, 1);
  EXPECT_EQ(t->levels_walked, 4);
  EXPECT_TRUE(HasProt(t->prot, Prot::kWrite));
}

TEST_F(PageTableTest, LookupMissReturnsNullopt) {
  EXPECT_FALSE(pt_.Lookup(0x1000).has_value());
  ASSERT_TRUE(pt_.MapPage(0x1000, 0x2000, kPageSize, Prot::kRead).ok());
  EXPECT_FALSE(pt_.Lookup(0x2000).has_value());  // adjacent page unmapped
}

TEST_F(PageTableTest, Map2MLeaf) {
  ASSERT_TRUE(pt_.MapPage(2 * kLargePageSize, 4 * kLargePageSize, kLargePageSize,
                          Prot::kRead).ok());
  auto t = pt_.Lookup(2 * kLargePageSize + 0x12345);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->page_bytes, kLargePageSize);
  EXPECT_EQ(t->paddr, 4 * kLargePageSize + 0x12345);
  EXPECT_EQ(t->leaf_level, 2);
  EXPECT_EQ(t->levels_walked, 3);  // large pages walk one level less
}

TEST_F(PageTableTest, Map1GLeaf) {
  ASSERT_TRUE(pt_.MapPage(kHugePageSize, 0, kHugePageSize, Prot::kRead).ok());
  auto t = pt_.Lookup(kHugePageSize + 123);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->page_bytes, kHugePageSize);
  EXPECT_EQ(t->levels_walked, 2);
}

TEST_F(PageTableTest, MisalignedMapRejected) {
  EXPECT_FALSE(pt_.MapPage(0x1001, 0x2000, kPageSize, Prot::kRead).ok());
  EXPECT_FALSE(pt_.MapPage(kPageSize, kPageSize, kLargePageSize, Prot::kRead).ok());
  EXPECT_FALSE(pt_.MapPage(0x1000, 0x2000, 12345, Prot::kRead).ok());
}

TEST_F(PageTableTest, ConflictingPageSizesRejected) {
  ASSERT_TRUE(pt_.MapPage(0, 0, kLargePageSize, Prot::kRead).ok());
  // A 4K map under an existing 2M leaf must fail.
  EXPECT_FALSE(pt_.MapPage(kPageSize, 0x10000, kPageSize, Prot::kRead).ok());
  // And a 2M leaf over existing 4K pages must fail.
  ASSERT_TRUE(pt_.MapPage(kLargePageSize, 0x20000, kPageSize, Prot::kRead).ok());
  EXPECT_FALSE(pt_.MapPage(kLargePageSize, 0, kLargePageSize, Prot::kRead).ok());
}

TEST_F(PageTableTest, UnmapRemovesTranslation) {
  ASSERT_TRUE(pt_.MapPage(0x4000, 0x8000, kPageSize, Prot::kRead).ok());
  ASSERT_TRUE(pt_.UnmapPage(0x4000, kPageSize).ok());
  EXPECT_FALSE(pt_.Lookup(0x4000).has_value());
  EXPECT_FALSE(pt_.UnmapPage(0x4000, kPageSize).ok());
}

TEST_F(PageTableTest, RemapUpdatesInPlace) {
  ASSERT_TRUE(pt_.MapPage(0x4000, 0x8000, kPageSize, Prot::kRead).ok());
  ASSERT_TRUE(pt_.MapPage(0x4000, 0xA000, kPageSize, Prot::kReadWrite).ok());
  auto t = pt_.Lookup(0x4000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->paddr, 0xA000u);
}

TEST_F(PageTableTest, MappingChargesPerPage) {
  const uint64_t t0 = ctx_.now();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pt_.MapPage(static_cast<Vaddr>(i) * kPageSize, static_cast<Paddr>(i) * kPageSize,
                            kPageSize, Prot::kRead)
                    .ok());
  }
  const uint64_t c64 = ctx_.now() - t0;
  const uint64_t t1 = ctx_.now();
  for (int i = 64; i < 192; ++i) {
    ASSERT_TRUE(pt_.MapPage(static_cast<Vaddr>(i) * kPageSize, static_cast<Paddr>(i) * kPageSize,
                            kPageSize, Prot::kRead)
                    .ok());
  }
  const uint64_t c128 = ctx_.now() - t1;
  // Twice the pages ~ twice the cost (node allocations amortize away).
  EXPECT_GT(c128, c64);
  EXPECT_EQ(ctx_.counters().ptes_written, 192u);
}

TEST_F(PageTableTest, BuildExtentSubtreeAndSplice) {
  // Build a 2 MiB pre-created subtree for a contiguous 1 MiB extent.
  NodeRef subtree = PageTable::BuildExtentSubtree(&ctx_, 1, /*paddr=*/8 * kMiB,
                                                  /*bytes=*/1 * kMiB, Prot::kReadWrite);
  ASSERT_NE(subtree, nullptr);
  EXPECT_EQ(subtree->live_entries, 256);  // 1 MiB / 4 KiB

  const uint64_t ptes_before = ctx_.counters().ptes_written;
  ASSERT_TRUE(pt_.SpliceSubtree(4 * kLargePageSize, 1, subtree).ok());
  // Splice writes no leaf PTEs -- that is the O(1) property.
  EXPECT_EQ(ctx_.counters().ptes_written, ptes_before);
  EXPECT_EQ(ctx_.counters().subtree_splices, 1u);

  auto t = pt_.Lookup(4 * kLargePageSize + 3 * kPageSize + 7);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->paddr, 8 * kMiB + 3 * kPageSize + 7);
  // Beyond the extent within the node: unmapped.
  EXPECT_FALSE(pt_.Lookup(4 * kLargePageSize + 1 * kMiB).has_value());
}

TEST_F(PageTableTest, SpliceRejectsMisalignmentAndOccupiedSlots) {
  NodeRef subtree = PageTable::BuildExtentSubtree(&ctx_, 1, 0, kPageSize, Prot::kRead);
  EXPECT_FALSE(pt_.SpliceSubtree(kPageSize, 1, subtree).ok());  // not 2M-aligned
  ASSERT_TRUE(pt_.SpliceSubtree(kLargePageSize, 1, subtree).ok());
  EXPECT_FALSE(pt_.SpliceSubtree(kLargePageSize, 1, subtree).ok());  // occupied
}

TEST_F(PageTableTest, SharedSubtreeVisibleInTwoTables) {
  PageTable other(&ctx_, 4);
  NodeRef subtree = PageTable::BuildExtentSubtree(&ctx_, 1, 16 * kMiB, 64 * kPageSize,
                                                  Prot::kRead);
  ASSERT_TRUE(pt_.SpliceSubtree(0, 1, subtree).ok());
  ASSERT_TRUE(other.SpliceSubtree(6 * kLargePageSize, 1, subtree).ok());
  auto a = pt_.Lookup(5 * kPageSize);
  auto b = other.Lookup(6 * kLargePageSize + 5 * kPageSize);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->paddr, b->paddr);
  // The node is physically shared, so it is counted once per table but is
  // the same object.
  EXPECT_EQ(pt_.GetSubtree(0, 1).get(), other.GetSubtree(6 * kLargePageSize, 1).get());
}

TEST_F(PageTableTest, UnspliceDetachesSharedNodeWithoutDestroyingIt) {
  NodeRef subtree = PageTable::BuildExtentSubtree(&ctx_, 1, 0, 8 * kPageSize, Prot::kRead);
  ASSERT_TRUE(pt_.SpliceSubtree(0, 1, subtree).ok());
  ASSERT_TRUE(pt_.UnspliceSubtree(0, 1).ok());
  EXPECT_FALSE(pt_.Lookup(0).has_value());
  EXPECT_EQ(subtree->live_entries, 8);  // still intact for the next mapper
}

TEST_F(PageTableTest, ProtectRangeRewritesLeaves) {
  ASSERT_TRUE(pt_.MapPage(0, 0, kPageSize, Prot::kReadWrite).ok());
  ASSERT_TRUE(pt_.MapPage(kPageSize, kPageSize, kPageSize, Prot::kReadWrite).ok());
  ASSERT_TRUE(pt_.ProtectRange(0, 2 * kPageSize, Prot::kRead).ok());
  EXPECT_EQ(pt_.Lookup(0)->prot, Prot::kRead);
  EXPECT_EQ(pt_.Lookup(kPageSize)->prot, Prot::kRead);
}

TEST_F(PageTableTest, CountNodesCountsSharedOnce) {
  NodeRef subtree = PageTable::BuildExtentSubtree(&ctx_, 1, 0, kPageSize, Prot::kRead);
  ASSERT_TRUE(pt_.SpliceSubtree(0, 1, subtree).ok());
  ASSERT_TRUE(pt_.SpliceSubtree(kLargePageSize, 1, subtree).ok());
  // root + PDPT + PD + one shared PT = 4.
  EXPECT_EQ(pt_.CountNodes(), 4u);
}

TEST(PageTable5Level, WalksFiveLevels) {
  SimContext ctx;
  PageTable pt(&ctx, 5);
  EXPECT_EQ(pt.va_limit(), uint64_t{1} << 57);  // 128 PiB of VA
  const Vaddr high = 300 * kTiB;                       // beyond 4-level reach
  ASSERT_TRUE(pt.MapPage(high, 0x1000, kPageSize, Prot::kRead).ok());
  auto t = pt.Lookup(high + 5);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->paddr, 0x1005u);
  EXPECT_EQ(t->levels_walked, 5);
}

TEST(PageTable5Level, FourLevelRejectsHighAddresses) {
  SimContext ctx;
  PageTable pt(&ctx, 4);
  EXPECT_FALSE(pt.MapPage(300 * kTiB, 0x1000, kPageSize, Prot::kRead).ok());
}

// ForEachLeaf against the per-page Lookup loop it replaced. A leaf is
// reported once, by its first VA, whatever part of it the range overlaps.
struct SeenLeaf {
  Vaddr vaddr = 0;
  uint64_t page_bytes = 0;
  Paddr paddr = 0;
  Prot prot = Prot::kNone;
  bool operator==(const SeenLeaf&) const = default;
};

std::vector<SeenLeaf> LeavesByLookup(const PageTable& pt, Vaddr start, Vaddr end) {
  std::vector<SeenLeaf> out;
  end = std::min(end, pt.va_limit());
  for (Vaddr va = AlignDown(start, kPageSize); va < end;) {
    auto t = pt.Lookup(va);
    if (!t.has_value()) {
      va += kPageSize;
      continue;
    }
    const Vaddr base = AlignDown(va, t->page_bytes);
    out.push_back({base, t->page_bytes, t->paddr - (va - base), t->prot});
    va = base + t->page_bytes;
  }
  return out;
}

std::vector<SeenLeaf> LeavesByWalk(PageTable& pt, Vaddr start, Vaddr end) {
  std::vector<SeenLeaf> out;
  EXPECT_TRUE(pt.ForEachLeaf(start, end, [&](const PtLeaf& leaf) {
                  out.push_back(
                      {leaf.vaddr, leaf.page_bytes, leaf.entry->paddr, leaf.entry->prot});
                  return OkStatus();
                }).ok());
  return out;
}

// Seeded MapPage/UnmapPage of 4K, 2M and 1G leaves in a low and a high
// (top of VA) window, around a 2 MiB subtree spliced from another table.
class PageTableWalkTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr uint64_t kWindow = 2 * kGiB;

  PageTableWalkTest() {
    Rng rng(GetParam());
    NodeRef shared =
        PageTable::BuildExtentSubtree(&ctx_, 1, 512 * kMiB, 300 * kPageSize, Prot::kRead);
    EXPECT_TRUE(other_.SpliceSubtree(0, 1, shared).ok());
    EXPECT_TRUE(pt_.SpliceSubtree(3 * kLargePageSize, 1, shared).ok());
    EXPECT_TRUE(pt_.MapPage(pt_.va_limit() - kPageSize, 0, kPageSize, Prot::kRead).ok());
    std::vector<std::pair<Vaddr, uint64_t>> mapped;
    for (int op = 0; op < 4000; ++op) {
      if (!mapped.empty() && rng.NextBool(0.3)) {
        const size_t i = rng.NextBelow(mapped.size());
        (void)pt_.UnmapPage(mapped[i].first, mapped[i].second);
        mapped[i] = mapped.back();
        mapped.pop_back();
        continue;
      }
      const uint64_t kind = rng.NextBelow(100);
      const uint64_t bytes = kind < 85 ? kPageSize : kind < 98 ? kLargePageSize : kHugePageSize;
      // Most 4K and 2M leaves cluster in the first 32 MiB of a window, so
      // nodes hold runs as well as strays.
      const uint64_t span = bytes < kHugePageSize && rng.NextBool(0.7) ? 32 * kMiB : kWindow;
      const Vaddr va = Window(rng.NextBelow(2)) + AlignDown(rng.NextBelow(span), bytes);
      const Paddr pa = AlignDown(rng.NextBelow(kTiB), bytes);
      const Prot prot = rng.NextBool(0.5) ? Prot::kRead : Prot::kReadWrite;
      if (pt_.MapPage(va, pa, bytes, prot).ok()) {
        mapped.emplace_back(va, bytes);
      }
    }
  }

  Vaddr Window(uint64_t i) const { return i == 0 ? 0 : pt_.va_limit() - kWindow; }

  SimContext ctx_;
  PageTable pt_{&ctx_, 4};
  PageTable other_{&ctx_, 4};
};

TEST_P(PageTableWalkTest, ForEachLeafMatchesPerPageLookup) {
  Rng rng(GetParam() + 1000);
  const uint64_t top = pt_.va_limit();
  std::vector<std::pair<Vaddr, Vaddr>> ranges = {
      {0, kWindow},                       // the whole low window
      {top - kWindow, top},               // the whole high window
      {top - 2 * kPageSize, top + kGiB},  // ends past va_limit()
      {top, top + kGiB},                  // starts at va_limit()
      {top + kPageSize, top + kGiB},      // starts past va_limit()
      {5 * kMiB, 5 * kMiB},               // empty
      {9 * kMiB, 5 * kMiB},               // end before start
  };
  for (int i = 0; i < 80; ++i) {
    // Byte-granular starts and log-uniform lengths, so ranges start and end
    // mid-leaf at every page size.
    const Vaddr start = Window(rng.NextBelow(2)) + rng.NextBelow(kWindow);
    ranges.emplace_back(start, start + rng.NextBelow(uint64_t{1} << rng.NextBelow(32)));
  }
  size_t leaves = 0;
  for (const auto& [start, end] : ranges) {
    const std::vector<SeenLeaf> expected = LeavesByLookup(pt_, start, end);
    EXPECT_EQ(LeavesByWalk(pt_, start, end), expected) << std::hex << start << "-" << end;
    leaves += expected.size();
  }
  EXPECT_GT(leaves, 500u);
  EXPECT_EQ(LeavesByWalk(pt_, top - 2 * kPageSize, top + kGiB).size(), 1u);
}

// Both windows, leaf by leaf, through the per-page loop.
std::vector<SeenLeaf> AllLeaves(const PageTable& pt, uint64_t window) {
  std::vector<SeenLeaf> out = LeavesByLookup(pt, 0, window);
  const std::vector<SeenLeaf> high = LeavesByLookup(pt, pt.va_limit() - window, pt.va_limit());
  out.insert(out.end(), high.begin(), high.end());
  return out;
}

bool Contains(const std::vector<SeenLeaf>& leaves, const SeenLeaf& leaf) {
  return std::find(leaves.begin(), leaves.end(), leaf) != leaves.end();
}

TEST_P(PageTableWalkTest, UnmapLeafInsideTheWalkClearsExactlyTheVisitedLeaves) {
  Rng rng(GetParam() + 2000);
  std::vector<SeenLeaf> expected = AllLeaves(pt_, kWindow);
  for (int i = 0; i < 20; ++i) {
    const Vaddr start = Window(rng.NextBelow(2)) + AlignDown(rng.NextBelow(kWindow), kPageSize);
    const Vaddr end = start + rng.NextBelow(uint64_t{1} << rng.NextBelow(31));
    const std::vector<SeenLeaf> inside = LeavesByLookup(pt_, start, end);
    const uint64_t t0 = ctx_.now();
    ASSERT_TRUE(pt_.ForEachLeaf(start, end, [&](const PtLeaf& leaf) {
                     pt_.UnmapLeaf(leaf);
                     return OkStatus();
                   }).ok());
    EXPECT_EQ(ctx_.now() - t0, inside.size() * ctx_.cost().pte_write_cycles);
    EXPECT_TRUE(LeavesByLookup(pt_, start, end).empty());
    std::erase_if(expected, [&](const SeenLeaf& leaf) { return Contains(inside, leaf); });
  }
  EXPECT_EQ(AllLeaves(pt_, kWindow), expected);
}

TEST_P(PageTableWalkTest, ProtectRangeRewritesTheLeavesThePerPageLoopDid) {
  Rng rng(GetParam() + 3000);
  std::vector<SeenLeaf> expected = AllLeaves(pt_, kWindow);
  for (int i = 0; i < 20; ++i) {
    const Prot prot = i % 2 == 0 ? Prot::kReadExec : Prot::kReadWrite;
    const Vaddr start = Window(rng.NextBelow(2)) + AlignDown(rng.NextBelow(kWindow), kPageSize);
    const uint64_t len =
        AlignDown(rng.NextBelow(uint64_t{1} << rng.NextBelow(31)), kPageSize);
    const std::vector<SeenLeaf> inside = LeavesByLookup(pt_, start, start + len);
    const uint64_t t0 = ctx_.now();
    ASSERT_TRUE(pt_.ProtectRange(start, len, prot).ok());
    EXPECT_EQ(ctx_.now() - t0, inside.size() * ctx_.cost().pte_write_cycles);
    for (SeenLeaf& leaf : expected) {
      if (Contains(inside, leaf)) {
        leaf.prot = prot;
      }
    }
  }
  EXPECT_EQ(AllLeaves(pt_, kWindow), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableWalkTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace o1mem
