// ContigAllocator unit tests: lend/claim bookkeeping, deterministic victim
// selection, the clean guarantee-exhaustion failure (never a partial grant),
// and the CMA-baseline contrast (linear scans, per-page migration, failures
// under unmovable pinning).
#include "src/contig/contig_allocator.h"

#include <gtest/gtest.h>

#include <vector>

namespace o1mem {
namespace {

constexpr uint64_t kArea = 16 * kMiB;

ContigConfig Gcma(uint64_t guarantee = 0) {
  ContigConfig config;
  config.area_bytes = kArea;
  config.guarantee_bytes = guarantee;
  return config;
}

ContigConfig Cma(uint32_t unmovable_permille = 200) {
  ContigConfig config = Gcma();
  config.cma_baseline = true;
  config.cma_granule_bytes = kMiB;
  config.cma_unmovable_permille = unmovable_permille;
  return config;
}

class ContigAllocatorTest : public ::testing::Test {
 protected:
  // Wires recording revokers for both lender classes; tests assert against
  // `revoked_` to pin exactly which extents a claim evicted.
  void Wire(ContigAllocator& a) {
    for (LenderClass cls : {LenderClass::kDiscardableFile, LenderClass::kTierCleanCopy}) {
      a.SetRevoker(cls, [this, cls](Paddr base, uint64_t bytes, uint64_t cookie) {
        revoked_.push_back(ContigVictim{base, bytes, cls, cookie});
        return OkStatus();
      });
    }
  }

  SimContext ctx_;
  std::vector<ContigVictim> revoked_;
};

TEST_F(ContigAllocatorTest, GaugesAtBoot) {
  ContigAllocator a(&ctx_, 0, kArea, Gcma());
  EXPECT_EQ(a.area_bytes(), kArea);
  EXPECT_EQ(a.guarantee_bytes(), kArea);  // 0 = whole area
  EXPECT_EQ(a.claimed_bytes(), 0u);
  EXPECT_EQ(a.lent_bytes_total(), 0u);
  EXPECT_EQ(a.free_bytes(), kArea);
  EXPECT_FALSE(a.cma_baseline());
  EXPECT_TRUE(a.Owns(0) && a.Owns(kArea - 1) && !a.Owns(kArea));
}

TEST_F(ContigAllocatorTest, GuaranteeClampsToArea) {
  ContigAllocator a(&ctx_, 0, kArea, Gcma(/*guarantee=*/2 * kArea));
  EXPECT_EQ(a.guarantee_bytes(), kArea);
}

TEST_F(ContigAllocatorTest, BorrowReturnBookkeeping) {
  ContigAllocator a(&ctx_, 0, kArea, Gcma());
  auto b1 = a.Borrow(1 * kMiB, LenderClass::kDiscardableFile, 7);
  auto b2 = a.Borrow(2 * kMiB, LenderClass::kTierCleanCopy, 8);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_NE(*b1, *b2);
  EXPECT_EQ(a.lent_bytes(LenderClass::kDiscardableFile), 1 * kMiB);
  EXPECT_EQ(a.lent_bytes(LenderClass::kTierCleanCopy), 2 * kMiB);
  EXPECT_EQ(a.lent_regions(), 2u);
  EXPECT_EQ(a.free_bytes(), kArea - 3 * kMiB);
  EXPECT_TRUE(a.Return(*b1).ok());
  EXPECT_EQ(a.lent_bytes_total(), 2 * kMiB);
  EXPECT_EQ(a.Return(*b1).code(), StatusCode::kInvalidArgument);  // double return
  EXPECT_EQ(ctx_.counters().contig_lends, 2u);
  EXPECT_EQ(ctx_.counters().contig_returns, 1u);
}

TEST_F(ContigAllocatorTest, BorrowFailsCleanWhenNothingFits) {
  ContigAllocator a(&ctx_, 0, kArea, Gcma());
  ASSERT_TRUE(a.Borrow(kArea, LenderClass::kDiscardableFile, 1).ok());
  auto b = a.Borrow(kPageSize, LenderClass::kDiscardableFile, 2);
  EXPECT_EQ(b.status().code(), StatusCode::kOutOfMemory);
}

TEST_F(ContigAllocatorTest, ClaimRevokesExactlyOverlappingExtents) {
  ContigAllocator a(&ctx_, 0, kArea, Gcma());
  Wire(a);
  // Three 4 MiB borrows fill [0, 12M); the claim window [0, 8M) overlaps the
  // first two only.
  auto b1 = a.Borrow(4 * kMiB, LenderClass::kDiscardableFile, 1);
  auto b2 = a.Borrow(4 * kMiB, LenderClass::kDiscardableFile, 2);
  auto b3 = a.Borrow(4 * kMiB, LenderClass::kDiscardableFile, 3);
  ASSERT_TRUE(b1.ok() && b2.ok() && b3.ok());
  std::vector<ContigVictim> victims;
  auto claim = a.Claim(8 * kMiB, &victims);
  ASSERT_TRUE(claim.ok());
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0].cookie, 1u);
  EXPECT_EQ(victims[1].cookie, 2u);
  ASSERT_EQ(revoked_.size(), 2u);
  EXPECT_EQ(revoked_[0].base, *b1);
  EXPECT_EQ(revoked_[1].base, *b2);
  // The third borrow is untouched and the claim is accounted.
  EXPECT_EQ(a.lent_bytes_total(), 4 * kMiB);
  EXPECT_EQ(a.claimed_bytes(), 8 * kMiB);
  EXPECT_EQ(ctx_.counters().lender_evictions, 2u);
}

TEST_F(ContigAllocatorTest, PartialOverlapEvictsWholeExtentRemainderStaysLendable) {
  ContigAllocator a(&ctx_, 0, kArea, Gcma());
  Wire(a);
  // One big borrow covers the whole area; a 1 MiB claim still revokes the
  // whole extent (lenders cannot keep half a borrow), but the out-of-window
  // remainder is immediately lendable again.
  ASSERT_TRUE(a.Borrow(kArea, LenderClass::kDiscardableFile, 1).ok());
  auto claim = a.Claim(1 * kMiB);
  ASSERT_TRUE(claim.ok());
  EXPECT_EQ(revoked_.size(), 1u);
  EXPECT_EQ(a.lent_bytes_total(), 0u);
  auto again = a.Borrow(kArea - 1 * kMiB, LenderClass::kDiscardableFile, 2);
  EXPECT_TRUE(again.ok());
}

TEST_F(ContigAllocatorTest, VictimSelectionIsDeterministic) {
  // Two allocators, same seed/boot/sequence: identical claim bases and
  // identical victim lists, element for element.
  std::vector<ContigVictim> v1, v2;
  std::vector<Paddr> c1, c2;
  for (int run = 0; run < 2; ++run) {
    SimContext ctx;
    ContigAllocator a(&ctx, 0, kArea, Gcma());
    a.SetRevoker(LenderClass::kDiscardableFile,
                 [](Paddr, uint64_t, uint64_t) { return OkStatus(); });
    std::vector<Paddr> borrows;
    for (uint64_t i = 0; i < 6; ++i) {
      auto b = a.Borrow((1 + i % 3) * kMiB, LenderClass::kDiscardableFile, i);
      ASSERT_TRUE(b.ok());
      borrows.push_back(*b);
    }
    ASSERT_TRUE(a.Return(borrows[1]).ok());
    ASSERT_TRUE(a.Return(borrows[4]).ok());
    std::vector<ContigVictim>& victims = run == 0 ? v1 : v2;
    std::vector<Paddr>& claims = run == 0 ? c1 : c2;
    for (uint64_t bytes : {3 * kMiB, 5 * kMiB}) {
      auto claim = a.Claim(bytes, &victims);
      ASSERT_TRUE(claim.ok());
      claims.push_back(*claim);
    }
  }
  EXPECT_EQ(c1, c2);
  ASSERT_EQ(v1.size(), v2.size());
  for (size_t i = 0; i < v1.size(); ++i) {
    EXPECT_EQ(v1[i].base, v2[i].base) << i;
    EXPECT_EQ(v1[i].bytes, v2[i].bytes) << i;
    EXPECT_EQ(v1[i].cookie, v2[i].cookie) << i;
  }
}

TEST_F(ContigAllocatorTest, GuaranteeExhaustionFailsCleanNeverPartial) {
  ContigAllocator a(&ctx_, 0, kArea, Gcma(/*guarantee=*/4 * kMiB));
  Wire(a);
  ASSERT_TRUE(a.Borrow(kArea, LenderClass::kDiscardableFile, 1).ok());
  auto c1 = a.Claim(3 * kMiB);
  ASSERT_TRUE(c1.ok());
  revoked_.clear();
  // 3 MiB claimed of a 4 MiB guarantee: a 2 MiB claim must fail cleanly --
  // no partial grant, no revocation side effects, lenders untouched.
  const uint64_t lent_before = a.lent_bytes_total();
  std::vector<ContigVictim> victims;
  auto c2 = a.Claim(2 * kMiB, &victims);
  EXPECT_EQ(c2.status().code(), StatusCode::kOutOfMemory);
  EXPECT_TRUE(victims.empty());
  EXPECT_TRUE(revoked_.empty());
  EXPECT_EQ(a.lent_bytes_total(), lent_before);
  EXPECT_EQ(a.claimed_bytes(), 3 * kMiB);
  EXPECT_EQ(ctx_.counters().contig_fail, 1u);
  // Releasing restores headroom: the same claim then succeeds.
  EXPECT_TRUE(a.Release(*c1).ok());
  EXPECT_TRUE(a.Claim(2 * kMiB).ok());
}

TEST_F(ContigAllocatorTest, ReleaseMakesWindowLendableAgain) {
  ContigAllocator a(&ctx_, 0, kArea, Gcma());
  Wire(a);
  auto claim = a.Claim(kArea);
  ASSERT_TRUE(claim.ok());
  EXPECT_EQ(a.Borrow(kPageSize, LenderClass::kDiscardableFile, 1).status().code(),
            StatusCode::kOutOfMemory);
  ASSERT_TRUE(a.Release(*claim).ok());
  EXPECT_EQ(a.claimed_bytes(), 0u);
  EXPECT_TRUE(a.Borrow(kArea, LenderClass::kDiscardableFile, 2).ok());
  EXPECT_EQ(a.Release(*claim).code(), StatusCode::kInvalidArgument);
}

TEST_F(ContigAllocatorTest, ClaimCostScalesWithVictimExtentsNotBytes) {
  // Same claim size, different victim counts: the cycle cost difference per
  // extra extent is a constant, independent of the bytes moved.
  auto claim_cycles = [](int extents) {
    SimContext ctx;
    ContigAllocator a(&ctx, 0, kArea, Gcma());
    a.SetRevoker(LenderClass::kDiscardableFile,
                 [](Paddr, uint64_t, uint64_t) { return OkStatus(); });
    const uint64_t per = (8 * kMiB) / static_cast<uint64_t>(extents);
    for (int i = 0; i < extents; ++i) {
      O1_CHECK(a.Borrow(per, LenderClass::kDiscardableFile, static_cast<uint64_t>(i)).ok());
    }
    const uint64_t t0 = ctx.now();
    O1_CHECK(a.Claim(8 * kMiB).ok());
    return ctx.now() - t0;
  };
  const uint64_t c1 = claim_cycles(1);
  const uint64_t c8 = claim_cycles(8);
  EXPECT_GT(c8, c1);
  SimContext probe;
  EXPECT_EQ(c8 - c1, 7 * probe.cost().contig_revoke_extent_cycles);
}

TEST_F(ContigAllocatorTest, CmaUnmovablePinningFailsLargeClaims) {
  ContigAllocator a(&ctx_, 0, kArea, Cma(/*unmovable_permille=*/200));
  Wire(a);
  EXPECT_TRUE(a.cma_baseline());
  // With ~20% of 1 MiB granules unmovable, a 16-granule run cannot exist in
  // a 16-granule area (seeded placement pins several), so the big claim
  // fails -- after paying the full scan.
  const uint64_t t0 = ctx_.now();
  auto big = a.Claim(kArea);
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfMemory);
  const uint64_t fail_cycles = ctx_.now() - t0;
  EXPECT_GE(fail_cycles, (kArea / kPageSize) * ctx_.cost().reclaim_scan_page_cycles);
  EXPECT_EQ(ctx_.counters().contig_fail, 1u);
  // A single-granule claim still finds a hole.
  EXPECT_TRUE(a.Claim(kPageSize).ok());
}

TEST_F(ContigAllocatorTest, CmaClaimMigratesLenderPagesPerPage) {
  ContigAllocator a(&ctx_, 0, kArea, Cma(/*unmovable_permille=*/0));
  Wire(a);
  auto b = a.Borrow(2 * kMiB, LenderClass::kDiscardableFile, 9);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(IsAligned(*b, kMiB));  // granule-granular in the baseline
  auto claim = a.Claim(kArea);
  ASSERT_TRUE(claim.ok());
  // The occupied movable pages were "migrated" one page copy at a time.
  EXPECT_EQ(ctx_.counters().cma_migrated_pages, (2 * kMiB) / kPageSize);
  EXPECT_EQ(revoked_.size(), 1u);
  EXPECT_EQ(a.lent_bytes_total(), 0u);
}

TEST_F(ContigAllocatorTest, CmaSeedIsDeterministic) {
  ContigConfig config = Cma(/*unmovable_permille=*/300);
  for (uint64_t seed : {0x1ull, 0x2ull}) {
    config.rng_seed = seed;
    SimContext ca, cb;
    ContigAllocator a(&ca, 0, kArea, config);
    ContigAllocator b(&cb, 0, kArea, config);
    // Same seed: identical claim outcomes at every size.
    for (uint64_t bytes : {kMiB, 2 * kMiB, 4 * kMiB}) {
      auto ra = a.Claim(bytes);
      auto rb = b.Claim(bytes);
      ASSERT_EQ(ra.ok(), rb.ok());
      if (ra.ok()) {
        EXPECT_EQ(*ra, *rb);
      }
    }
  }
}

}  // namespace
}  // namespace o1mem
