#include "src/mm/buddy_allocator.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/support/rng.h"

namespace o1mem {
namespace {

class BuddyTest : public ::testing::Test {
 protected:
  SimContext ctx_;
  BuddyAllocator buddy_{&ctx_, /*base=*/0, /*bytes=*/16 * kMiB};
};

TEST_F(BuddyTest, StartsFullyFree) {
  EXPECT_EQ(buddy_.free_bytes(), 16 * kMiB);
  EXPECT_GE(buddy_.LargestFreeOrder(), 12);  // 16 MiB = order 12
}

TEST_F(BuddyTest, AllocFrameReturnsAlignedOwnedFrames) {
  auto a = buddy_.AllocFrame();
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(IsAligned(a.value(), kPageSize));
  EXPECT_TRUE(buddy_.Owns(a.value()));
  EXPECT_EQ(buddy_.free_bytes(), 16 * kMiB - kPageSize);
}

TEST_F(BuddyTest, DistinctAllocationsDoNotOverlap) {
  std::set<Paddr> seen;
  for (int i = 0; i < 256; ++i) {
    auto frame = buddy_.AllocFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(seen.insert(frame.value()).second);
  }
}

TEST_F(BuddyTest, HigherOrderAlignment) {
  auto block = buddy_.AllocOrder(9);  // 2 MiB
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(IsAligned(block.value(), kLargePageSize));
  EXPECT_EQ(buddy_.free_bytes(), 16 * kMiB - 2 * kMiB);
}

TEST_F(BuddyTest, ExhaustionReturnsOutOfMemory) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(buddy_.AllocOrder(9).ok());
  }
  EXPECT_EQ(buddy_.free_bytes(), 0u);
  auto r = buddy_.AllocFrame();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
}

TEST_F(BuddyTest, FreeRestoresAndMerges) {
  std::vector<Paddr> frames;
  for (int i = 0; i < 512; ++i) {  // 2 MiB worth of single frames
    auto f = buddy_.AllocFrame();
    ASSERT_TRUE(f.ok());
    frames.push_back(f.value());
  }
  for (Paddr f : frames) {
    ASSERT_TRUE(buddy_.FreeFrame(f).ok());
  }
  EXPECT_EQ(buddy_.free_bytes(), 16 * kMiB);
  // All singles merged back: a full-size block must be allocatable again.
  EXPECT_TRUE(buddy_.AllocOrder(12).ok());
}

TEST_F(BuddyTest, InvalidFreesRejected) {
  EXPECT_FALSE(buddy_.FreeFrame(16 * kMiB).ok());            // outside
  EXPECT_FALSE(buddy_.FreeOrder(kPageSize, 9).ok());         // misaligned for order
  EXPECT_FALSE(buddy_.FreeOrder(0, -1).ok());
  EXPECT_FALSE(buddy_.FreeOrder(0, BuddyAllocator::kMaxOrder).ok());
}

TEST_F(BuddyTest, FragmentationBlocksLargeAllocations) {
  // Allocate everything as frames, free every other one: no order-1 blocks.
  std::vector<Paddr> frames;
  while (true) {
    auto f = buddy_.AllocFrame();
    if (!f.ok()) {
      break;
    }
    frames.push_back(f.value());
  }
  for (size_t i = 0; i < frames.size(); i += 2) {
    ASSERT_TRUE(buddy_.FreeFrame(frames[i]).ok());
  }
  EXPECT_EQ(buddy_.LargestFreeOrder(), 0);
  EXPECT_FALSE(buddy_.AllocOrder(1).ok());
  EXPECT_TRUE(buddy_.AllocFrame().ok());
}

TEST_F(BuddyTest, ChargesCycles) {
  const uint64_t t0 = ctx_.now();
  ASSERT_TRUE(buddy_.AllocFrame().ok());
  EXPECT_GT(ctx_.now(), t0);
  EXPECT_EQ(ctx_.counters().frames_allocated, 1u);
}

TEST_F(BuddyTest, NonPowerOfTwoRegionFullyUsable) {
  BuddyAllocator odd(&ctx_, 0, 3 * kMiB + 64 * kPageSize);
  uint64_t allocated = 0;
  while (odd.AllocFrame().ok()) {
    allocated += kPageSize;
  }
  EXPECT_EQ(allocated, 3 * kMiB + 64 * kPageSize);
}

// Property-style randomized check: alloc/free churn preserves the invariant
// that free_bytes matches the outstanding set and never double-allocates.
TEST_F(BuddyTest, RandomChurnPreservesInvariants) {
  Rng rng(1234);
  std::vector<std::pair<Paddr, int>> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const int order = static_cast<int>(rng.NextBelow(5));
      auto r = buddy_.AllocOrder(order);
      if (r.ok()) {
        // No overlap with any live block.
        for (const auto& [base, o] : live) {
          const bool disjoint = r.value() + (kPageSize << order) <= base ||
                                base + (kPageSize << o) <= r.value();
          ASSERT_TRUE(disjoint);
        }
        live.emplace_back(r.value(), order);
      }
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(buddy_.FreeOrder(live[pick].first, live[pick].second).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  uint64_t live_bytes = 0;
  for (const auto& [base, o] : live) {
    live_bytes += kPageSize << o;
  }
  EXPECT_EQ(buddy_.free_bytes(), 16 * kMiB - live_bytes);
}

// The allocator as it was before its free lists became bitmaps: one
// std::set of frame indices per order. Kept as the reference model the
// bitmap free lists must match operation for operation.
class SetBuddy {
 public:
  static constexpr int kMaxOrder = BuddyAllocator::kMaxOrder;

  SetBuddy(SimContext* ctx, Paddr base, uint64_t bytes) : ctx_(ctx), base_(base), bytes_(bytes) {
    uint64_t index = 0;
    const uint64_t frames = bytes >> kPageShift;
    while (index < frames) {
      int order = kMaxOrder - 1;
      while (order > 0 && (index % (uint64_t{1} << order) != 0 ||
                           index + (uint64_t{1} << order) > frames)) {
        --order;
      }
      lists_[static_cast<size_t>(order)].insert(index);
      index += uint64_t{1} << order;
    }
    free_bytes_ = bytes;
  }

  Result<Paddr> AllocOrder(int order) {
    ChargeZoneLock();
    return AllocOrderLocked(order);
  }
  Status FreeOrder(Paddr paddr, int order) {
    ChargeZoneLock();
    return FreeOrderLocked(paddr, order);
  }
  Status AllocFrameBatch(int count, std::vector<Paddr>* out) {
    if (count <= 0 || out == nullptr) {
      return InvalidArgument("bad frame batch request");
    }
    ChargeZoneLock();
    for (int i = 0; i < count; ++i) {
      auto frame = AllocOrderLocked(0);
      if (!frame.ok()) {
        if (i == 0) {
          return frame.status();
        }
        break;
      }
      out->push_back(frame.value());
    }
    return OkStatus();
  }
  Status FreeFrameBatch(std::span<const Paddr> frames) {
    if (frames.empty()) {
      return OkStatus();
    }
    ChargeZoneLock();
    for (Paddr paddr : frames) {
      O1_RETURN_IF_ERROR(FreeOrderLocked(paddr, 0));
    }
    return OkStatus();
  }

  uint64_t free_bytes() const { return free_bytes_; }
  int LargestFreeOrder() const {
    for (int order = kMaxOrder - 1; order >= 0; --order) {
      if (!lists_[static_cast<size_t>(order)].empty()) {
        return order;
      }
    }
    return -1;
  }
  size_t FreeBlocksAt(int order) const { return lists_[static_cast<size_t>(order)].size(); }

 private:
  void ChargeZoneLock() {
    const int remote = ctx_->num_cpus() - 1;
    if (remote > 0) {
      ctx_->Charge(static_cast<uint64_t>(remote) * ctx_->cost().zone_lock_contention_cycles);
    }
  }
  Result<Paddr> AllocOrderLocked(int order) {
    if (order < 0 || order >= kMaxOrder) {
      return InvalidArgument("buddy order out of range");
    }
    ctx_->Charge(ctx_->cost().buddy_alloc_cycles);
    int have = order;
    while (have < kMaxOrder && lists_[static_cast<size_t>(have)].empty()) {
      ++have;
    }
    if (have == kMaxOrder) {
      return OutOfMemory("buddy allocator exhausted");
    }
    const uint64_t index = *lists_[static_cast<size_t>(have)].begin();
    lists_[static_cast<size_t>(have)].erase(lists_[static_cast<size_t>(have)].begin());
    while (have > order) {
      --have;
      ctx_->Charge(ctx_->cost().buddy_split_cycles);
      lists_[static_cast<size_t>(have)].insert(index + (uint64_t{1} << have));
    }
    free_bytes_ -= kPageSize << order;
    ctx_->counters().frames_allocated += uint64_t{1} << order;
    return base_ + (index << kPageShift);
  }
  Status FreeOrderLocked(Paddr paddr, int order) {
    if (order < 0 || order >= kMaxOrder) {
      return InvalidArgument("buddy order out of range");
    }
    if (paddr < base_ || paddr >= base_ + bytes_ || !IsAligned(paddr - base_, kPageSize << order)) {
      return InvalidArgument("free of block not from this allocator");
    }
    ctx_->Charge(ctx_->cost().buddy_free_cycles);
    uint64_t index = (paddr - base_) >> kPageShift;
    ctx_->counters().frames_freed += uint64_t{1} << order;
    free_bytes_ += kPageSize << order;
    while (order < kMaxOrder - 1) {
      auto& list = lists_[static_cast<size_t>(order)];
      auto it = list.find(index ^ (uint64_t{1} << order));
      if (it == list.end()) {
        break;
      }
      list.erase(it);
      ctx_->Charge(ctx_->cost().buddy_split_cycles);
      index &= ~(uint64_t{1} << order);
      ++order;
    }
    lists_[static_cast<size_t>(order)].insert(index);
    return OkStatus();
  }

  SimContext* ctx_;
  Paddr base_;
  uint64_t bytes_;
  uint64_t free_bytes_ = 0;
  std::array<std::set<uint64_t>, kMaxOrder> lists_;
};

std::vector<uint64_t> Counters(const SimContext& ctx) {
  std::vector<uint64_t> out;
  ctx.counters().ForEachField([&](const char*, uint64_t value) { out.push_back(value); });
  return out;
}

// Same seeded AllocOrder/FreeOrder/AllocFrameBatch/FreeFrameBatch stream
// into the bitmap allocator and the std::set model, over a non-power-of-two
// range at a nonzero base with contended zone locks: every result and every
// observable must agree after every operation.
class BuddyDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyDifferentialTest, MatchesStdSetModel) {
  SmpConfig smp;
  smp.num_cpus = 3;
  SimContext ctx(CostModel{}, smp);
  SimContext ref_ctx(CostModel{}, smp);
  const Paddr base = 37 * kMiB + 5 * kPageSize;
  const uint64_t bytes = 1 * kGiB + 19 * kMiB + 3 * kPageSize;
  BuddyAllocator buddy(&ctx, base, bytes);
  SetBuddy ref(&ref_ctx, base, bytes);
  Rng rng(GetParam());
  std::vector<std::pair<Paddr, int>> live;
  // The first observable on which the two disagree, or "" when none does.
  const auto mismatch = [&]() -> std::string {
    if (buddy.free_bytes() != ref.free_bytes()) {
      return "free_bytes";
    }
    if (buddy.LargestFreeOrder() != ref.LargestFreeOrder()) {
      return "LargestFreeOrder";
    }
    for (int order = 0; order < BuddyAllocator::kMaxOrder; ++order) {
      if (buddy.FreeBlocksAt(order) != ref.FreeBlocksAt(order)) {
        return "FreeBlocksAt(" + std::to_string(order) + ")";
      }
    }
    if (ctx.now() != ref_ctx.now()) {
      return "clock";
    }
    return Counters(ctx) == Counters(ref_ctx) ? "" : "counters";
  };
  ASSERT_EQ(mismatch(), "") << "construction";
  for (int step = 0; step < 20000; ++step) {
    const uint64_t pick = rng.NextBelow(100);
    // Lean towards allocation until most of the range is in use, then
    // towards freeing, so both the split and the merge paths run deep.
    const bool alloc_phase = (step / 2500) % 2 == 0;
    if (live.empty() || pick < (alloc_phase ? 55u : 25u)) {
      // Orders skew small, with the occasional out-of-range one.
      const int order = pick % 10 == 0 ? static_cast<int>(rng.NextBelow(BuddyAllocator::kMaxOrder + 2)) - 1
                                       : static_cast<int>(rng.NextBelow(1 + rng.NextBelow(10)));
      auto got = buddy.AllocOrder(order);
      auto want = ref.AllocOrder(order);
      ASSERT_EQ(got.ok(), want.ok()) << "alloc order " << order;
      if (got.ok()) {
        ASSERT_EQ(got.value(), want.value());
        live.emplace_back(got.value(), order);
      } else {
        ASSERT_EQ(got.status().code(), want.status().code());
      }
      ASSERT_EQ(mismatch(), "") << "alloc order " << order;
    } else if (pick < (alloc_phase ? 65u : 35u)) {
      const int count = static_cast<int>(rng.NextBelow(40));
      std::vector<Paddr> got;
      std::vector<Paddr> want;
      const Status got_status = buddy.AllocFrameBatch(count, &got);
      const Status want_status = ref.AllocFrameBatch(count, &want);
      ASSERT_EQ(got_status.code(), want_status.code());
      ASSERT_EQ(got, want);
      for (Paddr frame : got) {
        live.emplace_back(frame, 0);
      }
      ASSERT_EQ(mismatch(), "") << "alloc batch of " << count;
    } else if (pick < 90) {
      const size_t i = rng.NextBelow(live.size());
      const auto [paddr, order] = live[i];
      live[i] = live.back();
      live.pop_back();
      const Status got = buddy.FreeOrder(paddr, order);
      const Status want = ref.FreeOrder(paddr, order);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(mismatch(), "") << "free order " << order;
    } else if (pick < 97) {
      // A batch of live order-0 frames.
      std::vector<Paddr> frames;
      for (size_t i = 0; i < live.size() && frames.size() < 32;) {
        if (live[i].second == 0 && rng.NextBool(0.5)) {
          frames.push_back(live[i].first);
          live[i] = live.back();
          live.pop_back();
        } else {
          ++i;
        }
      }
      ASSERT_TRUE(buddy.FreeFrameBatch(frames).ok());
      ASSERT_TRUE(ref.FreeFrameBatch(frames).ok());
      ASSERT_EQ(mismatch(), "") << "free batch of " << frames.size();
    } else {
      // Rejected frees: outside the range, misaligned for the order, or a
      // bad order.
      const Paddr outside = rng.NextBool(0.5) ? base - kPageSize : base + bytes;
      const Paddr misaligned = base + (2 * rng.NextBelow(1000) + 1) * kPageSize;
      for (const auto& [paddr, order] : {std::pair<Paddr, int>{outside, 0},
                                         {misaligned, 1 + static_cast<int>(rng.NextBelow(8))},
                                         {base, -1},
                                         {base, BuddyAllocator::kMaxOrder}}) {
        ASSERT_EQ(buddy.FreeOrder(paddr, order).code(), ref.FreeOrder(paddr, order).code());
      }
      ASSERT_EQ(mismatch(), "") << "rejected frees";
    }
  }
  // Drain: everything merges back to the seeded blocks.
  for (const auto& [paddr, order] : live) {
    ASSERT_TRUE(buddy.FreeOrder(paddr, order).ok());
    ASSERT_TRUE(ref.FreeOrder(paddr, order).ok());
  }
  ASSERT_EQ(mismatch(), "") << "drain";
  EXPECT_EQ(buddy.free_bytes(), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyDifferentialTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace o1mem
