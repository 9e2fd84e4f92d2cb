#include "src/fs/block_bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/support/rng.h"

namespace o1mem {
namespace {

class BitmapTest : public ::testing::Test {
 protected:
  SimContext ctx_;
  BlockBitmap bitmap_{&ctx_, 1024};
};

TEST_F(BitmapTest, StartsEmpty) {
  EXPECT_EQ(bitmap_.free_blocks(), 1024u);
  EXPECT_EQ(bitmap_.LargestFreeRun(), 1024u);
  EXPECT_FALSE(bitmap_.IsAllocated(0));
}

TEST_F(BitmapTest, AllocMarksBlocks) {
  auto e = bitmap_.AllocExtent(16);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->count, 16u);
  for (uint64_t b = e->start; b < e->start + 16; ++b) {
    EXPECT_TRUE(bitmap_.IsAllocated(b));
  }
  EXPECT_EQ(bitmap_.free_blocks(), 1024u - 16);
}

TEST_F(BitmapTest, SequentialAllocationsAreContiguousWhenEmpty) {
  auto a = bitmap_.AllocExtent(8);
  auto b = bitmap_.AllocExtent(8);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(b->start, a->start + 8);  // next-fit packs forward
}

TEST_F(BitmapTest, FreeRestores) {
  auto e = bitmap_.AllocExtent(100);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(*e).ok());
  EXPECT_EQ(bitmap_.free_blocks(), 1024u);
  EXPECT_FALSE(bitmap_.IsAllocated(e->start));
}

TEST_F(BitmapTest, DoubleFreeRejected) {
  auto e = bitmap_.AllocExtent(4);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(*e).ok());
  EXPECT_FALSE(bitmap_.FreeExtent(*e).ok());
}

TEST_F(BitmapTest, WrapAroundFindsFreedSpace) {
  // Fill nearly everything, free a hole at the start, then allocate: the
  // next-fit pointer must wrap and find it.
  auto big = bitmap_.AllocExtent(1000);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = big->start, .count = 50}).ok());
  ASSERT_TRUE(bitmap_.AllocExtent(24).ok());  // consumes the tail
  auto wrapped = bitmap_.AllocExtent(50);
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->start, big->start);
}

TEST_F(BitmapTest, FragmentedRequestFails) {
  // Allocate all, free every other block: max run = 1.
  auto all = bitmap_.AllocExtent(1024);
  ASSERT_TRUE(all.ok());
  for (uint64_t b = 0; b < 1024; b += 2) {
    ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = b, .count = 1}).ok());
  }
  EXPECT_EQ(bitmap_.LargestFreeRun(), 1u);
  EXPECT_FALSE(bitmap_.AllocExtent(2).ok());
  EXPECT_TRUE(bitmap_.AllocExtent(1).ok());
}

TEST_F(BitmapTest, AllocAtMostReturnsBestRun) {
  auto all = bitmap_.AllocExtent(1024);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = 100, .count = 10}).ok());
  ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = 300, .count = 30}).ok());
  auto best = bitmap_.AllocExtentAtMost(100, 1);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->start, 300u);
  EXPECT_EQ(best->count, 30u);
}

TEST_F(BitmapTest, AllocAtMostHonorsMinimum) {
  auto all = bitmap_.AllocExtent(1024);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(bitmap_.FreeExtent(BlockExtent{.start = 0, .count = 3}).ok());
  EXPECT_FALSE(bitmap_.AllocExtentAtMost(100, 4).ok());
  EXPECT_TRUE(bitmap_.AllocExtentAtMost(100, 3).ok());
}

TEST_F(BitmapTest, InvalidRequestsRejected) {
  EXPECT_FALSE(bitmap_.AllocExtent(0).ok());
  EXPECT_FALSE(bitmap_.AllocExtent(4096).ok());
  EXPECT_FALSE(bitmap_.FreeExtent(BlockExtent{.start = 1020, .count = 10}).ok());
  EXPECT_FALSE(bitmap_.AllocExtentAtMost(10, 20).ok());
}

TEST_F(BitmapTest, ResetRebuildsState) {
  ASSERT_TRUE(bitmap_.AllocExtent(500).ok());
  std::vector<uint64_t> rebuilt(1024 / 64, 0);
  rebuilt[0] = uint64_t{1} << 7;
  ASSERT_TRUE(bitmap_.Reset(rebuilt).ok());
  EXPECT_EQ(bitmap_.free_blocks(), 1023u);
  EXPECT_TRUE(bitmap_.IsAllocated(7));
  EXPECT_FALSE(bitmap_.IsAllocated(100));
  EXPECT_FALSE(bitmap_.Reset(std::vector<uint64_t>(10)).ok());
}

TEST_F(BitmapTest, AllocationChargesCycles) {
  const uint64_t t0 = ctx_.now();
  ASSERT_TRUE(bitmap_.AllocExtent(512).ok());
  const uint64_t one_big = ctx_.now() - t0;
  // The same space as 512 singles costs far more than one extent.
  BlockBitmap other(&ctx_, 1024);
  const uint64_t t1 = ctx_.now();
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(other.AllocExtent(1).ok());
  }
  const uint64_t many_small = ctx_.now() - t1;
  EXPECT_GT(many_small, 100 * one_big);
}

// The bit-at-a-time next-fit allocator BlockBitmap used to be (minus cycle
// charging), kept as the reference model the word-granular one must match
// operation for operation.
class ReferenceBitmap {
 public:
  explicit ReferenceBitmap(uint64_t block_count)
      : bits_(block_count, false), free_blocks_(block_count) {}

  Result<BlockExtent> AllocExtent(uint64_t count) {
    if (count == 0) {
      return InvalidArgument("bad extent size");
    }
    if (count > bits_.size()) {
      return OutOfMemory("request exceeds device size");
    }
    if (count > free_blocks_) {
      return OutOfMemory("not enough free blocks");
    }
    auto start = FindRun(hint_, bits_.size(), count);
    if (!start.has_value()) {
      start = FindRun(0, std::min(hint_ + count, static_cast<uint64_t>(bits_.size())), count);
    }
    if (!start.has_value()) {
      return OutOfMemory("no contiguous run of requested size (fragmented)");
    }
    const BlockExtent extent{.start = *start, .count = count};
    Mark(extent, true);
    hint_ = (*start + count) % bits_.size();
    return extent;
  }

  Result<BlockExtent> AllocExtentAtMost(uint64_t count, uint64_t min_count) {
    if (count == 0 || min_count == 0 || min_count > count) {
      return InvalidArgument("bad extent bounds");
    }
    auto exact = AllocExtent(count);
    if (exact.ok()) {
      return exact;
    }
    if (exact.status().code() != StatusCode::kOutOfMemory) {
      return exact.status();
    }
    BlockExtent best = BestRun(0, bits_.size(), count);
    if (best.count < min_count) {
      return OutOfMemory("no run of at least min_count blocks");
    }
    Mark(best, true);
    hint_ = (best.start + best.count) % bits_.size();
    return best;
  }

  Status FreeExtent(BlockExtent extent) {
    if (extent.count == 0 || extent.start + extent.count > bits_.size()) {
      return InvalidArgument("extent out of range");
    }
    for (uint64_t i = extent.start; i < extent.start + extent.count; ++i) {
      if (!bits_[i]) {
        return InvalidArgument("double free in bitmap");
      }
    }
    Mark(extent, false);
    return OkStatus();
  }

  bool IsAllocated(uint64_t block) const { return bits_[block]; }
  uint64_t free_blocks() const { return free_blocks_; }
  uint64_t hint() const { return hint_; }

  uint64_t LargestFreeRun() const {
    uint64_t best = 0;
    uint64_t run = 0;
    for (bool bit : bits_) {
      run = bit ? 0 : run + 1;
      best = std::max(best, run);
    }
    return best;
  }

 private:
  std::optional<uint64_t> FindRun(uint64_t from, uint64_t limit, uint64_t count) const {
    uint64_t run = 0;
    for (uint64_t i = from; i < limit; ++i) {
      if (bits_[i]) {
        run = 0;
      } else if (++run == count) {
        return i + 1 - count;
      }
    }
    return std::nullopt;
  }

  BlockExtent BestRun(uint64_t from, uint64_t limit, uint64_t cap) const {
    BlockExtent best;
    uint64_t run = 0;
    for (uint64_t i = from; i < limit; ++i) {
      if (bits_[i]) {
        run = 0;
        continue;
      }
      ++run;
      if (run > best.count) {
        best.start = i + 1 - run;
        best.count = run;
        if (best.count >= cap) {
          best.count = cap;
          break;
        }
      }
    }
    return best;
  }

  void Mark(BlockExtent extent, bool allocated) {
    for (uint64_t i = extent.start; i < extent.start + extent.count; ++i) {
      O1_CHECK_MSG(bits_[i] != allocated, "bitmap double alloc/free");
      bits_[i] = allocated;
    }
    if (allocated) {
      free_blocks_ -= extent.count;
    } else {
      free_blocks_ += extent.count;
    }
  }

  std::vector<bool> bits_;
  uint64_t free_blocks_;
  uint64_t hint_ = 0;
};

// What the seeded op mix exercised, summed over every size and seed.
struct Coverage {
  uint64_t word_straddles = 0;  // allocated runs crossing a 64-block edge
  uint64_t wraps = 0;           // next-fit results below the roving hint
  uint64_t fallbacks = 0;       // AllocExtentAtMost returning a shorter run
  uint64_t double_frees = 0;    // frees rejected because a block was free
};

template <typename T>
void ExpectSameResult(const Result<T>& got, const Result<T>& want) {
  ASSERT_EQ(got.status().code(), want.status().code());
  if (want.ok()) {
    ASSERT_EQ(got->start, want->start);
    ASSERT_EQ(got->count, want->count);
  }
}

void ExpectSameState(const BlockBitmap& bitmap, const ReferenceBitmap& ref, uint64_t blocks) {
  ASSERT_EQ(bitmap.free_blocks(), ref.free_blocks());
  ASSERT_EQ(bitmap.LargestFreeRun(), ref.LargestFreeRun());
  for (uint64_t b = 0; b < blocks; ++b) {
    ASSERT_EQ(bitmap.IsAllocated(b), ref.IsAllocated(b)) << "block " << b;
  }
}

// One seeded sequence of allocations, partial and double frees on both
// allocators, compared after every operation.
void RunDifferential(uint64_t blocks, uint64_t seed, Coverage& coverage) {
  SimContext ctx;
  BlockBitmap bitmap(&ctx, blocks);
  ReferenceBitmap ref(blocks);
  Rng rng(seed);
  std::vector<BlockExtent> live;
  std::vector<BlockExtent> freed;
  // Mostly word-scale requests, so runs start and end on both sides of
  // 64-block edges; sometimes anything up to one past the device.
  auto pick_count = [&]() {
    return rng.NextBool(0.8) ? rng.NextInRange(1, std::min<uint64_t>(blocks, 80))
                             : rng.NextInRange(1, blocks + 1);
  };
  auto note_alloc = [&](const Result<BlockExtent>& got, uint64_t hint_before) {
    if (!got.ok()) {
      return;
    }
    live.push_back(*got);
    if (got->start / 64 != (got->start + got->count - 1) / 64) {
      ++coverage.word_straddles;
    }
    if (got->start < hint_before) {
      ++coverage.wraps;
    }
  };
  for (int op = 0; op < 1500; ++op) {
    SCOPED_TRACE(::testing::Message() << "blocks " << blocks << " seed " << seed << " op " << op);
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 4) {
      const uint64_t count = rng.NextBool(0.02) ? 0 : pick_count();
      const uint64_t hint_before = ref.hint();
      auto want = ref.AllocExtent(count);
      auto got = bitmap.AllocExtent(count);
      ASSERT_NO_FATAL_FAILURE(ExpectSameResult(got, want));
      note_alloc(got, hint_before);
    } else if (kind < 6) {
      const uint64_t count = pick_count();
      const uint64_t min_count =
          rng.NextBool(0.05) ? count + 1 : rng.NextInRange(1, std::max<uint64_t>(1, count / 4));
      const uint64_t hint_before = ref.hint();
      auto want = ref.AllocExtentAtMost(count, min_count);
      auto got = bitmap.AllocExtentAtMost(count, min_count);
      ASSERT_NO_FATAL_FAILURE(ExpectSameResult(got, want));
      note_alloc(got, hint_before);
      if (got.ok() && got->count < count) {
        ++coverage.fallbacks;
      }
    } else if (kind < 9 && !live.empty()) {
      // Free a random piece of a live extent; the rest stays live.
      const size_t i = rng.NextBelow(live.size());
      const BlockExtent whole = live[i];
      const uint64_t skip = rng.NextBelow(whole.count);
      const uint64_t take = rng.NextInRange(1, whole.count - skip);
      const BlockExtent piece{.start = whole.start + skip, .count = take};
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      if (skip > 0) {
        live.push_back(BlockExtent{.start = whole.start, .count = skip});
      }
      if (skip + take < whole.count) {
        live.push_back(
            BlockExtent{.start = piece.start + take, .count = whole.count - skip - take});
      }
      const Status want = ref.FreeExtent(piece);
      ASSERT_EQ(bitmap.FreeExtent(piece).code(), want.code());
      freed.push_back(piece);
    } else {
      // A double free (or a free straddling freed and live blocks), or one
      // past the end of the device.
      BlockExtent extent{.start = blocks, .count = 1};
      if (!freed.empty() && rng.NextBool(0.9)) {
        extent = freed[rng.NextBelow(freed.size())];
        extent.count = std::min(extent.count + rng.NextBelow(3), blocks - extent.start);
      }
      const Status want = ref.FreeExtent(extent);
      ASSERT_EQ(bitmap.FreeExtent(extent).code(), want.code());
      if (want.ok()) {
        // The range had been reallocated since, so this was a real free:
        // re-derive the live runs from the reference.
        live.clear();
        for (uint64_t b = 0; b < blocks; ++b) {
          if (!ref.IsAllocated(b)) {
            continue;
          }
          if (!live.empty() && live.back().start + live.back().count == b) {
            ++live.back().count;
          } else {
            live.push_back(BlockExtent{.start = b, .count = 1});
          }
        }
      } else if (want.code() == StatusCode::kInvalidArgument && extent.start < blocks) {
        ++coverage.double_frees;
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameState(bitmap, ref, blocks));
  }
}

TEST(BitmapDifferentialTest, MatchesBitAtATimeReference) {
  Coverage coverage;
  for (const uint64_t blocks : {1u, 63u, 64u, 65u, 1000u, 4097u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      ASSERT_NO_FATAL_FAILURE(RunDifferential(blocks, seed, coverage));
    }
  }
  EXPECT_GT(coverage.word_straddles, 0u);
  EXPECT_GT(coverage.wraps, 0u);
  EXPECT_GT(coverage.fallbacks, 0u);
  EXPECT_GT(coverage.double_frees, 0u);
}

}  // namespace
}  // namespace o1mem
