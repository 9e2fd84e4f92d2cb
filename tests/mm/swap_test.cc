#include "src/mm/swap.h"

#include <gtest/gtest.h>

#include "src/support/units.h"

namespace o1mem {
namespace {

class SwapTest : public ::testing::Test {
 protected:
  SimContext ctx_;
  PhysicalMemory phys_{&ctx_, 4 * kMiB, 0};
  SwapDevice swap_{&ctx_, &phys_, /*capacity_pages=*/4};
};

TEST_F(SwapTest, RoundTripPreservesContents) {
  std::vector<uint8_t> data(kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13);
  }
  ASSERT_TRUE(phys_.Write(0, data).ok());
  auto slot = swap_.SwapOut(0);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(phys_.Zero(0, kPageSize).ok());
  ASSERT_TRUE(swap_.SwapIn(slot.value(), 0).ok());
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(phys_.Read(0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(swap_.used_slots(), 0u);
}

TEST_F(SwapTest, SlotConsumedBySwapIn) {
  auto slot = swap_.SwapOut(0);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(swap_.SwapIn(slot.value(), kPageSize).ok());
  EXPECT_FALSE(swap_.SwapIn(slot.value(), kPageSize).ok());
}

TEST_F(SwapTest, CapacityEnforced) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(swap_.SwapOut(static_cast<Paddr>(i) * kPageSize).ok());
  }
  auto r = swap_.SwapOut(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
}

TEST_F(SwapTest, DiscardFreesSlot) {
  auto slot = swap_.SwapOut(0);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(swap_.Discard(slot.value()).ok());
  EXPECT_EQ(swap_.used_slots(), 0u);
  EXPECT_FALSE(swap_.Discard(slot.value()).ok());
}

std::vector<uint8_t> Pattern(uint8_t seed) {
  std::vector<uint8_t> data(kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + seed);
  }
  return data;
}

std::vector<uint8_t> ReadPage(PhysicalMemory& phys, Paddr paddr) {
  std::vector<uint8_t> out(kPageSize);
  EXPECT_TRUE(phys.Read(paddr, out).ok());
  return out;
}

TEST_F(SwapTest, DuplicateReadsItsPageAfterTheOriginalIsSwappedIn) {
  const std::vector<uint8_t> data = Pattern(3);
  ASSERT_TRUE(phys_.Write(0, data).ok());
  auto slot = swap_.SwapOut(0);
  ASSERT_TRUE(slot.ok());
  auto dup = swap_.DuplicateSlot(*slot);
  ASSERT_TRUE(dup.ok());
  ASSERT_TRUE(swap_.SwapIn(*slot, kPageSize).ok());
  // The frame the original went to is written over; the duplicate keeps
  // the bytes swapped out.
  ASSERT_TRUE(phys_.Write(kPageSize, Pattern(9)).ok());
  ASSERT_TRUE(swap_.SwapIn(*dup, 2 * kPageSize).ok());
  EXPECT_EQ(ReadPage(phys_, 2 * kPageSize), data);
  EXPECT_EQ(swap_.used_slots(), 0u);
}

TEST_F(SwapTest, DuplicateReadsItsPageAfterTheOriginalIsDiscarded) {
  const std::vector<uint8_t> data = Pattern(5);
  ASSERT_TRUE(phys_.Write(0, data).ok());
  auto slot = swap_.SwapOut(0);
  ASSERT_TRUE(slot.ok());
  auto dup = swap_.DuplicateSlot(*slot);
  ASSERT_TRUE(dup.ok());
  auto dup_of_dup = swap_.DuplicateSlot(*dup);
  ASSERT_TRUE(dup_of_dup.ok());
  ASSERT_TRUE(swap_.Discard(*slot).ok());
  ASSERT_TRUE(swap_.Discard(*dup).ok());
  EXPECT_EQ(swap_.used_slots(), 1u);
  ASSERT_TRUE(swap_.SwapIn(*dup_of_dup, kPageSize).ok());
  EXPECT_EQ(ReadPage(phys_, kPageSize), data);
}

TEST_F(SwapTest, ZeroPagesRoundTripAsZeros) {
  // One frame never written and one written with zeros, each swapped in
  // over a frame holding other bytes, directly and through a duplicate.
  ASSERT_TRUE(phys_.Write(kPageSize, std::vector<uint8_t>(kPageSize, 0)).ok());
  for (Paddr source : {Paddr{0}, Paddr{kPageSize}}) {
    auto slot = swap_.SwapOut(source);
    ASSERT_TRUE(slot.ok());
    auto dup = swap_.DuplicateSlot(*slot);
    ASSERT_TRUE(dup.ok());
    for (uint64_t s : {*slot, *dup}) {
      ASSERT_TRUE(phys_.Write(2 * kPageSize, Pattern(1)).ok());
      ASSERT_TRUE(swap_.SwapIn(s, 2 * kPageSize).ok());
      EXPECT_EQ(ReadPage(phys_, 2 * kPageSize), std::vector<uint8_t>(kPageSize, 0));
    }
  }
  EXPECT_EQ(swap_.used_slots(), 0u);
}

TEST_F(SwapTest, DuplicatesCountAgainstCapacity) {
  auto a = swap_.SwapOut(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(phys_.Write(kPageSize, Pattern(2)).ok());
  auto b = swap_.SwapOut(kPageSize);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(swap_.DuplicateSlot(*a).ok());
  ASSERT_TRUE(swap_.DuplicateSlot(*b).ok());
  EXPECT_EQ(swap_.used_slots(), 4u);
  auto full_dup = swap_.DuplicateSlot(*a);
  ASSERT_FALSE(full_dup.ok());
  EXPECT_EQ(full_dup.status().code(), StatusCode::kOutOfMemory);
  auto full_out = swap_.SwapOut(0);
  ASSERT_FALSE(full_out.ok());
  EXPECT_EQ(full_out.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(swap_.used_slots(), 4u);
  auto missing = swap_.DuplicateSlot(12345);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(swap_.Discard(*a).ok());
  EXPECT_EQ(swap_.used_slots(), 3u);
  EXPECT_TRUE(swap_.DuplicateSlot(*b).ok());
}

TEST_F(SwapTest, SwapIsSlow) {
  const uint64_t t0 = ctx_.now();
  ASSERT_TRUE(swap_.SwapOut(0).ok());
  // Swapping one page costs on the order of 100 microseconds, vastly more
  // than any in-memory operation.
  EXPECT_GT(ctx_.now() - t0, 100000u);
}

}  // namespace
}  // namespace o1mem
