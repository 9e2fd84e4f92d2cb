#include "src/sim/range_table.h"

#include <gtest/gtest.h>

namespace o1mem {
namespace {

TEST(RangeTableTest, InsertAndLookup) {
  RangeTable rt;
  ASSERT_TRUE(rt.Insert({.vbase = 0x10000, .bytes = kMiB, .pbase = 0x400000,
                         .prot = Prot::kReadWrite})
                  .ok());
  auto e = rt.Lookup(0x10000 + 1234);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->pbase + (0x10000u + 1234 - e->vbase), 0x400000u + 1234);
  EXPECT_FALSE(rt.Lookup(0x10000 + kMiB).has_value());
  EXPECT_FALSE(rt.Lookup(0xFFFF).has_value());
}

TEST(RangeTableTest, RejectsOverlaps) {
  RangeTable rt;
  ASSERT_TRUE(rt.Insert({.vbase = kMiB, .bytes = kMiB, .pbase = 0, .prot = Prot::kRead}).ok());
  // Overlapping from below.
  EXPECT_FALSE(rt.Insert({.vbase = kMiB / 2, .bytes = kMiB, .pbase = 0,
                          .prot = Prot::kRead})
                   .ok());
  // Overlapping from above.
  EXPECT_FALSE(rt.Insert({.vbase = kMiB + kPageSize, .bytes = kPageSize, .pbase = 0,
                          .prot = Prot::kRead})
                   .ok());
  // Exactly adjacent on both sides is fine.
  EXPECT_TRUE(rt.Insert({.vbase = 0, .bytes = kMiB, .pbase = 0, .prot = Prot::kRead}).ok());
  EXPECT_TRUE(
      rt.Insert({.vbase = 2 * kMiB, .bytes = kMiB, .pbase = 0, .prot = Prot::kRead}).ok());
}

TEST(RangeTableTest, RejectsEmptyAndWrappingRanges) {
  RangeTable rt;
  EXPECT_FALSE(rt.Insert({.vbase = 0, .bytes = 0, .pbase = 0, .prot = Prot::kRead}).ok());
  // Page-aligned, so the wrap check rejects it, not the alignment check.
  EXPECT_EQ(rt.Insert({.vbase = AlignDown(UINT64_MAX, kPageSize), .bytes = 2 * kPageSize,
                       .pbase = 0, .prot = Prot::kRead})
                .message(),
            "range wraps VA space");
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RangeTableTest, RejectsEntriesNotPageAligned) {
  RangeTable rt;
  const RangeEntry aligned{.vbase = kGiB, .bytes = kPageSize, .pbase = kMiB, .prot = Prot::kRead};
  RangeEntry vbase = aligned;
  vbase.vbase += kPageSize / 2;
  RangeEntry bytes = aligned;
  bytes.bytes = kPageSize / 2;
  RangeEntry pbase = aligned;
  pbase.pbase += 64;
  for (const RangeEntry& entry : {vbase, bytes, pbase}) {
    EXPECT_EQ(rt.Insert(entry).code(), StatusCode::kInvalidArgument)
        << entry.vbase << " " << entry.bytes << " " << entry.pbase;
  }
  EXPECT_EQ(rt.size(), 0u);
  EXPECT_TRUE(rt.Insert(aligned).ok());
}

TEST(RangeTableTest, RemoveIsExactBaseMatch) {
  RangeTable rt;
  ASSERT_TRUE(rt.Insert({.vbase = kMiB, .bytes = kMiB, .pbase = 0, .prot = Prot::kRead}).ok());
  EXPECT_FALSE(rt.Remove(kMiB + 1).ok());
  EXPECT_TRUE(rt.Remove(kMiB).ok());
  EXPECT_FALSE(rt.Lookup(kMiB).has_value());
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RangeTableTest, ProtectWholeRange) {
  RangeTable rt;
  ASSERT_TRUE(rt.Insert({.vbase = 0, .bytes = kGiB, .pbase = 0, .prot = Prot::kReadWrite}).ok());
  ASSERT_TRUE(rt.Protect(0, Prot::kRead).ok());
  EXPECT_EQ(rt.Lookup(kGiB - 1)->prot, Prot::kRead);
  EXPECT_FALSE(rt.Protect(12345, Prot::kRead).ok());
}

TEST(RangeTableTest, InsertCostIndependentOfRangeLength) {
  // Structural sanity: a one-page range and a 1 TiB range are both one entry.
  RangeTable rt;
  ASSERT_TRUE(rt.Insert({.vbase = 0, .bytes = kPageSize, .pbase = 0, .prot = Prot::kRead}).ok());
  ASSERT_TRUE(
      rt.Insert({.vbase = kTiB, .bytes = kTiB, .pbase = kPageSize, .prot = Prot::kRead}).ok());
  EXPECT_EQ(rt.size(), 2u);
  EXPECT_TRUE(rt.Lookup(kTiB + kTiB - 1).has_value());
}

TEST(RangeTableTest, EntriesReturnedSorted) {
  RangeTable rt;
  ASSERT_TRUE(rt.Insert({.vbase = 5 * kMiB, .bytes = kMiB, .pbase = 0, .prot = Prot::kRead}).ok());
  ASSERT_TRUE(rt.Insert({.vbase = kMiB, .bytes = kMiB, .pbase = 0, .prot = Prot::kRead}).ok());
  auto entries = rt.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_LT(entries[0].vbase, entries[1].vbase);
}

}  // namespace
}  // namespace o1mem
