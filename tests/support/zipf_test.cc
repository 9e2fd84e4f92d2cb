#include "src/support/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

namespace o1mem {
namespace {

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfGenerator zipf(10, 0.0);
  Rng rng(1);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    counts[zipf.Next(rng)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 2000, 300);
  }
}

TEST(ZipfTest, SkewConcentratesOnHotItems) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(2);
  std::vector<int> counts(1000, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    counts[zipf.Next(rng)]++;
  }
  // Item 0 dominates and the head carries most of the mass.
  EXPECT_GT(counts[0], counts[100] * 10);
  int head = 0;
  for (size_t i = 0; i < 100; ++i) {
    head += counts[i];
  }
  EXPECT_GT(head, kDraws / 2);
}

TEST(ZipfTest, AllDrawsInRange) {
  ZipfGenerator zipf(7, 1.2);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 7u);
  }
}

TEST(ZipfTest, DeterministicGivenSeed) {
  ZipfGenerator zipf(100, 0.8);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Next(a), zipf.Next(b));
  }
}

uint64_t LowerBoundIndex(const ZipfGenerator& zipf, double u) {
  const std::span<const double> cdf = zipf.cdf();
  return static_cast<uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

// The guide-table step must return exactly the binary search's index: for a
// million seeded draws per shape, at u = 0, at u equal to probed CDF
// entries, at every bucket edge, and at the largest double below 1.
TEST(ZipfTest, GuideTableMatchesLowerBound) {
  const std::pair<uint64_t, double> kShapes[] = {
      {1, 0.99}, {7, 1.2}, {10, 0.0}, {1000, 0.99}, {32768, 0.99}};
  for (const auto& [n, theta] : kShapes) {
    SCOPED_TRACE(testing::Message() << "n=" << n << " theta=" << theta);
    const ZipfGenerator zipf(n, theta);
    ASSERT_EQ(zipf.cdf().size(), n);
    Rng rng(n * 31 + 7);
    uint64_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const double u = rng.NextDouble();
      if (zipf.IndexOf(u) != LowerBoundIndex(zipf, u)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    for (const double u : {0.0, std::nextafter(1.0, 0.0)}) {
      EXPECT_EQ(zipf.IndexOf(u), LowerBoundIndex(zipf, u)) << u;
    }
    for (uint64_t i = 0; i < n; i += 1 + n / 997) {
      EXPECT_EQ(zipf.IndexOf(zipf.cdf()[i]), LowerBoundIndex(zipf, zipf.cdf()[i])) << i;
    }
    // Each guide bucket's lower edge and the double just below it, where
    // u * n rounds onto a bucket boundary.
    for (uint64_t b = 1; b < n; ++b) {
      const double edge = static_cast<double>(b) / static_cast<double>(n);
      for (const double u : {edge, std::nextafter(edge, 0.0)}) {
        if (zipf.IndexOf(u) != LowerBoundIndex(zipf, u)) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

// Generators over one (n, theta) share one table, and a shared table still
// gives each generator its own stream from its own Rng.
TEST(ZipfTest, SameShapeSharesOneTable) {
  const ZipfGenerator a(500, 0.9);
  const ZipfGenerator b(500, 0.9);
  const ZipfGenerator c(500, 0.8);
  EXPECT_EQ(a.cdf().data(), b.cdf().data());
  EXPECT_NE(a.cdf().data(), c.cdf().data());
  Rng ra(9);
  Rng rb(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(ra), b.Next(rb));
  }
}

}  // namespace
}  // namespace o1mem
