// Zipfian item generator for skewed workloads (YCSB-style), deterministic
// via the shared Rng. Draws invert a precomputed CDF exactly: a guide table
// of n buckets over [0, 1) starts each draw next to its answer, so a draw
// costs O(1) expected steps instead of a binary search. The CDF and guide
// for one (n, theta) are built once per process and shared by every
// generator over them, so constructing one is cheap after the first.
#ifndef O1MEM_SRC_SUPPORT_ZIPF_H_
#define O1MEM_SRC_SUPPORT_ZIPF_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/support/rng.h"

namespace o1mem {

class ZipfGenerator {
 public:
  // Items 0..n-1 with P(i) proportional to 1/(i+1)^theta.
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng) const { return IndexOf(rng.NextDouble()); }

  // The item a uniform draw u in [0, 1) maps to: the first i with
  // cdf()[i] >= u, exactly what std::lower_bound over cdf() returns.
  uint64_t IndexOf(double u) const {
    const std::vector<double>& cdf = table_->cdf;
    // u * n can round up to n for the largest u below 1.
    uint64_t bucket = static_cast<uint64_t>(u * static_cast<double>(cdf.size()));
    bucket = bucket < cdf.size() ? bucket : cdf.size() - 1;
    uint64_t i = table_->guide[bucket];
    while (i > 0 && cdf[i - 1] >= u) {
      --i;
    }
    while (i < cdf.size() && cdf[i] < u) {
      ++i;
    }
    return i;
  }

  std::span<const double> cdf() const { return table_->cdf; }

 private:
  struct Table {
    std::vector<double> cdf;
    // guide[b] = lower_bound index of b / n, where every draw in bucket b
    // = floor(u * n) starts.
    std::vector<uint32_t> guide;
  };
  static std::shared_ptr<const Table> Build(uint64_t n, double theta);

  std::shared_ptr<const Table> table_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SUPPORT_ZIPF_H_
