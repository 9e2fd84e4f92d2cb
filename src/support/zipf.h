// Zipfian item generator for skewed workloads (YCSB-style), deterministic
// via the shared Rng. Uses a precomputed CDF with binary search: exact, and
// fast enough for the simulator's request rates.
#ifndef O1MEM_SRC_SUPPORT_ZIPF_H_
#define O1MEM_SRC_SUPPORT_ZIPF_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/support/check.h"
#include "src/support/rng.h"

namespace o1mem {

class ZipfGenerator {
 public:
  // Items 0..n-1 with P(i) proportional to 1/(i+1)^theta.
  ZipfGenerator(uint64_t n, double theta) : cdf_(n) {
    O1_CHECK(n > 0);
    O1_CHECK(theta >= 0.0);
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SUPPORT_ZIPF_H_
