#include "src/support/zipf.h"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "src/support/check.h"

namespace o1mem {

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : table_(Build(n, theta)) {}

std::shared_ptr<const ZipfGenerator::Table> ZipfGenerator::Build(uint64_t n, double theta) {
  O1_CHECK(n > 0);
  O1_CHECK(n <= uint64_t{1} << 32);  // guide entries are 32-bit
  O1_CHECK(theta >= 0.0);
  // Tables are immutable and few (one per workload shape), so the memo keeps
  // every one for the life of the process.
  static std::mutex mu;
  static std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<const Table>> memo;
  const std::lock_guard<std::mutex> lock(mu);
  std::shared_ptr<const Table>& slot = memo[{n, std::bit_cast<uint64_t>(theta)}];
  if (slot == nullptr) {
    auto table = std::make_shared<Table>();
    table->cdf.resize(n);
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      table->cdf[i] = sum;
    }
    for (double& c : table->cdf) {
      c /= sum;
    }
    table->guide.resize(n);
    uint64_t i = 0;
    for (uint64_t b = 0; b < n; ++b) {
      const double lo = static_cast<double>(b) / static_cast<double>(n);
      while (i < n && table->cdf[i] < lo) {
        ++i;
      }
      table->guide[b] = static_cast<uint32_t>(i);
    }
    slot = std::move(table);
  }
  return slot;
}

}  // namespace o1mem
