// The calibration anchors of EXPERIMENTS.md, measured from outside on fresh
// Systems: the baseline's simulated error against the paper's reported
// figures, the only reference data the repository holds.
#include <algorithm>
#include <cmath>

#include "o1bench/bench.h"

namespace o1bench {
namespace {

using namespace o1mem;

constexpr uint64_t kFileBytes = 1 * kMiB;
constexpr uint64_t kPages = kFileBytes / kPageSize;

// One baseline mmap of a fresh 1 MiB file on tmpfs or the DAX fs.
double MmapUs(bool populate, bool dax) {
  System sys(BenchMachine(false));
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  FileSystem& fs =
      dax ? static_cast<FileSystem&>(sys.pmfs()) : static_cast<FileSystem&>(sys.tmpfs());
  auto fd = sys.Creat(**proc, fs, "/calib/file", FileFlags{.persistent = dax});
  O1_CHECK(fd.ok());
  O1_CHECK(sys.Ftruncate(**proc, *fd, kFileBytes).ok());
  const uint64_t start = sys.ctx().now();
  O1_CHECK(sys.Mmap(**proc, MmapArgs{.length = kFileBytes, .populate = populate, .fd = *fd}).ok());
  return CyclesToUs(sys.ctx().now() - start);
}

// Demand-read one byte of every page of a mapped tmpfs file: minor faults.
double MinorFaultUs() {
  System sys(BenchMachine(false));
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  auto fd = sys.Creat(**proc, sys.tmpfs(), "/calib/file", FileFlags{});
  O1_CHECK(fd.ok());
  O1_CHECK(sys.Ftruncate(**proc, *fd, kFileBytes).ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = kFileBytes, .fd = *fd});
  O1_CHECK(vaddr.ok());
  const uint64_t start = sys.ctx().now();
  for (uint64_t off = 0; off < kFileBytes; off += kPageSize) {
    O1_CHECK(sys.UserTouch(**proc, *vaddr + off, 1, AccessType::kRead).ok());
  }
  return CyclesToUs(sys.ctx().now() - start) / static_cast<double>(kPages);
}

}  // namespace

double Calibration::Anchor::rel_err() const {
  return std::fabs(measured_us - paper_us) / paper_us;
}

double Calibration::max_rel_err() const {
  double worst = 0;
  for (const Anchor& a : anchors) {
    worst = std::max(worst, a.rel_err());
  }
  return worst;
}

Calibration RunCalibration() {
  const double tmpfs_demand = MmapUs(false, false);
  Calibration c;
  // Paper figures (EXPERIMENTS.md, "Calibration anchors").
  c.anchors = {
      {"tmpfs_mmap", tmpfs_demand, 8.0},
      {"dax_mmap", MmapUs(false, true), 15.0},
      {"populate_per_page", (MmapUs(true, false) - tmpfs_demand) / static_cast<double>(kPages),
       1.0},
      {"minor_fault", MinorFaultUs(), 2.0},
  };
  return c;
}

}  // namespace o1bench
