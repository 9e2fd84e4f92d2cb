// Ablation (DESIGN.md Sec. 14): guaranteed-contiguous allocation under
// fragmentation. The area is kept saturated with discardable tmpfs files
// (second-class borrows), then churned -- create/delete at random sizes --
// so the lendable space is fragmented the way a long-lived machine's memory
// is. A claim sweep (4 KiB .. 1 GiB) then runs against:
//   * gcma -- the guaranteed path: first-fit window, revoke the handful of
//     overlapping lender extents (drop the discardable contents), done.
//     Cost scales with victim *extents*, so p99 barely moves with size.
//   * cma  -- the Linux CMA/compaction baseline: linear pageblock scan,
//     per-page migration of movable pages, and outright failure when
//     seeded unmovable granules pin every candidate run. Failures charge a
//     full compaction pass, so the worst case is the *failed* claim.
#include <algorithm>

#include "bench/common.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

constexpr uint64_t kAreaBytes = 1536 * kMiB;
constexpr uint64_t kGuaranteeBytes = 1 * kGiB;

SystemConfig FragConfig(bool cma) {
  SystemConfig config = BenchConfig();
  config.machine.contig.area_bytes = kAreaBytes;
  config.machine.contig.guarantee_bytes = kGuaranteeBytes;
  config.machine.contig.cma_baseline = cma;
  return config;
}

// Keeps the contiguous area saturated with discardable tmpfs files and
// churns them. File sizes are drawn from [64 MiB, 256 MiB] so a 1 GiB claim
// overlaps a handful of extents, not thousands.
class FragWorld {
 public:
  FragWorld(System& sys, Process& proc) : sys_(sys), proc_(proc), rng_(0xf4a6) {}

  // Creates files until a borrow no longer fits anywhere in the area.
  void Fill() {
    while (CreateOne()) {
    }
  }

  // Deletes `n` random files (punching holes into the lent space), then
  // re-fills -- the create/delete mix is what fragments the area.
  void Churn(int n) {
    for (int i = 0; i < n && !live_.empty(); ++i) {
      const size_t idx = static_cast<size_t>(rng_.NextBelow(live_.size()));
      O1_CHECK(sys_.Unlink(live_[idx]).ok());
      live_[idx] = live_.back();
      live_.pop_back();
    }
    Fill();
  }

 private:
  // One discardable file; its first touched page borrows the whole
  // (size-aligned) extent from the area. Returns false once borrows stop
  // fitting (the failed probe file is unlinked again).
  bool CreateOne() {
    const uint64_t size =
        AlignUp(rng_.NextInRange(64 * kMiB, 256 * kMiB), kPageSize);
    const std::string path = "/frag/f" + std::to_string(next_id_++);
    auto fd = sys_.Creat(proc_, sys_.tmpfs(), path, FileFlags{.discardable = true});
    O1_CHECK(fd.ok());
    O1_CHECK(sys_.Ftruncate(proc_, *fd, size).ok());
    const uint64_t lent_before = sys_.contig()->lent_bytes_total();
    uint8_t byte = 1;
    O1_CHECK(sys_.Pwrite(proc_, *fd, 0, std::span<const uint8_t>(&byte, 1)).ok());
    O1_CHECK(sys_.Close(proc_, *fd).ok());
    if (sys_.contig()->lent_bytes_total() == lent_before) {
      O1_CHECK(sys_.Unlink(path).ok());  // fell back to first-class backing
      return false;
    }
    live_.push_back(path);
    return true;
  }

  System& sys_;
  Process& proc_;
  Rng rng_;
  uint64_t next_id_ = 0;
  std::vector<std::string> live_;
};

struct ClassStats {
  uint64_t size = 0;
  std::vector<double> us;
  uint64_t ok = 0;
  uint64_t fail = 0;

  double Percentile(int p) const {
    std::vector<double> sorted = us;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.empty()) {
      return 0;
    }
    const size_t idx = std::min(sorted.size() - 1, sorted.size() * p / 100);
    return sorted[idx];
  }
  double SuccessRate() const {
    const uint64_t n = ok + fail;
    return n > 0 ? static_cast<double>(ok) / static_cast<double>(n) : 0;
  }
};

// The claim sweep intentionally skips MaybeShrink: the 1 GiB class is what
// the O(1) verdict and the acceptance ratio are computed against.
std::vector<uint64_t> ClaimSizes() {
  return {4 * kKiB, 2 * kMiB, 64 * kMiB, 256 * kMiB, 1 * kGiB};
}

std::vector<ClassStats> RunMode(bool cma) {
  System sys(FragConfig(cma));
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  FragWorld world(sys, **proc);
  world.Fill();

  const uint64_t reps = ScaleOps(16);
  std::vector<ClassStats> stats;
  for (uint64_t size : ClaimSizes()) {
    ClassStats cls;
    cls.size = size;
    for (uint64_t rep = 0; rep < reps; ++rep) {
      world.Churn(2);
      const uint64_t t0 = sys.ctx().now();
      auto claim = sys.contig()->Claim(size);
      cls.us.push_back(sys.ctx().clock().CyclesToUs(sys.ctx().now() - t0));
      if (claim.ok()) {
        ++cls.ok;
        O1_CHECK(sys.contig()->Release(*claim).ok());
      } else {
        ++cls.fail;
      }
      if (!cma) {
        // The guarantee: every claim up to guarantee_bytes succeeds, no
        // matter how churned the area is.
        O1_CHECK(claim.ok());
      }
    }
    stats.push_back(std::move(cls));
  }
  CaptureOccupancy(sys);
  CaptureObs(sys);
  return stats;
}

void Run(BenchJson& json, const BenchArgs&) {
  // CMA first, GCMA second: the occupancy snapshot in the JSON (last writer
  // wins) then shows the guaranteed mode's area accounting.
  std::vector<ClassStats> cma = RunMode(/*cma=*/true);
  std::vector<ClassStats> gcma = RunMode(/*cma=*/false);

  Table table("Ablation: contiguous claims after churn -- GCMA discard vs CMA compaction");
  table.AddRow({"size", "gcma p50 us", "gcma p99 us", "gcma ok%", "cma p99 us", "cma ok%"});
  for (size_t i = 0; i < gcma.size(); ++i) {
    table.AddRow({SizeLabel(gcma[i].size), Table::Num(gcma[i].Percentile(50)),
                  Table::Num(gcma[i].Percentile(99)),
                  Table::Num(100 * gcma[i].SuccessRate()),
                  Table::Num(cma[i].Percentile(99)),
                  Table::Num(100 * cma[i].SuccessRate())});
  }
  json.Emit(table);

  // Acceptance gates, self-checked: the guaranteed path never fails below
  // the guarantee, and its p99 grows <= 8x from the 2 MiB class to 1 GiB.
  const ClassStats& g2m = gcma[1];
  const ClassStats& g1g = gcma.back();
  O1_CHECK(g1g.size == 1 * kGiB && g2m.size == 2 * kMiB);
  for (const ClassStats& cls : gcma) {
    O1_CHECK(cls.fail == 0);
  }
  O1_CHECK(g2m.Percentile(99) > 0);
  O1_CHECK(g1g.Percentile(99) <= 8 * g2m.Percentile(99));

  json.Metric("contig_p99_us", g1g.Percentile(99));
  json.Metric("contig_p99_ratio_1g_over_2m", g1g.Percentile(99) / g2m.Percentile(99));
  double gok = 0, gn = 0, cok = 0, cn = 0;
  for (const ClassStats& cls : gcma) {
    gok += static_cast<double>(cls.ok);
    gn += static_cast<double>(cls.ok + cls.fail);
  }
  for (const ClassStats& cls : cma) {
    cok += static_cast<double>(cls.ok);
    cn += static_cast<double>(cls.ok + cls.fail);
  }
  json.Metric("contig_success_rate", gn > 0 ? gok / gn : 0);
  json.Metric("cma_p99_us", cma.back().Percentile(99));
  json.Metric("cma_success_rate", cn > 0 ? cok / cn : 0);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_fragmentation", {}, o1mem::Run);
}
