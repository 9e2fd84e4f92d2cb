// Ablation (Sec. 3.1 "Memory locking"): preparing a buffer for device DMA.
// The baseline must pin page by page (fault in + mark unevictable + elevate
// refcount); under file-only memory "data is implicitly pinned in memory, as
// pages are never reclaimed or relocated until the file is explicitly
// unmapped" -- the driver just asks for the extent list.
//
// A second scenario pins a *physically contiguous* DMA buffer after memory
// has been churned (DESIGN.md Sec. 14): the baseline still pays per page,
// while the contiguous area claims the buffer by revoking a handful of
// second-class lender extents -- cost independent of buffer size.
#include "bench/common.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

// Create/delete discardable tmpfs files for a few rounds so memory is no
// longer pristine when the pin request arrives. With the contiguous area on,
// the files borrow second-class extents from it; without it they churn the
// buddy the ordinary way.
void ChurnFiles(System& sys, Process& proc) {
  Rng rng(0x91a);
  std::vector<std::string> live;
  uint64_t next_id = 0;
  for (int round = 0; round < 24; ++round) {
    if (!live.empty() && rng.NextBelow(3) == 0) {
      const size_t idx = static_cast<size_t>(rng.NextBelow(live.size()));
      O1_CHECK(sys.Unlink(live[idx]).ok());
      live[idx] = live.back();
      live.pop_back();
      continue;
    }
    const uint64_t size = AlignUp(rng.NextInRange(32 * kMiB, 128 * kMiB), kPageSize);
    const std::string path = "/churn/f" + std::to_string(next_id++);
    auto fd = sys.Creat(proc, sys.tmpfs(), path, FileFlags{.discardable = true});
    O1_CHECK(fd.ok());
    O1_CHECK(sys.Ftruncate(proc, *fd, size).ok());
    uint8_t byte = 1;
    O1_CHECK(sys.Pwrite(proc, *fd, 0, std::span<const uint8_t>(&byte, 1)).ok());
    O1_CHECK(sys.Close(proc, *fd).ok());
    live.push_back(path);
  }
}

double BaselinePinUs(uint64_t bytes, bool churn = false) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  if (churn) {
    ChurnFiles(sys, **proc);
  }
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = bytes, .populate = true});
  O1_CHECK(vaddr.ok());
  SimTimer timer(sys);
  O1_CHECK(sys.Mlock(**proc, *vaddr, bytes).ok());
  return timer.ElapsedUs();
}

double FomPinUs(uint64_t bytes) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = bytes});
  O1_CHECK(vaddr.ok());
  SimTimer timer(sys);
  O1_CHECK(sys.Mlock(**proc, *vaddr, bytes).ok());
  // The "driver" fetches the DMA scatter list: O(extents).
  O1_CHECK(sys.fom().PinnedExtents((*proc)->fom(), *vaddr).ok());
  return timer.ElapsedUs();
}

// Post-churn contiguous pin: claim a guaranteed physically contiguous DMA
// buffer out of the lent-out area; the overlapping discardable files are the
// only casualties, and the cost is per victim extent, not per page.
double ContigPinUs(uint64_t bytes) {
  SystemConfig config = BenchConfig();
  config.machine.contig.enabled = true;
  config.machine.contig.area_bytes = 1 * kGiB;
  System sys(config);
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  ChurnFiles(sys, **proc);
  SimTimer timer(sys);
  auto claim = sys.contig()->Claim(bytes);
  O1_CHECK(claim.ok());
  const double us = timer.ElapsedUs();
  O1_CHECK(sys.contig()->Release(*claim).ok());
  return us;
}

void Run(BenchJson& json, const BenchArgs&) {
  Table table("Ablation: pin a DMA buffer -- per-page mlock vs FOM implicit pinning");
  table.AddRow({"size", "baseline mlock us", "fom pin us", "speedup"});
  struct Row {
    uint64_t size;
    double baseline, fom;
  };
  for (uint64_t size : MaybeShrink({1 * kMiB, 16 * kMiB, 64 * kMiB, 256 * kMiB})) {
    Row row{.size = size, .baseline = BaselinePinUs(size), .fom = FomPinUs(size)};
    table.AddRow({SizeLabel(size), Table::Num(row.baseline), Table::Num(row.fom),
                  Table::Num(row.fom > 0 ? row.baseline / row.fom : 0)});
  }
  json.Emit(table);

  Table churned(
      "Post-churn contiguous DMA buffer: per-page mlock vs contig-area claim");
  churned.AddRow({"size", "baseline pin us", "contig pin us", "speedup"});
  std::vector<Row> churn_rows;
  for (uint64_t size : MaybeShrink({16 * kMiB, 64 * kMiB, 256 * kMiB})) {
    Row row{.size = size,
            .baseline = BaselinePinUs(size, /*churn=*/true),
            .fom = ContigPinUs(size)};
    churn_rows.push_back(row);
    churned.AddRow({SizeLabel(size), Table::Num(row.baseline), Table::Num(row.fom),
                    Table::Num(row.fom > 0 ? row.baseline / row.fom : 0)});
  }
  json.Emit(churned);
  json.Metric("churn_baseline_pin_us", churn_rows.back().baseline);
  json.Metric("churn_contig_pin_us", churn_rows.back().fom);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_pinning", {}, o1mem::Run);
}
