// Ablation (Sec. 3.1): reclamation by page scanning vs reclamation in units
// of files. The baseline frees memory by sweeping LRU lists (clock / 2Q),
// examining pages one at a time and swapping victims out; file-only memory
// frees the same bytes by deleting discardable files -- no scan, no swap.
//
// Workload: W bytes resident; reclaim half of them.
#include "bench/common.h"

namespace o1mem {
namespace {

struct BaselineResult {
  double us;
  uint64_t scanned;
  uint64_t swapped;
};

BaselineResult MeasureBaseline(uint64_t bytes, System::ReclaimPolicy policy) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = bytes, .populate = true});
  O1_CHECK(vaddr.ok());
  // Age the pages: clear the referenced bits the installs set.
  const uint64_t pages = bytes >> kPageShift;
  for (uint64_t p = 0; p < pages; ++p) {
    (*proc)->pager().TestAndClearReferenced(*vaddr + p * kPageSize);
  }
  // Keep a quarter hot, as a real workload would.
  for (uint64_t p = 0; p < pages; p += 4) {
    (*proc)->pager().MarkAccessed(*vaddr + p * kPageSize);
  }
  const EventCounters before = sys.ctx().counters();
  SimTimer timer(sys);
  auto stats = sys.ReclaimBaseline(**proc, pages / 2, policy);
  O1_CHECK(stats.ok());
  const EventCounters delta = sys.ctx().counters().Delta(before);
  return BaselineResult{.us = timer.ElapsedUs(),
                        .scanned = delta.pages_scanned,
                        .swapped = delta.pages_swapped_out};
}

struct FomResult {
  double us;
  uint64_t files_deleted;
  uint64_t scanned;
};

FomResult MeasureFom(uint64_t bytes) {
  System sys(BenchConfig());
  // The same W bytes held as 32 discardable cache files.
  constexpr int kFiles = 32;
  const uint64_t per_file = AlignUp(bytes / kFiles, kPageSize);
  for (int f = 0; f < kFiles; ++f) {
    auto seg = sys.fom().CreateSegment(
        "/cache/f" + std::to_string(f), per_file,
        SegmentOptions{.flags = FileFlags{.discardable = true}});
    O1_CHECK(seg.ok());
    sys.ctx().Charge(100);  // distinct coarse access times
  }
  const EventCounters before = sys.ctx().counters();
  SimTimer timer(sys);
  auto released = sys.ReclaimFom(bytes / 2);
  O1_CHECK(released.ok());
  O1_CHECK(released.value() >= bytes / 2);
  const EventCounters delta = sys.ctx().counters().Delta(before);
  return FomResult{.us = timer.ElapsedUs(),
                   .files_deleted = delta.files_reclaimed,
                   .scanned = delta.pages_scanned};
}

struct ShootdownTraffic {
  double us;
  uint64_t ipis;
  uint64_t queued;
  uint64_t shootdown_cycles;
  uint64_t swapped;
};

// Reclaim's other linear cost: every swapped-out page shoots down remote
// TLBs. At 4 CPUs, compare per-page IPIs against batched+lazy invalidation.
ShootdownTraffic MeasureShootdownTraffic(uint64_t bytes, bool batched) {
  SystemConfig config = BenchConfig();
  config.machine.smp.num_cpus = 4;
  config.machine.smp.batched_shootdowns = batched;
  System sys(config);
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = bytes, .populate = true});
  O1_CHECK(vaddr.ok());
  const uint64_t pages = bytes >> kPageShift;
  for (uint64_t p = 0; p < pages; ++p) {
    (*proc)->pager().TestAndClearReferenced(*vaddr + p * kPageSize);
  }
  const EventCounters before = sys.ctx().counters();
  SimTimer timer(sys);
  O1_CHECK(sys.ReclaimBaseline(**proc, pages / 2, System::ReclaimPolicy::kClock).ok());
  const EventCounters delta = sys.ctx().counters().Delta(before);
  return ShootdownTraffic{.us = timer.ElapsedUs(),
                          .ipis = delta.shootdown_ipis_sent,
                          .queued = delta.shootdown_invals_batched,
                          .shootdown_cycles = delta.shootdown_cycles,
                          .swapped = delta.pages_swapped_out};
}

void Run(BenchJson& json, const BenchArgs&) {
  Table table(
      "Ablation: reclaim half of W resident bytes -- page scanning + swap (clock/2Q) vs "
      "FOM file deletion (simulated)");
  table.AddRow({"W", "clock us", "clock scanned", "clock swapped", "2Q us", "2Q scanned",
                "fom us", "fom files", "fom scanned", "clock/fom"});
  struct Row {
    uint64_t size;
    BaselineResult clock, two_q;
    FomResult fom;
  };
  for (uint64_t size : MaybeShrink({16 * kMiB, 64 * kMiB, 256 * kMiB, 1 * kGiB})) {
    Row row{.size = size,
            .clock = MeasureBaseline(size, System::ReclaimPolicy::kClock),
            .two_q = MeasureBaseline(size, System::ReclaimPolicy::kTwoQueue),
            .fom = MeasureFom(size)};
    table.AddRow({SizeLabel(size), Table::Num(row.clock.us), Table::Int(row.clock.scanned),
                  Table::Int(row.clock.swapped), Table::Num(row.two_q.us),
                  Table::Int(row.two_q.scanned), Table::Num(row.fom.us),
                  Table::Int(row.fom.files_deleted), Table::Int(row.fom.scanned),
                  Table::Num(row.fom.us > 0 ? row.clock.us / row.fom.us : 0)});
  }
  json.Emit(table);

  Table traffic(
      "Reclaim shootdown traffic at 4 CPUs: per-page IPIs vs batched+lazy invalidation "
      "(swap out half of 64 MiB)");
  traffic.AddRow({"mode", "reclaim us", "swapped", "IPIs sent", "queued invals",
                  "shootdown cycles", "cycles/page"});
  const uint64_t traffic_bytes = BenchSmall() ? 16 * kMiB : 64 * kMiB;
  for (bool batched : {false, true}) {
    const ShootdownTraffic t = MeasureShootdownTraffic(traffic_bytes, batched);
    traffic.AddRow({batched ? "batched+lazy" : "per-page IPIs", Table::Num(t.us),
                    Table::Int(t.swapped), Table::Int(t.ipis), Table::Int(t.queued),
                    Table::Int(t.shootdown_cycles),
                    Table::Num(t.swapped > 0 ? static_cast<double>(t.shootdown_cycles) /
                                                   static_cast<double>(t.swapped)
                                             : 0)});
  }
  json.Emit(traffic);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_reclaim", {}, o1mem::Run);
}
