// Ablation (Sec. 3.1 persistence management): "for security purposes memory
// must be zeroed out before being reused ... currently a linear-time
// operation and suggests the need for new techniques to efficiently erase
// memory in constant time."
//
// Compares PMFS allocation under the two zeroing policies:
//   * kEagerZero: zero whole extents at allocation -- O(bytes) up front;
//   * kZeroEpoch: mark extents, zero each page lazily at first touch --
//     O(extents) at allocation, the linear cost amortized into use.
// Reported: allocation (Resize) cost, then allocation + touch-everything
// total (the lazy policy should approach, not exceed, eager's total).
#include "bench/common.h"

namespace o1mem {
namespace {

struct Costs {
  double alloc_us;
  double alloc_plus_touch_us;
  double background_us;  // deferred zero-on-free work (kZeroEpoch only)
};

Costs Measure(uint64_t bytes, ZeroPolicy policy) {
  SystemConfig config = BenchConfig();
  config.pmfs_zero_policy = policy;
  // Isolate zeroing: skip pre-created page-table builds (they are priced in
  // fig3/fig9) and map via range entries.
  config.fom.precreate_page_tables = false;
  config.fom.default_mechanism = MapMechanism::kRangeTable;
  System sys(config);
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  // Dirty then free a region so recycled blocks genuinely need zeroing.
  auto dirty = sys.fom().CreateSegment("/dirty", bytes);
  O1_CHECK(dirty.ok());
  auto dirty_map = sys.fom().Map((*proc)->fom(), *dirty, Prot::kReadWrite);
  O1_CHECK(dirty_map.ok());
  O1_CHECK(sys.UserTouch(**proc, *dirty_map, bytes, AccessType::kWrite).ok());
  O1_CHECK(sys.fom().Unmap((*proc)->fom(), *dirty_map).ok());
  O1_CHECK(sys.fom().DeleteSegment("/dirty").ok());

  SimTimer timer(sys);
  auto seg = sys.fom().CreateSegment("/seg", bytes);
  O1_CHECK(seg.ok());
  Costs costs;
  costs.alloc_us = timer.ElapsedUs();
  auto vaddr = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite);
  O1_CHECK(vaddr.ok());
  for (uint64_t off = 0; off < bytes; off += kPageSize) {
    O1_CHECK(sys.UserTouch(**proc, *vaddr + off, 1, AccessType::kRead).ok());
  }
  costs.alloc_plus_touch_us = timer.ElapsedUs();
  costs.background_us = sys.ctx().clock().CyclesToUs(sys.pmfs().background_zero_cycles());
  return costs;
}

struct AnonZeroing {
  double us_per_fault;
  uint64_t from_pcp;
  uint64_t from_buddy;
  uint64_t prezero_hits;
  uint64_t prezero_misses;
  double background_us;
};

// The DRAM-side version of the same problem: the baseline zeroes anonymous
// frames on the fault path. With the per-CPU frame cache + pre-zeroed pool
// (SmpConfig) the fault pops a background-zeroed frame instead.
AnonZeroing MeasureAnonFaults(uint64_t bytes, bool fast_paths) {
  SystemConfig config = BenchConfig();
  if (fast_paths) {
    config.machine.smp.percpu_frame_cache = true;
    config.machine.smp.prezero_pool = true;
  }
  System sys(config);
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = bytes});
  O1_CHECK(vaddr.ok());
  const EventCounters before = sys.ctx().counters();
  SimTimer timer(sys);
  const uint64_t pages = bytes / kPageSize;
  for (uint64_t p = 0; p < pages; ++p) {
    O1_CHECK(sys.UserTouch(**proc, *vaddr + p * kPageSize, 1, AccessType::kWrite).ok());
  }
  const EventCounters delta = sys.ctx().counters().Delta(before);
  return AnonZeroing{
      .us_per_fault = timer.ElapsedUs() / static_cast<double>(pages),
      .from_pcp = delta.frames_from_pcp,
      .from_buddy = delta.frames_from_buddy,
      .prezero_hits = delta.prezero_hits,
      .prezero_misses = delta.prezero_misses,
      .background_us =
          sys.ctx().clock().CyclesToUs(sys.phys_manager().background_zero_cycles())};
}

void Run(BenchJson& json, const BenchArgs&) {
  Table table(
      "Ablation: eager zeroing vs zero-epoch (O(1) erase) on recycled NVM blocks "
      "(simulated us)");
  table.AddRow({"size", "eager alloc", "epoch alloc", "alloc speedup", "eager total",
                "epoch total", "epoch background"});
  struct Row {
    uint64_t size;
    Costs eager, epoch;
  };
  for (uint64_t size : MaybeShrink({4 * kMiB, 16 * kMiB, 64 * kMiB, 256 * kMiB, 1 * kGiB})) {
    Row row{.size = size,
            .eager = Measure(size, ZeroPolicy::kEagerZero),
            .epoch = Measure(size, ZeroPolicy::kZeroEpoch)};
    table.AddRow({SizeLabel(size), Table::Num(row.eager.alloc_us),
                  Table::Num(row.epoch.alloc_us),
                  Table::Num(row.epoch.alloc_us > 0 ? row.eager.alloc_us / row.epoch.alloc_us
                                                    : 0),
                  Table::Num(row.eager.alloc_plus_touch_us),
                  Table::Num(row.epoch.alloc_plus_touch_us),
                  Table::Num(row.epoch.background_us)});
  }
  json.Emit(table);

  Table anon(
      "DRAM-side zeroing: anonymous fault path, inline Zero() vs per-CPU cache + "
      "pre-zeroed pool (64 MiB of first-touch writes)");
  anon.AddRow({"mode", "us/fault", "from pcp", "from buddy", "prezero hits",
               "prezero misses", "hit rate", "background us"});
  const uint64_t anon_bytes = BenchSmall() ? 16 * kMiB : 64 * kMiB;
  for (bool fast_paths : {false, true}) {
    const AnonZeroing a = MeasureAnonFaults(anon_bytes, fast_paths);
    const uint64_t zeroed = a.prezero_hits + a.prezero_misses;
    anon.AddRow({fast_paths ? "pcp+prezero" : "inline zero", Table::Num(a.us_per_fault),
                 Table::Int(a.from_pcp), Table::Int(a.from_buddy), Table::Int(a.prezero_hits),
                 Table::Int(a.prezero_misses),
                 Table::Num(zeroed > 0 ? static_cast<double>(a.prezero_hits) /
                                             static_cast<double>(zeroed)
                                       : 0),
                 Table::Num(a.background_us)});
  }
  json.Emit(anon);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_zeroing", {}, o1mem::Run);
}
