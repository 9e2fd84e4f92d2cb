// Ablation (Sec. 3 "Order(1) Memory"): large pages help but are not enough.
// "Intel and ARM processors support only a few page sizes, and large pages
// have alignment restrictions ... When swapping pages in or out, 2MB pages
// are expensive to swap and Linux instead fragments them into 4KB pages."
//
// Part 1: populate + touch a region with 4 KiB pages vs 2 MiB pages vs FOM
//         range mapping (ops, faults, TLB behaviour).
// Part 2: the swap path -- evicting from a 2 MiB-backed region forces a
//         split whose per-page cost erases much of the huge-page win.
#include "bench/common.h"

#include "src/support/rng.h"

namespace o1mem {
namespace {

struct TouchCosts {
  double populate_us;
  double touch_us;   // sparse: one line per 2 MiB region, TLB-hostile
  uint64_t tlb_misses;
  uint64_t ptes;
};

TouchCosts MeasureBaseline(uint64_t bytes, bool large) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  const EventCounters before_map = sys.ctx().counters();
  SimTimer timer(sys);
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = bytes, .populate = true,
                                         .large_pages = large});
  O1_CHECK(vaddr.ok());
  TouchCosts costs;
  costs.populate_us = timer.ElapsedUs();
  costs.ptes = sys.ctx().counters().Delta(before_map).ptes_written;
  // Sparse scan: one access per 2 MiB -- the TLB-reach problem.
  Rng rng(11);
  const EventCounters before_touch = sys.ctx().counters();
  timer.Restart();
  for (int round = 0; round < 8; ++round) {
    for (uint64_t off = 0; off < bytes; off += kLargePageSize) {
      O1_CHECK(sys.UserTouch(**proc, *vaddr + off + rng.NextBelow(kPageSize), 1,
                             AccessType::kRead)
                   .ok());
    }
  }
  costs.touch_us = timer.ElapsedUs();
  costs.tlb_misses = sys.ctx().counters().Delta(before_touch).tlb_misses;
  return costs;
}

TouchCosts MeasureFom(uint64_t bytes, ZeroPolicy zero_policy) {
  SystemConfig config = BenchConfig();
  config.fom.precreate_page_tables = false;
  config.pmfs_zero_policy = zero_policy;
  System sys(config);
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  const EventCounters before_map = sys.ctx().counters();
  SimTimer timer(sys);
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = bytes,
                                         .mechanism = MapMechanism::kRangeTable});
  O1_CHECK(vaddr.ok());
  TouchCosts costs;
  costs.populate_us = timer.ElapsedUs();
  costs.ptes = sys.ctx().counters().Delta(before_map).ptes_written;
  Rng rng(11);
  const EventCounters before_touch = sys.ctx().counters();
  timer.Restart();
  for (int round = 0; round < 8; ++round) {
    for (uint64_t off = 0; off < bytes; off += kLargePageSize) {
      O1_CHECK(sys.UserTouch(**proc, *vaddr + off + rng.NextBelow(kPageSize), 1,
                             AccessType::kRead)
                   .ok());
    }
  }
  costs.touch_us = timer.ElapsedUs();
  costs.tlb_misses = sys.ctx().counters().Delta(before_touch).tlb_misses;
  return costs;
}

struct SwapCosts {
  double evict_us;    // evict 64 pages' worth of memory
  uint64_t ptes_written;
};

SwapCosts MeasureSwap(bool large) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = 64 * kMiB, .populate = true,
                                         .large_pages = large});
  O1_CHECK(vaddr.ok());
  for (uint64_t off = 0; off < 64 * kMiB; off += kPageSize) {
    (*proc)->pager().TestAndClearReferenced(*vaddr + off);
  }
  const EventCounters before = sys.ctx().counters();
  SimTimer timer(sys);
  // Evict 64 scattered 4 KiB pages, one per 2 MiB region: under huge pages
  // every eviction splits a 2 MiB page first.
  for (int i = 0; i < 32; ++i) {
    O1_CHECK(
        (*proc)->pager().SwapOutPage(*vaddr + static_cast<uint64_t>(i) * kLargePageSize).ok());
  }
  return SwapCosts{.evict_us = timer.ElapsedUs(),
                   .ptes_written = sys.ctx().counters().Delta(before).ptes_written};
}

void Run(BenchJson& json, const BenchArgs&) {
  constexpr uint64_t kBytes = 512 * kMiB;
  const TouchCosts small = MeasureBaseline(kBytes, false);
  const TouchCosts large = MeasureBaseline(kBytes, true);
  const TouchCosts fom = MeasureFom(kBytes, ZeroPolicy::kEagerZero);
  const TouchCosts fom_bg = MeasureFom(kBytes, ZeroPolicy::kZeroEpoch);

  Table table("Ablation: 4K pages vs 2M pages vs range mapping over 512 MiB (simulated)");
  table.AddRow({"config", "alloc+map us", "PTE/leaf writes", "sparse scan us", "TLB misses"});
  table.AddRow({"4K pages", Table::Num(small.populate_us), Table::Int(small.ptes),
                Table::Num(small.touch_us), Table::Int(small.tlb_misses)});
  table.AddRow({"2M pages", Table::Num(large.populate_us), Table::Int(large.ptes),
                Table::Num(large.touch_us), Table::Int(large.tlb_misses)});
  table.AddRow({"fom range (eager zero)", Table::Num(fom.populate_us), Table::Int(fom.ptes),
                Table::Num(fom.touch_us), Table::Int(fom.tlb_misses)});
  table.AddRow({"fom range (bg zero)", Table::Num(fom_bg.populate_us), Table::Int(fom_bg.ptes),
                Table::Num(fom_bg.touch_us), Table::Int(fom_bg.tlb_misses)});
  json.Emit(table);

  const SwapCosts swap4k = MeasureSwap(false);
  const SwapCosts swap2m = MeasureSwap(true);
  Table swap_table(
      "Ablation part 2: evict 32 scattered 4 KiB pages (2M pages split before swapping)");
  swap_table.AddRow({"config", "evict us", "PTEs written during eviction"});
  swap_table.AddRow({"4K pages", Table::Num(swap4k.evict_us), Table::Int(swap4k.ptes_written)});
  swap_table.AddRow({"2M pages", Table::Num(swap2m.evict_us), Table::Int(swap2m.ptes_written)});
  json.Emit(swap_table);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_hugepages", {}, o1mem::Run);
}
