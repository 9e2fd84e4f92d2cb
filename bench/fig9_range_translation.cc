// Figures 4/5/9: range translations. One BASE/LIMIT/OFFSET entry maps an
// arbitrarily long contiguous extent, so map and unmap are O(1) regardless
// of size, unmap is one entry + one TLB shootdown, and sparse accesses over
// huge data hit the range TLB where a page TLB would thrash.
//
// Part 1 (mapping ops): map / protect / unmap cost vs mapped size for the
// three mechanisms (per-page PTEs, pre-created-subtree splice, range entry).
// Part 2 (translation): 64k random single-line reads over a 1 GiB mapping,
// page TLB vs range TLB -- per-access cost and TLB miss counts.
#include "bench/common.h"

#include "src/support/rng.h"

namespace o1mem {
namespace {

struct OpCosts {
  double map_us, protect_us, unmap_us;
};

OpCosts MeasureOps(uint64_t bytes, MapMechanism mech) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto seg = sys.fom().CreateSegment("/bench/seg", bytes,
                                     SegmentOptions{.require_single_extent = true});
  O1_CHECK(seg.ok());
  SimTimer timer(sys);
  auto vaddr = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite,
                             MapOptions{.mechanism = mech});
  O1_CHECK(vaddr.ok());
  OpCosts costs;
  costs.map_us = timer.ElapsedUs();
  timer.Restart();
  O1_CHECK(sys.fom().Protect((*proc)->fom(), *vaddr, Prot::kRead).ok());
  costs.protect_us = timer.ElapsedUs();
  timer.Restart();
  O1_CHECK(sys.fom().Unmap((*proc)->fom(), *vaddr).ok());
  costs.unmap_us = timer.ElapsedUs();
  return costs;
}

struct AccessCosts {
  double ns_per_access;
  uint64_t tlb_misses;
  uint64_t range_hits;
  uint64_t page_walks;
};

AccessCosts MeasureAccess(MapMechanism mech) {
  constexpr uint64_t kBytes = 1 * kGiB;
  constexpr int kAccesses = 65536;
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto seg = sys.fom().CreateSegment("/bench/big", kBytes,
                                     SegmentOptions{.require_single_extent = true});
  O1_CHECK(seg.ok());
  auto vaddr = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite,
                             MapOptions{.mechanism = mech});
  O1_CHECK(vaddr.ok());
  Rng rng(42);
  const EventCounters before = sys.ctx().counters();
  SimTimer timer(sys);
  for (int i = 0; i < kAccesses; ++i) {
    const uint64_t off = AlignDown(rng.NextBelow(kBytes), 64);
    O1_CHECK(sys.UserTouch(**proc, *vaddr + off, 1, AccessType::kRead).ok());
  }
  const EventCounters delta = sys.ctx().counters().Delta(before);
  AccessCosts costs;
  costs.ns_per_access = timer.ElapsedUs() * 1000.0 / kAccesses;
  costs.tlb_misses = delta.tlb_misses;
  costs.range_hits = delta.range_tlb_hits;
  costs.page_walks = delta.page_walks;
  return costs;
}

void Run(BenchJson& json, const BenchArgs&) {
  Table ops(
      "Figure 9 (part 1): map/protect/unmap cost vs size (simulated us) -- per-page vs "
      "splice vs range entry");
  ops.AddRow({"size", "perpage map", "splice map", "range map", "perpage prot", "splice prot",
              "range prot", "perpage unmap", "splice unmap", "range unmap"});
  struct OpRow {
    uint64_t size;
    OpCosts perpage, splice, range;
  };
  for (uint64_t size : MaybeShrink({16 * kMiB, 64 * kMiB, 256 * kMiB, 1 * kGiB, 4 * kGiB})) {
    OpRow row{.size = size,
              .perpage = MeasureOps(size, MapMechanism::kPerPage),
              .splice = MeasureOps(size, MapMechanism::kPtSplice),
              .range = MeasureOps(size, MapMechanism::kRangeTable)};
    ops.AddRow({SizeLabel(size), Table::Num(row.perpage.map_us), Table::Num(row.splice.map_us),
                Table::Num(row.range.map_us), Table::Num(row.perpage.protect_us),
                Table::Num(row.splice.protect_us), Table::Num(row.range.protect_us),
                Table::Num(row.perpage.unmap_us), Table::Num(row.splice.unmap_us),
                Table::Num(row.range.unmap_us)});
  }
  json.Emit(ops);

  Table access(
      "Figure 9 (part 2): 64k random 64B reads over 1 GiB -- page TLB vs range TLB");
  access.AddRow({"mechanism", "ns/access", "tlb misses", "range TLB hits", "page walks"});
  const AccessCosts page_costs = MeasureAccess(MapMechanism::kPerPage);
  const AccessCosts range_costs = MeasureAccess(MapMechanism::kRangeTable);
  access.AddRow({"4K pages", Table::Num(page_costs.ns_per_access),
                 Table::Int(page_costs.tlb_misses), Table::Int(page_costs.range_hits),
                 Table::Int(page_costs.page_walks)});
  access.AddRow({"range translation", Table::Num(range_costs.ns_per_access),
                 Table::Int(range_costs.tlb_misses), Table::Int(range_costs.range_hits),
                 Table::Int(range_costs.page_walks)});
  json.Emit(access);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "fig9_range_translation", {}, o1mem::Run);
}
