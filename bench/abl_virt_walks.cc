// Ablation (Sec. 2): "Intel recently introduced 5-level address translation,
// which can address 4PB of physical memory but requires up to 35 memory
// references in virtualized systems."
//
// Cold-walk translation cost across the page-table configurations, against
// a range translation whose cost never grows with depth or virtualization.
#include "bench/common.h"

#include "src/support/rng.h"

namespace o1mem {
namespace {

struct WalkCosts {
  double ns_per_access;
  uint64_t walk_refs;
};

// Random accesses over a large per-page-mapped region; TLB and PWC thrash,
// so almost every access is a cold walk.
WalkCosts MeasurePageWalks(int depth, bool virtualized) {
  MachineConfig config;
  config.dram_bytes = 2 * kGiB;
  config.nvm_bytes = 0;
  config.page_table_depth = depth;
  config.cost.virtualized_walks = virtualized;
  Machine machine(config);
  auto as = machine.CreateAddressSpace();
  constexpr uint64_t kBytes = 1 * kGiB;
  for (uint64_t off = 0; off < kBytes; off += kPageSize) {
    O1_CHECK(as->page_table().MapPage(off, off, kPageSize, Prot::kRead).ok());
  }
  Rng rng(5);
  constexpr int kAccesses = 32768;
  const uint64_t t0 = machine.ctx().now();
  for (int i = 0; i < kAccesses; ++i) {
    O1_CHECK(machine.mmu()
                 .Touch(*as, AlignDown(rng.NextBelow(kBytes), 64), 1, AccessType::kRead)
                 .ok());
  }
  return WalkCosts{
      .ns_per_access =
          machine.ctx().clock().CyclesToNs(machine.ctx().now() - t0) / kAccesses,
      .walk_refs = config.cost.WalkRefs(depth)};
}

WalkCosts MeasureRange(bool virtualized) {
  MachineConfig config;
  config.dram_bytes = 2 * kGiB;
  config.nvm_bytes = 0;
  config.cost.virtualized_walks = virtualized;
  Machine machine(config);
  auto as = machine.CreateAddressSpace();
  constexpr uint64_t kBytes = 1 * kGiB;
  O1_CHECK(as->range_table()
               .Insert({.vbase = 0, .bytes = kBytes, .pbase = 0, .prot = Prot::kRead})
               .ok());
  Rng rng(5);
  constexpr int kAccesses = 32768;
  const uint64_t t0 = machine.ctx().now();
  for (int i = 0; i < kAccesses; ++i) {
    O1_CHECK(machine.mmu()
                 .Touch(*as, AlignDown(rng.NextBelow(kBytes), 64), 1, AccessType::kRead)
                 .ok());
  }
  return WalkCosts{
      .ns_per_access =
          machine.ctx().clock().CyclesToNs(machine.ctx().now() - t0) / kAccesses,
      .walk_refs = 0};
}

void Run(BenchJson& json, const BenchArgs&) {
  const WalkCosts native4 = MeasurePageWalks(4, false);
  const WalkCosts native5 = MeasurePageWalks(5, false);
  const WalkCosts virt4 = MeasurePageWalks(4, true);
  const WalkCosts virt5 = MeasurePageWalks(5, true);
  const WalkCosts range = MeasureRange(false);
  const WalkCosts range_virt = MeasureRange(true);

  Table table(
      "Ablation: cold-walk translation cost -- 4/5-level, native/virtualized, vs range "
      "translation (random 64B reads over 1 GiB)");
  table.AddRow({"configuration", "walk refs", "ns/access"});
  table.AddRow({"4-level native", Table::Int(native4.walk_refs),
                Table::Num(native4.ns_per_access)});
  table.AddRow({"5-level native", Table::Int(native5.walk_refs),
                Table::Num(native5.ns_per_access)});
  table.AddRow({"4-level virtualized", Table::Int(virt4.walk_refs),
                Table::Num(virt4.ns_per_access)});
  table.AddRow({"5-level virtualized (paper: 35 refs)", Table::Int(virt5.walk_refs),
                Table::Num(virt5.ns_per_access)});
  table.AddRow({"range translation", Table::Int(range.walk_refs),
                Table::Num(range.ns_per_access)});
  table.AddRow({"range translation, virtualized", Table::Int(range_virt.walk_refs),
                Table::Num(range_virt.ns_per_access)});
  json.Emit(table);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_virt_walks", {}, o1mem::Run);
}
