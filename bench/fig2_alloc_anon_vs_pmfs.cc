// Figure 2 / 7: time to allocate N pages of memory and write one byte to
// each -- anonymous memory (malloc/MAP_ANONYMOUS) vs allocating through a
// file in the PMFS persistent-memory file system.
//
// Paper shape: the two curves track each other closely across 1..16k pages
// ("using the file system to allocate memory has little extra cost").
// The FOM series adds the paper's endgame: whole-file allocation + O(1)
// mapping drops the per-page mapping work entirely (the remaining slope is
// the unavoidable cost of actually writing the pages).
//
// Ablation (Sec. 3.1 "slab allocators"): the last column allocates the same
// total bytes as small slab objects instead of bitmap extents.
#include "bench/common.h"

#include "src/fom/slab_phys.h"

namespace o1mem {
namespace {

// Anonymous-memory path: mmap(MAP_ANON) then touch every page (faults).
double AnonUs(uint64_t pages) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  SimTimer timer(sys);
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = pages * kPageSize});
  O1_CHECK(vaddr.ok());
  for (uint64_t p = 0; p < pages; ++p) {
    O1_CHECK(sys.UserTouch(**proc, *vaddr + p * kPageSize, 1, AccessType::kWrite).ok());
  }
  return timer.ElapsedUs();
}

// PMFS-file path: create + size the file, mmap it, touch every page.
double PmfsUs(uint64_t pages) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  SimTimer timer(sys);
  auto fd = sys.Creat(**proc, sys.pmfs(), "/bench/alloc", FileFlags{});
  O1_CHECK(fd.ok());
  O1_CHECK(sys.Ftruncate(**proc, *fd, pages * kPageSize).ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = pages * kPageSize, .fd = *fd});
  O1_CHECK(vaddr.ok());
  for (uint64_t p = 0; p < pages; ++p) {
    O1_CHECK(sys.UserTouch(**proc, *vaddr + p * kPageSize, 1, AccessType::kWrite).ok());
  }
  return timer.ElapsedUs();
}

// FOM path: segment file + O(1) range map, then the same page writes.
double FomUs(uint64_t pages) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  SimTimer timer(sys);
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = pages * kPageSize});
  O1_CHECK(vaddr.ok());
  for (uint64_t p = 0; p < pages; ++p) {
    O1_CHECK(sys.UserTouch(**proc, *vaddr + p * kPageSize, 1, AccessType::kWrite).ok());
  }
  return timer.ElapsedUs();
}

// Physical-allocation ablation: same bytes as one bitmap extent vs slab
// objects vs buddy frames (no mapping/writing; isolates the allocator).
struct PhysAllocCosts {
  double extent_us, slab_us, buddy_us;
};

PhysAllocCosts PhysAlloc(uint64_t pages) {
  SimContext ctx;
  BlockBitmap bitmap(&ctx, 1 << 22);
  const uint64_t t0 = ctx.now();
  O1_CHECK(bitmap.AllocExtent(pages).ok());
  const uint64_t extent = ctx.now() - t0;

  BlockBitmap slab_bitmap(&ctx, 1 << 22);
  SlabPhysAllocator slab(&ctx, &slab_bitmap, 0);
  const uint64_t t1 = ctx.now();
  for (uint64_t p = 0; p < pages; ++p) {
    O1_CHECK(slab.Alloc(kPageSize).ok());
  }
  const uint64_t slab_cycles = ctx.now() - t1;

  BuddyAllocator buddy(&ctx, 0, (uint64_t{1} << 22) * kPageSize);
  const uint64_t t2 = ctx.now();
  for (uint64_t p = 0; p < pages; ++p) {
    O1_CHECK(buddy.AllocFrame().ok());
  }
  const uint64_t buddy_cycles = ctx.now() - t2;

  return PhysAllocCosts{.extent_us = ctx.clock().CyclesToUs(extent),
                        .slab_us = ctx.clock().CyclesToUs(slab_cycles),
                        .buddy_us = ctx.clock().CyclesToUs(buddy_cycles)};
}

struct Row {
  uint64_t pages;
  double anon, pmfs, fom;
  PhysAllocCosts phys;
};

void Run(BenchJson& json, const BenchArgs&) {
  std::vector<Row> rows;
  for (int pages : {1, 2, 4, 16, 64, 256, 1024, 4096, 16384}) {
    const auto n = static_cast<uint64_t>(pages);
    rows.push_back(Row{.pages = n,
                       .anon = AnonUs(n),
                       .pmfs = PmfsUs(n),
                       .fom = FomUs(n),
                       .phys = PhysAlloc(n)});
  }

  Table table(
      "Figure 2/7: allocate N pages + write each (simulated us; paper: pmfs tracks malloc)");
  table.AddRow({"pages", "anon (malloc)", "pmfs file", "pmfs/anon", "fom O(1)",
                "extent alloc", "slab alloc", "buddy alloc"});
  for (const Row& row : rows) {
    table.AddRow({Table::Int(row.pages), Table::Num(row.anon), Table::Num(row.pmfs),
                  Table::Num(row.anon > 0 ? row.pmfs / row.anon : 0), Table::Num(row.fom),
                  Table::Num(row.phys.extent_us), Table::Num(row.phys.slab_us),
                  Table::Num(row.phys.buddy_us)});
  }
  json.Emit(table);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "fig2_alloc_anon_vs_pmfs", {}, o1mem::Run);
}
