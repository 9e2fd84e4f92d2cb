// Figure 3: efficient shared mappings. P processes map the same 256 MiB
// PMFS file. Baseline builds per-process page tables (per-page PTE writes
// for every process); FOM's pre-created tables are spliced, so every process
// after the first shares the same physical page-table nodes and pays only
// O(windows) pointer stores.
//
// Reported per P: time for the P-th process to map, cumulative page-table
// nodes allocated machine-wide, and cumulative PTE writes.
#include "bench/common.h"

namespace o1mem {
namespace {

constexpr uint64_t kFileBytes = 256 * kMiB;

struct Row {
  int procs;
  double baseline_us;   // P-th process map time, baseline populate
  uint64_t baseline_nodes;
  uint64_t baseline_ptes;
  double fom_us;        // P-th process map time, FOM splice
  uint64_t fom_nodes;
  uint64_t fom_ptes;
};

void Run(BenchJson& json, const BenchArgs&) {
  const std::vector<int> proc_counts = {1, 2, 4, 8, 16, 32};
  std::vector<Row> rows;

  // Baseline: per-process mmap(MAP_POPULATE) of the same file.
  {
    System sys(BenchConfig());
    auto setup = sys.Launch(Backend::kBaseline);
    O1_CHECK(setup.ok());
    auto fd0 = sys.Creat(**setup, sys.pmfs(), "/shared/file", FileFlags{});
    O1_CHECK(fd0.ok());
    O1_CHECK(sys.Ftruncate(**setup, *fd0, kFileBytes).ok());
    uint64_t map_nodes = 0;
    uint64_t map_ptes = 0;
    int launched = 0;
    for (int target : proc_counts) {
      double last_us = 0;
      while (launched < target) {
        auto proc = sys.Launch(Backend::kBaseline);
        O1_CHECK(proc.ok());
        auto fd = sys.Open(**proc, "/shared/file");
        O1_CHECK(fd.ok());
        const EventCounters before = sys.ctx().counters();
        SimTimer timer(sys);
        O1_CHECK(sys.Mmap(**proc, MmapArgs{.length = kFileBytes, .populate = true, .fd = *fd})
                     .ok());
        last_us = timer.ElapsedUs();
        const EventCounters delta = sys.ctx().counters().Delta(before);
        map_nodes += delta.pt_nodes_allocated;
        map_ptes += delta.ptes_written;
        ++launched;
      }
      rows.push_back(Row{.procs = target,
                         .baseline_us = last_us,
                         .baseline_nodes = map_nodes,
                         .baseline_ptes = map_ptes});
    }
  }

  // FOM: splice mapping of the same segment; tables built once.
  {
    System sys(BenchConfig());
    auto seg = sys.fom().CreateSegment("/shared/seg", kFileBytes);
    O1_CHECK(seg.ok());
    uint64_t map_nodes = 0;
    uint64_t map_ptes = 0;
    int launched = 0;
    size_t i = 0;
    for (int target : proc_counts) {
      double last_us = 0;
      while (launched < target) {
        auto proc = sys.Launch(Backend::kFom);
        O1_CHECK(proc.ok());
        const EventCounters before = sys.ctx().counters();
        SimTimer timer(sys);
        O1_CHECK(sys.fom()
                     .Map((*proc)->fom(), *seg, Prot::kReadWrite,
                          MapOptions{.mechanism = MapMechanism::kPtSplice})
                     .ok());
        last_us = timer.ElapsedUs();
        const EventCounters delta = sys.ctx().counters().Delta(before);
        map_nodes += delta.pt_nodes_allocated;
        map_ptes += delta.ptes_written;
        ++launched;
      }
      rows[i].fom_us = last_us;
      rows[i].fom_nodes = map_nodes;
      rows[i].fom_ptes = map_ptes;
      ++i;
    }
  }

  Table table(
      "Figure 3: P processes map the same 256 MiB file (map time of the P-th process; "
      "cumulative PT nodes / PTE writes for the file)");
  table.AddRow({"P", "baseline us", "baseline PT nodes", "baseline PTEs", "fom splice us",
                "fom PT nodes", "fom PTEs"});
  for (const Row& row : rows) {
    table.AddRow({Table::Int(static_cast<uint64_t>(row.procs)), Table::Num(row.baseline_us),
                  Table::Int(row.baseline_nodes), Table::Int(row.baseline_ptes),
                  Table::Num(row.fom_us), Table::Int(row.fom_nodes),
                  Table::Int(row.fom_ptes)});
  }
  json.Emit(table);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "fig3_shared_mappings", {}, o1mem::Run);
}
