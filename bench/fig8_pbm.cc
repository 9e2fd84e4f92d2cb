// Figure 8: physically based mappings (Sec. 4.2). Virtual addresses are
// derived from physical addresses (VA = pbm_base + PA), so a file maps at
// the SAME virtual address in every process, with no collisions, which is
// what makes cross-process page-table/range sharing trivially correct.
//
// Measured: F single-extent files mapped into P processes --
//   * PBM: address identity across processes (always 1 distinct VA per
//     file), zero VA collisions, O(1) map;
//   * regular per-process placement: P distinct VAs per file, so mappings
//     cannot share translation structures.
#include "bench/common.h"

#include <set>

namespace o1mem {
namespace {

constexpr uint64_t kFileBytes = 4 * kMiB;

struct Row {
  int procs;
  int files;
  double pbm_map_us_total;
  uint64_t pbm_distinct_vas;   // per file across processes (sum)
  uint64_t pbm_collisions;
  double regular_map_us_total;
  uint64_t regular_distinct_vas;
};

Row RunOne(int procs, int files) {
  Row row{.procs = procs, .files = files};
  // PBM run.
  {
    System sys(BenchConfig());
    std::vector<InodeId> inodes;
    for (int f = 0; f < files; ++f) {
      auto seg = sys.fom().CreateSegment("/pbm/f" + std::to_string(f), kFileBytes,
                                         SegmentOptions{.require_single_extent = true});
      O1_CHECK(seg.ok());
      inodes.push_back(*seg);
    }
    std::vector<Process*> ps;
    for (int p = 0; p < procs; ++p) {
      auto proc = sys.Launch(Backend::kFom);
      O1_CHECK(proc.ok());
      ps.push_back(*proc);
    }
    std::set<Vaddr> file_vas;  // one VA per file; a repeat is a collision
    uint64_t distinct_total = 0;
    uint64_t collisions = 0;
    SimTimer timer(sys);
    for (InodeId inode : inodes) {
      std::set<Vaddr> vas;
      for (Process* p : ps) {
        auto va = sys.fom().Map(p->fom(), inode, Prot::kReadWrite,
                                MapOptions{.mechanism = MapMechanism::kPbm});
        O1_CHECK(va.ok());
        vas.insert(*va);
      }
      distinct_total += vas.size();
      if (!file_vas.insert(*vas.begin()).second) {
        ++collisions;  // two files derived the same VA: impossible by design
      }
    }
    row.pbm_map_us_total = timer.ElapsedUs();
    row.pbm_distinct_vas = distinct_total;
    row.pbm_collisions = collisions;
  }
  // Regular (per-process bump placement) run.
  {
    System sys(BenchConfig());
    std::vector<InodeId> inodes;
    for (int f = 0; f < files; ++f) {
      auto seg = sys.fom().CreateSegment("/reg/f" + std::to_string(f), kFileBytes,
                                         SegmentOptions{.require_single_extent = true});
      O1_CHECK(seg.ok());
      inodes.push_back(*seg);
    }
    std::vector<Process*> ps;
    for (int p = 0; p < procs; ++p) {
      auto proc = sys.Launch(Backend::kFom);
      O1_CHECK(proc.ok());
      ps.push_back(*proc);
    }
    uint64_t distinct_total = 0;
    SimTimer timer(sys);
    for (InodeId inode : inodes) {
      std::set<Vaddr> vas;
      for (Process* p : ps) {
        auto va = sys.fom().Map(p->fom(), inode, Prot::kReadWrite,
                                MapOptions{.mechanism = MapMechanism::kRangeTable});
        O1_CHECK(va.ok());
        vas.insert(*va);
      }
      distinct_total += vas.size();
    }
    row.regular_map_us_total = timer.ElapsedUs();
    row.regular_distinct_vas = distinct_total;
  }
  return row;
}

void Run(BenchJson& json, const BenchArgs&) {
  std::vector<Row> rows;
  for (int procs : {1, 2, 4, 8, 16}) {
    rows.push_back(RunOne(procs, /*files=*/16));
  }

  Table table(
      "Figure 8: physically based mappings -- 16 files x P processes (PBM: same VA "
      "everywhere, collision-free; regular: P VAs per file)");
  table.AddRow({"P", "pbm map us", "pbm distinct VAs", "pbm collisions", "regular map us",
                "regular distinct VAs"});
  for (const Row& row : rows) {
    table.AddRow({Table::Int(static_cast<uint64_t>(row.procs)),
                  Table::Num(row.pbm_map_us_total), Table::Int(row.pbm_distinct_vas),
                  Table::Int(row.pbm_collisions), Table::Num(row.regular_map_us_total),
                  Table::Int(row.regular_distinct_vas)});
  }
  json.Emit(table);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "fig8_pbm", {}, o1mem::Run);
}
