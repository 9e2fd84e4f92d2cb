// Figure 1a / 6a: cost of an mmap() call on tmpfs (and on a DAX persistent-
// memory fs), demand-paged (MAP_PRIVATE) vs pre-populated (MAP_POPULATE),
// as file size grows.
//
// Paper shape: MAP_PRIVATE flat (~8 us tmpfs, ~15 us DAX); MAP_POPULATE
// linear in file size (~1 us/page). The extra FOM series shows the paper's
// fix: whole-file O(1) mapping stays flat at any size.
#include "bench/common.h"

namespace o1mem {
namespace {

double BaselineMmapUs(uint64_t file_bytes, bool populate, bool dax) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  FileSystem& fs =
      dax ? static_cast<FileSystem&>(sys.pmfs()) : static_cast<FileSystem&>(sys.tmpfs());
  auto fd = sys.Creat(**proc, fs, "/bench/file", FileFlags{.persistent = dax});
  O1_CHECK(fd.ok());
  O1_CHECK(sys.Ftruncate(**proc, *fd, file_bytes).ok());
  SimTimer timer(sys);
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = file_bytes, .populate = populate, .fd = *fd});
  O1_CHECK(vaddr.ok());
  return timer.ElapsedUs();
}

double FomMapUs(uint64_t file_bytes, MapMechanism mech) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto seg = sys.fom().CreateSegment("/bench/seg", file_bytes);
  O1_CHECK(seg.ok());
  SimTimer timer(sys);
  auto vaddr = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite,
                             MapOptions{.mechanism = mech});
  O1_CHECK(vaddr.ok());
  return timer.ElapsedUs();
}

struct Row {
  uint64_t size;
  double tmpfs_demand, tmpfs_populate, dax_demand, dax_populate, fom_range, fom_splice;
};

std::vector<Row> RunSweep() {
  std::vector<Row> rows;
  for (uint64_t size : FileSizeSweep()) {
    rows.push_back(Row{.size = size,
                       .tmpfs_demand = BaselineMmapUs(size, false, false),
                       .tmpfs_populate = BaselineMmapUs(size, true, false),
                       .dax_demand = BaselineMmapUs(size, false, true),
                       .dax_populate = BaselineMmapUs(size, true, true),
                       .fom_range = FomMapUs(size, MapMechanism::kRangeTable),
                       .fom_splice = FomMapUs(size, MapMechanism::kPtSplice)});
  }
  return rows;
}

void Run(BenchJson& json, const BenchArgs&) {
  const std::vector<Row> rows = RunSweep();
  Table table(
      "Figure 1a/6a: mmap() cost vs file size (simulated us; paper: demand flat, populate "
      "linear)");
  table.AddRow({"size", "tmpfs demand", "tmpfs populate", "dax demand", "dax populate",
                "fom range", "fom splice"});
  for (const Row& row : rows) {
    table.AddRow({SizeLabel(row.size), Table::Num(row.tmpfs_demand),
                  Table::Num(row.tmpfs_populate), Table::Num(row.dax_demand),
                  Table::Num(row.dax_populate), Table::Num(row.fom_range),
                  Table::Num(row.fom_splice)});
  }
  json.Emit(table);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "fig1a_mmap_cost", {}, o1mem::Run);
}
