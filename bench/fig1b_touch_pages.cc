// Figure 1b / 6b: total time to access one byte of each page of a mapped
// tmpfs file -- pre-populated mapping vs demand faulting -- plus the
// page-fault counts (the corroborating report's fault-count plot).
//
// Paper shape: populate-read near zero and flat-ish; demand-read linear and
// ">50x" the populated cost at large sizes (each touch pays a minor fault).
// The FOM series shows whole-file mapping: no faults, same warm access cost
// as populate without the populate-time linear cost.
#include "bench/common.h"

namespace o1mem {
namespace {

struct TouchResult {
  double us = 0;
  uint64_t faults = 0;
};

TouchResult BaselineTouchUs(uint64_t file_bytes, bool populate) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  auto fd = sys.Creat(**proc, sys.tmpfs(), "/bench/file", FileFlags{});
  O1_CHECK(fd.ok());
  O1_CHECK(sys.Ftruncate(**proc, *fd, file_bytes).ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = file_bytes, .populate = populate, .fd = *fd});
  O1_CHECK(vaddr.ok());
  const uint64_t faults_before =
      sys.ctx().counters().minor_faults + sys.ctx().counters().major_faults;
  SimTimer timer(sys);
  for (uint64_t off = 0; off < file_bytes; off += kPageSize) {
    O1_CHECK(sys.UserTouch(**proc, *vaddr + off, 1, AccessType::kRead).ok());
  }
  TouchResult result;
  result.us = timer.ElapsedUs();
  result.faults =
      sys.ctx().counters().minor_faults + sys.ctx().counters().major_faults - faults_before;
  return result;
}

TouchResult FomTouchUs(uint64_t file_bytes) {
  System sys(BenchConfig());
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = file_bytes});
  O1_CHECK(vaddr.ok());
  const uint64_t faults_before = sys.ctx().counters().minor_faults;
  SimTimer timer(sys);
  for (uint64_t off = 0; off < file_bytes; off += kPageSize) {
    O1_CHECK(sys.UserTouch(**proc, *vaddr + off, 1, AccessType::kRead).ok());
  }
  TouchResult result;
  result.us = timer.ElapsedUs();
  result.faults = sys.ctx().counters().minor_faults - faults_before;
  return result;
}

struct Row {
  uint64_t size;
  TouchResult demand, populate, fom;
};

void Run(BenchJson& json, const BenchArgs&) {
  std::vector<Row> rows;
  for (uint64_t size : FileSizeSweep()) {
    rows.push_back(Row{.size = size,
                       .demand = BaselineTouchUs(size, false),
                       .populate = BaselineTouchUs(size, true),
                       .fom = FomTouchUs(size)});
  }

  Table table(
      "Figure 1b/6b: touch 1 byte/page after mmap on tmpfs (simulated us; paper: demand "
      ">50x populate at large sizes)");
  table.AddRow({"size", "demand us", "populate us", "fom us", "demand/populate", "demand faults",
                "populate faults", "fom faults"});
  for (const Row& row : rows) {
    table.AddRow({SizeLabel(row.size), Table::Num(row.demand.us), Table::Num(row.populate.us),
                  Table::Num(row.fom.us),
                  Table::Num(row.populate.us > 0 ? row.demand.us / row.populate.us : 0),
                  Table::Int(row.demand.faults), Table::Int(row.populate.faults),
                  Table::Int(row.fom.faults)});
  }
  json.Emit(table);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "fig1b_touch_pages", {}, o1mem::Run);
}
