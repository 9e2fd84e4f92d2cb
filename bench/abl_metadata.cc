// Ablation (Sec. 2 "Cost of memory management"): per-page metadata is linear
// in physical memory ("the Linux PAGE structure has 25 separate flags and 38
// fields"), while file-system metadata is per-file/per-extent.
//
// Reported per DRAM size: struct-page array bytes and its boot-time
// initialization cost, versus the metadata FOM needs to manage the same
// bytes as 64 extent-backed files (inodes + extent records), with the
// optional pre-created page tables priced separately (they are 0.2 % of the
// data and shared by all mappers).
#include "bench/common.h"

namespace o1mem {
namespace {

struct Row {
  uint64_t dram;
  uint64_t struct_page_bytes;
  double struct_page_init_us;
  uint64_t fom_meta_bytes;
  uint64_t precreated_table_bytes;
};

Row Measure(uint64_t dram_bytes) {
  Row row{.dram = dram_bytes};
  {
    // Baseline: one struct page per frame, initialized at boot.
    SimContext ctx;
    PageMetaArray memmap(&ctx, 0, dram_bytes);
    row.struct_page_bytes = memmap.metadata_bytes();
    row.struct_page_init_us = ctx.clock().CyclesToUs(memmap.init_cycles());
  }
  {
    // FOM: the same bytes as 64 files. Metadata = inode + extent records.
    SystemConfig config;
    config.machine.dram_bytes = 256 * kMiB;
    config.machine.nvm_bytes = dram_bytes + 256 * kMiB;
    System sys(config);
    constexpr int kFiles = 64;
    const uint64_t per_file = dram_bytes / kFiles;
    uint64_t extent_records = 0;
    for (int f = 0; f < kFiles; ++f) {
      auto seg = sys.fom().CreateSegment("/data/f" + std::to_string(f), per_file);
      O1_CHECK(seg.ok());
      extent_records += sys.pmfs().Stat(*seg)->extent_count;
    }
    // Sizing: an inode is ~256 B on disk; an extent record 12 B (ext4).
    row.fom_meta_bytes = kFiles * 256 + extent_records * 12;
    // Pre-created tables: 2 sets x one 4 KiB node per 2 MiB window.
    row.precreated_table_bytes = sys.fom().precreated_node_count() * kPageSize;
    CaptureOccupancy(sys);
  }
  return row;
}

void Run(BenchJson& json, const BenchArgs&) {
  Table table(
      "Ablation: metadata to manage M bytes -- per-page struct page vs FOM per-file "
      "(64 files)");
  table.AddRow({"memory", "struct-page bytes", "boot init us", "fom meta bytes",
                "page/file ratio", "precreated tables bytes"});
  std::vector<Row> rows;
  for (uint64_t dram : {1 * kGiB, 2 * kGiB, 4 * kGiB, 8 * kGiB}) {
    Row row = Measure(dram);
    rows.push_back(row);
    table.AddRow({SizeLabel(row.dram), Table::Int(row.struct_page_bytes),
                  Table::Num(row.struct_page_init_us), Table::Int(row.fom_meta_bytes),
                  Table::Num(static_cast<double>(row.struct_page_bytes) /
                             static_cast<double>(row.fom_meta_bytes)),
                  Table::Int(row.precreated_table_bytes)});
  }
  json.Emit(table);
  std::printf(
      "\nExtrapolation: at 6 TB (the paper's 2-socket 3D XPoint server) struct page costs "
      "%.1f GiB of DRAM and %.1f ms of boot-time init; FOM's per-file metadata for the same "
      "bytes is O(files).\n",
      64.0 * (6.0 * 1024 * 1024 * 1024 * 1024 / 4096) / (1024 * 1024 * 1024),
      rows.back().struct_page_init_us / 1000.0 * (6.0 * kTiB / static_cast<double>(rows.back().dram)));
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_metadata", {}, o1mem::Run);
}
