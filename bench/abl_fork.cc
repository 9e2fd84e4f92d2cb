// Ablation: fork() under the two models.
//
// The baseline does the classic copy-on-write fork: every resident page gets
// write-protected and mapped into the child (O(resident pages)), and each
// subsequent first write pays a COW break. File-only memory gives up COW
// (Sec. 3.1) and forks by remapping the same segment files (O(mappings),
// shared memory semantics).
#include "bench/common.h"

namespace o1mem {
namespace {

struct ForkCosts {
  double fork_us;
  double first_writes_us;  // child writes 64 scattered pages after fork
};

ForkCosts MeasureBaseline(uint64_t bytes) {
  System sys(BenchConfig());
  auto parent = sys.Launch(Backend::kBaseline);
  O1_CHECK(parent.ok());
  auto vaddr = sys.Mmap(**parent, MmapArgs{.length = bytes, .populate = true});
  O1_CHECK(vaddr.ok());
  SimTimer timer(sys);
  auto child = sys.Fork(**parent);
  O1_CHECK(child.ok());
  ForkCosts costs;
  costs.fork_us = timer.ElapsedUs();
  timer.Restart();
  const uint64_t stride = bytes / 64;
  for (int i = 0; i < 64; ++i) {
    const uint8_t value = 1;
    O1_CHECK(sys.UserWrite(**child, *vaddr + static_cast<uint64_t>(i) * stride,
                           std::span<const uint8_t>(&value, 1))
                 .ok());
  }
  costs.first_writes_us = timer.ElapsedUs();
  return costs;
}

ForkCosts MeasureFom(uint64_t bytes) {
  System sys(BenchConfig());
  auto parent = sys.Launch(Backend::kFom);
  O1_CHECK(parent.ok());
  auto vaddr = sys.Mmap(**parent, MmapArgs{.length = bytes});
  O1_CHECK(vaddr.ok());
  SimTimer timer(sys);
  auto child = sys.Fork(**parent);
  O1_CHECK(child.ok());
  ForkCosts costs;
  costs.fork_us = timer.ElapsedUs();
  timer.Restart();
  const uint64_t stride = bytes / 64;
  for (int i = 0; i < 64; ++i) {
    const uint8_t value = 1;
    O1_CHECK(sys.UserWrite(**child, *vaddr + static_cast<uint64_t>(i) * stride,
                           std::span<const uint8_t>(&value, 1))
                 .ok());
  }
  costs.first_writes_us = timer.ElapsedUs();
  return costs;
}

void Run(BenchJson& json, const BenchArgs&) {
  Table table(
      "Ablation: fork() cost vs resident size -- baseline COW fork (O(pages)) vs FOM "
      "share-on-fork (O(mappings))");
  table.AddRow({"resident", "baseline fork us", "fom fork us", "ratio",
                "baseline 64 first-writes us", "fom 64 writes us"});
  struct Row {
    uint64_t size;
    ForkCosts baseline, fom;
  };
  for (uint64_t size : MaybeShrink({4 * kMiB, 16 * kMiB, 64 * kMiB, 256 * kMiB, 1 * kGiB})) {
    Row row{.size = size, .baseline = MeasureBaseline(size), .fom = MeasureFom(size)};
    table.AddRow({SizeLabel(size), Table::Num(row.baseline.fork_us),
                  Table::Num(row.fom.fork_us),
                  Table::Num(row.fom.fork_us > 0 ? row.baseline.fork_us / row.fom.fork_us : 0),
                  Table::Num(row.baseline.first_writes_us),
                  Table::Num(row.fom.first_writes_us)});
  }
  json.Emit(table);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_fork", {}, o1mem::Run);
}
