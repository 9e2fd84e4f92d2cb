// Section 3.2/4.3 claim: "we observed that it was faster to make a read()
// system call to read 16KB than to access data already mapped into a
// process if it would cause TLB misses."
//
// Three ways to get 16 KiB of file data, at random 16 KiB-aligned offsets
// in a 1 GiB tmpfs file (pre-populated mapping, so no faults -- this
// isolates translation + copy costs):
//   * read():          one syscall, kernel streaming copy into a buffer;
//   * mapped, chased:  256 dependent 64 B loads through the mapping with a
//     cold TLB (the "TLB misses" case of the claim);
//   * mapped, stream:  one sequential sweep over the same 16 KiB with a
//     warm TLB (the case where mapping wins).
#include "bench/common.h"

#include "src/support/rng.h"

namespace o1mem {
namespace {

constexpr uint64_t kFileBytes = 1 * kGiB;
constexpr uint64_t kChunk = 16 * kKiB;
constexpr int kOps = 2000;

struct Setup {
  System sys{BenchConfig()};
  Process* proc = nullptr;
  int fd = -1;
  Vaddr vaddr = 0;

  Setup() {
    auto p = sys.Launch(Backend::kBaseline);
    O1_CHECK(p.ok());
    proc = *p;
    auto f = sys.Creat(*proc, sys.tmpfs(), "/bench/data", FileFlags{});
    O1_CHECK(f.ok());
    fd = *f;
    O1_CHECK(sys.Ftruncate(*proc, fd, kFileBytes).ok());
    auto va = sys.Mmap(*proc, MmapArgs{.length = kFileBytes, .populate = true, .fd = fd});
    O1_CHECK(va.ok());
    vaddr = *va;
  }
};

double ReadSyscallUs() {
  Setup s;
  Rng rng(7);
  std::vector<uint8_t> buf(kChunk);
  SimTimer timer(s.sys);
  for (int i = 0; i < kOps; ++i) {
    const uint64_t off = AlignDown(rng.NextBelow(kFileBytes - kChunk), kChunk);
    O1_CHECK(s.sys.Pread(*s.proc, s.fd, off, buf).ok());
  }
  return timer.ElapsedUs() / kOps;
}

// 256 dependent cache-line loads: every 64 B of the chunk touched
// individually (pointer chasing), TLB cold for each chunk.
double MappedChasedUs() {
  Setup s;
  Rng rng(7);
  SimTimer timer(s.sys);
  for (int i = 0; i < kOps; ++i) {
    const uint64_t off = AlignDown(rng.NextBelow(kFileBytes - kChunk), kChunk);
    for (uint64_t line = 0; line < kChunk; line += 64) {
      O1_CHECK(s.sys.UserTouch(*s.proc, s.vaddr + off + line, 1, AccessType::kRead).ok());
    }
  }
  return timer.ElapsedUs() / kOps;
}

// One streaming access per chunk, TLB warmed by a prior sweep.
double MappedStreamingUs() {
  Setup s;
  Rng rng(7);
  // Warm the TLB for a small working set and stream within it.
  const uint64_t working_set = 16 * kChunk;
  O1_CHECK(s.sys.UserTouch(*s.proc, s.vaddr, working_set, AccessType::kRead).ok());
  SimTimer timer(s.sys);
  for (int i = 0; i < kOps; ++i) {
    const uint64_t off = AlignDown(rng.NextBelow(working_set - kChunk), kChunk);
    O1_CHECK(s.sys.UserTouch(*s.proc, s.vaddr + off, kChunk, AccessType::kRead).ok());
  }
  return timer.ElapsedUs() / kOps;
}

void Run(BenchJson& json, const BenchArgs&) {
  const double read_us = ReadSyscallUs();
  const double chased_us = MappedChasedUs();
  const double streaming_us = MappedStreamingUs();

  Table table(
      "Sec 4.3 claim: read() of 16KB vs mapped access with TLB misses (us per 16KB, "
      "simulated)");
  table.AddRow({"method", "us per 16KB", "vs read()"});
  table.AddRow({"read() syscall", Table::Num(read_us), "1.0"});
  table.AddRow({"mapped, TLB-missing chase", Table::Num(chased_us),
                Table::Num(chased_us / read_us)});
  table.AddRow({"mapped, warm streaming", Table::Num(streaming_us),
                Table::Num(streaming_us / read_us)});
  json.Emit(table);
  std::printf("\nClaim %s: read() (%.3f us) %s mapped TLB-missing access (%.3f us)\n",
              chased_us > read_us ? "REPRODUCED" : "NOT reproduced", read_us,
              chased_us > read_us ? "beats" : "does not beat", chased_us);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "sec43_read_vs_mmap", {}, o1mem::Run);
}
