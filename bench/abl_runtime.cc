// Ablation (paper conclusion: O(1) thinking "up to language runtimes"):
//
// Part 1 -- freeing N objects: per-object free through a size-class heap vs
// one O(1) arena reset (trading reserved space for time).
// Part 2 -- restart latency: reopening a persistent heap (O(1)) vs the
// conventional restart path of reading a snapshot file and rebuilding the
// objects (O(data)).
#include "bench/common.h"

#include "src/runtime/arena.h"
#include "src/runtime/persistent_heap.h"

namespace o1mem {
namespace {

// Wall-clock accumulator for one host-throughput region across repeated
// measurement calls (json.HostRegion emits it once at the end).
struct HostAgg {
  uint64_t ops = 0;
  double secs = 0.0;
};

struct FreeCosts {
  double malloc_free_us;
  double arena_reset_us;
};

FreeCosts MeasureFree(int objects, HostAgg& host_free) {
  SystemConfig config = BenchConfig();
  config.fom.precreate_page_tables = false;
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  System sys(config);
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());

  SizeClassAllocator heap(&sys, *proc);
  std::vector<Vaddr> ptrs;
  ptrs.reserve(static_cast<size_t>(objects));
  for (int i = 0; i < objects; ++i) {
    auto p = heap.Malloc(96);
    O1_CHECK(p.ok());
    ptrs.push_back(*p);
  }
  SimTimer timer(sys);
  HostTimer host;
  for (Vaddr p : ptrs) {
    O1_CHECK(heap.Free(p).ok());
  }
  host_free.secs += host.Seconds();
  host_free.ops += static_cast<uint64_t>(objects);
  FreeCosts costs;
  costs.malloc_free_us = timer.ElapsedUs();

  auto arena = ObjectArena::Create(&sys, *proc, "/arena/bench",
                                   AlignUp(static_cast<uint64_t>(objects) * 96 + kMiB,
                                           kPageSize));
  O1_CHECK(arena.ok());
  for (int i = 0; i < objects; ++i) {
    O1_CHECK(arena->Allocate(96).ok());
  }
  timer.Restart();
  O1_CHECK(arena->Reset().ok());
  costs.arena_reset_us = timer.ElapsedUs();
  return costs;
}

struct RestartCosts {
  double heap_reopen_us;
  double snapshot_reload_us;
};

RestartCosts MeasureRestart(uint64_t object_bytes, HostAgg& host_reload) {
  SystemConfig config = BenchConfig();
  System sys(config);
  // Persistent-heap path: build, crash, reopen.
  {
    auto proc = sys.Launch(Backend::kFom);
    O1_CHECK(proc.ok());
    auto heap = PersistentHeap::OpenOrCreate(&sys, *proc, "/heap/state",
                                             object_bytes + kMiB);
    O1_CHECK(heap.ok());
    auto off = heap->Allocate(object_bytes);
    O1_CHECK(off.ok());
    std::vector<uint8_t> chunk(kMiB, 0x11);
    for (uint64_t done = 0; done < object_bytes; done += chunk.size()) {
      O1_CHECK(heap->WriteObject(*off + done, chunk).ok());
    }
    O1_CHECK(heap->SetRoot("state", *off).ok());
  }
  O1_CHECK(sys.Crash().ok());
  RestartCosts costs;
  {
    auto proc = sys.Launch(Backend::kFom);
    O1_CHECK(proc.ok());
    SimTimer timer(sys);
    auto heap = PersistentHeap::OpenOrCreate(&sys, *proc, "/heap/state",
                                             object_bytes + kMiB);
    O1_CHECK(heap.ok());
    O1_CHECK(heap->GetRoot("state").ok());
    costs.heap_reopen_us = timer.ElapsedUs();
  }
  // Conventional path: state lives in a snapshot file; restart = read it
  // all back into fresh anonymous memory.
  {
    auto proc = sys.Launch(Backend::kBaseline);
    O1_CHECK(proc.ok());
    auto fd = sys.Creat(**proc, sys.pmfs(), "/snap/state",
                        FileFlags{.persistent = true});
    O1_CHECK(fd.ok());
    std::vector<uint8_t> chunk(kMiB, 0x22);
    for (uint64_t done = 0; done < object_bytes; done += chunk.size()) {
      O1_CHECK(sys.Pwrite(**proc, *fd, done, chunk).ok());
    }
    SimTimer timer(sys);
    HostTimer host;
    auto vaddr = sys.Mmap(**proc, MmapArgs{.length = object_bytes});
    O1_CHECK(vaddr.ok());
    for (uint64_t done = 0; done < object_bytes; done += chunk.size()) {
      O1_CHECK(sys.Pread(**proc, *fd, done, chunk).ok());
      O1_CHECK(sys.UserWrite(**proc, *vaddr + done, chunk).ok());
    }
    host_reload.secs += host.Seconds();
    host_reload.ops += object_bytes / chunk.size();
    costs.snapshot_reload_us = timer.ElapsedUs();
  }
  return costs;
}

// Part 3 -- hot-object update loop: a runtime mutating a small resident set
// of objects in place, the simulator's hottest repeated-access pattern
// (same page, already materialized, steady state). Simulated cost per op is
// fixed by the cost model; what this region measures is how many simulated
// user accesses per host second the simulator sustains -- the >=10x
// host-throughput gate for the Mmu/PhysicalMemory fast path.
void MeasureHotObjects(uint64_t ops, HostAgg& host_rw) {
  SystemConfig config = BenchConfig();
  config.fom.precreate_page_tables = false;
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  System sys(config);
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto base = sys.Mmap(**proc, MmapArgs{.length = 4 * kMiB});
  O1_CHECK(base.ok());
  std::vector<uint8_t> obj(64, 0x5A);
  std::vector<uint8_t> in(64);
  // Fault the page in once so the loop measures steady-state accesses.
  O1_CHECK(sys.UserWrite(**proc, *base, obj).ok());
  HostTimer host;
  for (uint64_t i = 0; i < ops; ++i) {
    const Vaddr p = *base + (i & 63) * 64;  // 64 hot objects, one page
    if ((i & 7) == 7) {
      O1_CHECK(sys.UserRead(**proc, p, in).ok());
    } else {
      O1_CHECK(sys.UserWrite(**proc, p, obj).ok());
    }
  }
  host_rw.secs += host.Seconds();
  host_rw.ops += ops;
}

void Run(BenchJson& json, const BenchArgs&) {
  Table frees("Ablation: free N 96-byte objects -- per-object free vs O(1) arena reset");
  frees.AddRow({"objects", "per-object free us", "arena reset us", "ratio"});
  HostAgg host_free;
  std::vector<int> object_counts = {1000, 10000, 100000};
  if (BenchLarge()) {
    object_counts.push_back(2000000);  // nightly: host overhead per free dominates
  }
  for (int objects : object_counts) {
    const FreeCosts costs = MeasureFree(objects, host_free);
    frees.AddRow({Table::Int(static_cast<uint64_t>(objects)),
                  Table::Num(costs.malloc_free_us), Table::Num(costs.arena_reset_us),
                  Table::Num(costs.arena_reset_us > 0
                                 ? costs.malloc_free_us / costs.arena_reset_us
                                 : 0)});
  }
  json.Emit(frees);

  Table restart(
      "Ablation: restart latency -- reopen persistent heap vs reload a snapshot file");
  restart.AddRow({"state size", "heap reopen us", "snapshot reload us", "ratio"});
  HostAgg host_reload;
  std::vector<uint64_t> state_sizes = MaybeShrink({16 * kMiB, 64 * kMiB, 256 * kMiB});
  if (BenchLarge()) {
    state_sizes.push_back(1 * kGiB);
  }
  for (uint64_t bytes : state_sizes) {
    const RestartCosts costs = MeasureRestart(bytes, host_reload);
    restart.AddRow({SizeLabel(bytes), Table::Num(costs.heap_reopen_us),
                    Table::Num(costs.snapshot_reload_us),
                    Table::Num(costs.heap_reopen_us > 0
                                   ? costs.snapshot_reload_us / costs.heap_reopen_us
                                   : 0)});
  }
  json.Emit(restart);

  // Host-throughput gates: how fast the simulator itself executes the hot
  // loops (free sweep, snapshot-reload copy, hot-object updates).
  // tools/bench_diff.py fails a >10% host_ns_per_op regression.
  HostAgg host_rw;
  MeasureHotObjects(BenchLarge() ? 40'000'000u : 4'000'000u, host_rw);
  json.HostRegion("free_sweep", host_free.ops, host_free.secs);
  json.HostRegion("snapshot_reload_mib", host_reload.ops, host_reload.secs);
  json.HostRegion("hot_object_rw", host_rw.ops, host_rw.secs);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_runtime", {}, o1mem::Run);
}
