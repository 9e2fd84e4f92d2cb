// Ablation: constant-WCET user allocation (paper Sec. 5, "O(1) thinking up
// to language runtimes").
//
// Drives SizeClassAllocator through adversarial alloc/free interleavings --
// steady churn, a size-class sweep, and the worst-case split/merge ladder --
// and emits one kMalloc/kFree trace span per operation. The claim under
// test: malloc/free latency distributions are the same whether the operand
// is 16 bytes or hundreds of megabytes, i.e. trace_report.py's p99-growth
// verdict stays O(1) across size classes (CI runs
// `trace_report.py --check-o1=malloc --check-o1=free` on this bench's
// --trace output).
//
// --workers=N round-robins operations over N simulated CPUs, exercising the
// per-CPU bin protocol (batch refill/flush against the shared buddy
// backend). Same seed + same N reproduces bit-identical counters and trace.
#include <climits>

#include "bench/common.h"

#include "src/support/rng.h"

namespace o1mem {
namespace {

struct WcetEnv {
  System sys;
  Process* proc = nullptr;

  explicit WcetEnv(int workers) : sys(WcetConfig(workers)) {
    auto launched = sys.Launch(Backend::kFom);
    O1_CHECK(launched.ok());
    proc = *launched;
  }

  static SystemConfig WcetConfig(int workers) {
    SystemConfig config = BenchConfig();
    config.machine.smp.num_cpus = workers;
    // Epoch zeroing (paper Sec. 4): chunk acquisition must not pay a
    // foreground per-byte zeroing bill, or every large size class inherits
    // an O(n) mmap term that has nothing to do with the allocator itself.
    config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
    // Range-table mapping is O(extents); sidecar page-table precreation
    // would put an O(pages) term back into every segment creation.
    config.fom.precreate_page_tables = false;
    return config;
  }
};

// Round-robin the current CPU so per-CPU bins all see traffic.
void SpinCpu(System& sys, int workers, uint64_t op) {
  if (workers > 1) {
    sys.ctx().SetCurrentCpu(static_cast<int>(op % static_cast<uint64_t>(workers)));
  }
}

// Alloc-then-free waves per size: refills, flushes, chunk acquisition and
// whole-chunk recycling, one class at a time. Sizes cover the 4K, 2M, and
// 1G trace size classes (the last via direct-mmap big allocations).
void SweepScenario(BenchJson& json, int workers, Table& table) {
  const uint64_t wave = ScaleOps(4000);
  const std::vector<uint64_t> sizes = {16,        256,       4 * kKiB,
                                       32 * kKiB, 256 * kKiB, 4 * kMiB};
  WcetEnv env(workers);
  SizeClassAllocator heap(&env.sys, env.proc);
  HostTimer host;
  uint64_t host_ops = 0;
  for (const uint64_t size : sizes) {
    // Bound the live footprint (and host-side buddy metadata) for the big
    // classes; the ops column records the actual count.
    const uint64_t count = size >= kMiB        ? std::min<uint64_t>(wave / 16, 500)
                           : size >= 32 * kKiB ? std::min<uint64_t>(wave / 8, 1000)
                                               : wave;
    std::vector<Vaddr> ptrs;
    ptrs.reserve(count);
    SimTimer timer(env.sys);
    for (uint64_t i = 0; i < count; ++i) {
      SpinCpu(env.sys, workers, i);
      auto p = heap.Malloc(size);
      O1_CHECK(p.ok());
      ptrs.push_back(*p);
    }
    const double alloc_us = timer.ElapsedUs();
    timer.Restart();
    for (uint64_t i = 0; i < count; ++i) {
      SpinCpu(env.sys, workers, i);
      O1_CHECK(heap.Free(ptrs[i]).ok());
    }
    const double free_us = timer.ElapsedUs();
    host_ops += 2 * count;
    table.AddRow({SizeLabel(size), Table::Int(count),
                  Table::Num(alloc_us * 1000.0 / static_cast<double>(count)),
                  Table::Num(free_us * 1000.0 / static_cast<double>(count))});
  }
  json.HostRegion("sweep", host_ops, host.Seconds());
}

// Steady-state churn at a fixed live-set size with a mixed size
// distribution: the general-case interleaving, with constant cross-class
// pressure on the shared backend.
void ChurnScenario(BenchJson& json, int workers, Table& table) {
  const uint64_t steps = ScaleOps(60000);
  const uint64_t live_target = ScaleOps(2000);
  WcetEnv env(workers);
  SizeClassAllocator heap(&env.sys, env.proc);
  Rng rng(42);
  std::vector<Vaddr> live;
  live.reserve(live_target);
  HostTimer host;
  SimTimer timer(env.sys);
  for (uint64_t step = 0; step < steps; ++step) {
    SpinCpu(env.sys, workers, step);
    if (live.size() < live_target && (live.empty() || rng.NextBool(0.55))) {
      // Mixed sizes: mostly small, a tail of large classes and big mmaps.
      uint64_t size;
      if (rng.NextBool(0.05)) {
        size = rng.NextBool(0.2) ? 4 * kMiB : 32 * kKiB + rng.NextInRange(1, 224 * kKiB);
      } else {
        size = rng.NextInRange(1, 8 * kKiB);
      }
      auto p = heap.Malloc(size);
      O1_CHECK(p.ok());
      live.push_back(*p);
    } else {
      const size_t pick = rng.NextBelow(live.size());
      O1_CHECK(heap.Free(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
  }
  const double us = timer.ElapsedUs();
  for (const Vaddr p : live) {
    O1_CHECK(heap.Free(p).ok());
  }
  json.HostRegion("churn", steps, host.Seconds());
  const EventCounters& c = env.sys.ctx().counters();
  table.AddRow({"churn", Table::Int(steps),
                Table::Num(us * 1000.0 / static_cast<double>(steps)), Table::Int(c.malloc_cache_refills),
                Table::Int(c.malloc_cache_flushes), Table::Int(c.malloc_buddy_splits),
                Table::Int(c.malloc_buddy_merges), Table::Int(c.malloc_chunks_recycled)});
}

// Worst-case split/merge: with an empty backend, a 16 B malloc acquires a
// fresh chunk and splits kMaxOrder times; the matching free merges all the
// way back and recycles the chunk. Defeat the per-CPU bin by spreading each
// wave of kCacheBatch+1 blocks, then freeing them, so the backend sees the
// deepest possible ladder every wave.
void LadderScenario(BenchJson& json, int workers, Table& table) {
  const uint64_t waves = ScaleOps(3000);
  WcetEnv env(workers);
  SizeClassAllocator heap(&env.sys, env.proc);
  constexpr int kWaveBlocks = SizeClassAllocator::kCacheCap + 1;
  std::vector<Vaddr> ptrs;
  ptrs.reserve(kWaveBlocks);
  HostTimer host;
  SimTimer timer(env.sys);
  for (uint64_t wave = 0; wave < waves; ++wave) {
    SpinCpu(env.sys, workers, wave);
    ptrs.clear();
    for (int i = 0; i < kWaveBlocks; ++i) {
      auto p = heap.Malloc(16);
      O1_CHECK(p.ok());
      ptrs.push_back(*p);
    }
    for (int i = kWaveBlocks - 1; i >= 0; --i) {
      O1_CHECK(heap.Free(ptrs[static_cast<size_t>(i)]).ok());
    }
  }
  const double us = timer.ElapsedUs();
  const uint64_t ops = waves * 2 * kWaveBlocks;
  json.HostRegion("ladder", ops, host.Seconds());
  const EventCounters& c = env.sys.ctx().counters();
  table.AddRow({"ladder", Table::Int(ops),
                Table::Num(us * 1000.0 / static_cast<double>(ops)), Table::Int(c.malloc_cache_refills),
                Table::Int(c.malloc_cache_flushes), Table::Int(c.malloc_buddy_splits),
                Table::Int(c.malloc_buddy_merges), Table::Int(c.malloc_chunks_recycled)});
}

void Run(BenchJson& json, const BenchArgs& args) {
  const int workers =
      static_cast<int>(std::min<uint64_t>(args.Number("workers").value_or(1), INT_MAX));
  O1_CHECK(workers >= 1);
  json.Config("workers", static_cast<double>(workers));

  Table sweep("WCET sweep: alloc/free simulated cycles per op, by request size");
  sweep.AddRow({"size", "ops", "alloc ns/op", "free ns/op"});
  SweepScenario(json, workers, sweep);
  json.Emit(sweep);

  Table adversarial("WCET adversarial interleavings (simulated cycles per op + backend work)");
  adversarial.AddRow({"scenario", "ops", "ns/op", "refills", "flushes", "splits", "merges",
                      "chunks recycled"});
  ChurnScenario(json, workers, adversarial);
  LadderScenario(json, workers, adversarial);
  json.Emit(adversarial);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  using namespace o1mem;
  return BenchMain(argc, argv, "abl_malloc_wcet", {{"workers", BenchFlag::Kind::kWholeNumber}},
                   Run);
}
