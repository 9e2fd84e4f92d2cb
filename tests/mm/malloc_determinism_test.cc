// Determinism of the per-CPU malloc frontend: the same seed and the same
// worker count must reproduce the simulation bit-identically -- final clock,
// every event counter, allocator stats, and the full trace-event stream.
// The workload deliberately crosses the bin refill/flush boundaries
// (kCacheBatch/kCacheCap) on every CPU so the batch machinery itself is
// under the comparison, and one case re-runs with the host fast path
// disabled (O1MEM_NO_HOST_FASTPATH) to pin the fast path's charge-identity
// invariant.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/observer.h"
#include "src/os/malloc.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

struct RunFingerprint {
  uint64_t final_cycles = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  MallocStats stats;
  std::vector<TraceEvent> trace;
};

bool operator==(const TraceEvent& a, const TraceEvent& b) {
  return a.start_cycles == b.start_cycles && a.duration_cycles == b.duration_cycles &&
         a.operand_bytes == b.operand_bytes && a.kind == b.kind && a.cpu == b.cpu &&
         a.instant == b.instant && a.size_class == b.size_class;
}

SystemConfig DeterminismConfig(int workers) {
  SystemConfig config;
  config.machine.dram_bytes = 256 * kMiB;
  config.machine.nvm_bytes = 512 * kMiB;
  config.machine.smp.num_cpus = workers;
  config.machine.obs.trace = true;  // capture the event stream too
  return config;
}

// One deterministic churn: mixed size classes, per-CPU round-robin, with a
// ladder segment (kCacheCap + 1 pushes then pops) that forces at least one
// flush and one refill per CPU per wave.
RunFingerprint RunWorkload(uint64_t seed, int workers, Backend backend) {
  SystemConfig config = DeterminismConfig(workers);
  System sys(config);
  auto proc = sys.Launch(backend);
  O1_CHECK(proc.ok());
  SizeClassAllocator alloc(&sys, *proc);

  Rng rng(seed);
  std::vector<std::vector<Vaddr>> live(static_cast<size_t>(workers));
  for (int step = 0; step < 2000; ++step) {
    const int cpu = step % workers;
    sys.ctx().SetCurrentCpu(cpu);
    auto& mine = live[static_cast<size_t>(cpu)];
    if (step % 97 == 0) {
      // Ladder: overfill one bin past kCacheCap, then drain it, so the
      // flush/refill batches run under the determinism comparison.
      std::vector<Vaddr> wave;
      for (int i = 0; i < SizeClassAllocator::kCacheCap + 1; ++i) {
        auto p = alloc.Malloc(16);
        O1_CHECK(p.ok());
        wave.push_back(*p);
      }
      for (auto it = wave.rbegin(); it != wave.rend(); ++it) {
        O1_CHECK(alloc.Free(*it).ok());
      }
      continue;
    }
    if (rng.Next() % 100 < 60 || mine.empty()) {
      const uint64_t bytes = 1 + rng.Next() % (8 * kKiB);
      auto p = alloc.Malloc(bytes);
      O1_CHECK(p.ok());
      mine.push_back(*p);
    } else {
      const size_t victim = rng.Next() % mine.size();
      O1_CHECK(alloc.Free(mine[victim]).ok());
      mine[victim] = mine.back();
      mine.pop_back();
    }
  }
  for (int cpu = 0; cpu < workers; ++cpu) {
    sys.ctx().SetCurrentCpu(cpu);
    for (Vaddr p : live[static_cast<size_t>(cpu)]) {
      O1_CHECK(alloc.Free(p).ok());
    }
  }
  sys.ctx().SetCurrentCpu(0);

  RunFingerprint fp;
  fp.final_cycles = sys.ctx().now();
  sys.ctx().counters().ForEachField(
      [&fp](const char* name, uint64_t value) { fp.counters.emplace_back(name, value); });
  fp.stats = alloc.stats();
  if (sys.machine().observer().ring() != nullptr) {
    fp.trace = sys.machine().observer().ring()->Drain();
  }
  return fp;
}

void ExpectIdentical(const RunFingerprint& a, const RunFingerprint& b) {
  EXPECT_EQ(a.final_cycles, b.final_cycles);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].second, b.counters[i].second)
        << "counter " << a.counters[i].first << " diverged";
  }
  EXPECT_EQ(a.stats.allocations, b.stats.allocations);
  EXPECT_EQ(a.stats.frees, b.stats.frees);
  EXPECT_EQ(a.stats.cache_refills, b.stats.cache_refills);
  EXPECT_EQ(a.stats.cache_flushes, b.stats.cache_flushes);
  EXPECT_EQ(a.stats.chunks_recycled, b.stats.chunks_recycled);
  EXPECT_EQ(a.stats.pool_reuses, b.stats.pool_reuses);
  EXPECT_EQ(a.stats.mmap_bytes, b.stats.mmap_bytes);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_TRUE(a.trace[i] == b.trace[i]) << "trace event " << i << " diverged";
  }
}

class MallocDeterminismTest : public ::testing::TestWithParam<Backend> {};

TEST_P(MallocDeterminismTest, SameSeedSameWorkersIsBitIdentical) {
  for (int workers : {1, 2, 4}) {
    RunFingerprint a = RunWorkload(/*seed=*/42, workers, GetParam());
    RunFingerprint b = RunWorkload(/*seed=*/42, workers, GetParam());
    ExpectIdentical(a, b);
    EXPECT_GT(a.stats.cache_flushes, 0u);  // the ladder crossed kCacheCap
    EXPECT_GT(a.stats.cache_refills, 0u);
  }
}

TEST_P(MallocDeterminismTest, DifferentSeedsDiverge) {
  RunFingerprint a = RunWorkload(/*seed=*/42, /*workers=*/2, GetParam());
  RunFingerprint b = RunWorkload(/*seed=*/43, /*workers=*/2, GetParam());
  // Not a strict requirement, but if different seeds ever collide the
  // fingerprint has lost its discriminating power and the suite is vacuous.
  EXPECT_NE(a.final_cycles, b.final_cycles);
}

TEST_P(MallocDeterminismTest, HostFastpathIsChargeIdentical) {
  RunFingerprint on = RunWorkload(/*seed=*/7, /*workers=*/2, GetParam());
  ASSERT_EQ(setenv("O1MEM_NO_HOST_FASTPATH", "1", 1), 0);
  RunFingerprint off = RunWorkload(/*seed=*/7, /*workers=*/2, GetParam());
  unsetenv("O1MEM_NO_HOST_FASTPATH");
  ExpectIdentical(on, off);
}

INSTANTIATE_TEST_SUITE_P(Backends, MallocDeterminismTest,
                         ::testing::Values(Backend::kBaseline, Backend::kFom),
                         [](const ::testing::TestParamInfo<Backend>& backend) {
                           return backend.param == Backend::kBaseline ? "Baseline" : "Fom";
                         });

}  // namespace
}  // namespace o1mem
