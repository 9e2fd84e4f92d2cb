#include "o1bench/bench.h"

#include <algorithm>
#include <cmath>

namespace o1bench {
namespace {

// Nearest-rank percentile (p in (0, 100]) of ascending `sorted`, in us.
double PercentileUs(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return CyclesToUs(sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1]);
}

}  // namespace

using o1mem::kGiB;

o1mem::SystemConfig BenchMachine(bool traced) {
  o1mem::SystemConfig config;
  config.machine.dram_bytes = 4 * kGiB;
  config.machine.nvm_bytes = 16 * kGiB;
  config.tmpfs_quota_bytes = 3 * kGiB;
  config.machine.obs.histograms = traced;
  return config;
}

double TimeReferenceKernel() {
  static std::vector<uint64_t> table(uint64_t{1} << 19);  // 4 MiB
  // Bring the table back into the caches the last repetition evicted it
  // from, so the timed loop measures the machine, not that repetition.
  for (uint64_t& v : table) {
    v += 1;
  }
  const size_t mask = table.size() - 1;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  const uint64_t start = HostNowNs();
  for (int i = 0; i < 2'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const size_t idx = (x >> 33) & mask;
    table[idx] += x;
    acc ^= table[(idx * 7 + 3) & mask];
    acc = (acc & 1) != 0 ? acc + (x >> 7) : acc - (x >> 11);
  }
  const double seconds = HostSecondsSince(start);
  table[0] ^= acc;
  return seconds;
}

void SetPercentiles(std::vector<uint64_t>& cycles, SimOutcome& out) {
  std::sort(cycles.begin(), cycles.end());
  out.samples = cycles.size();
  out.p50_us = PercentileUs(cycles, 50);
  out.p99_us = PercentileUs(cycles, 99);
  out.p999_us = PercentileUs(cycles, 99.9);
}

void AddCounterLayers(const o1mem::EventCounters& d, uint64_t units,
                      std::map<std::string, double>& layer) {
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const uint64_t lookups = d.tlb_l1_hits + d.tlb_l2_hits + d.tlb_misses;
  layer["run.units"] = static_cast<double>(units);
  layer["sim.tlb_lookups"] = static_cast<double>(lookups);
  layer["sim.tlb_hit_rate"] = ratio(d.tlb_l1_hits + d.tlb_l2_hits, lookups);
  layer["sim.range_tlb_hit_rate"] = ratio(d.range_tlb_hits, d.tlb_misses);
  layer["sim.walks_per_op"] = ratio(d.page_walks + d.range_table_walks, units);
  layer["sim.ptes_written_per_step"] = ratio(d.ptes_written, units);
  layer["sim.shootdown_ipis_per_step"] = ratio(d.shootdown_ipis_sent, units);
  layer["mm.faults_per_step"] = ratio(d.minor_faults + d.major_faults, units);
  const uint64_t frame_allocs = d.frames_from_pcp + d.frames_from_buddy;
  layer["mm.frame_allocs"] = static_cast<double>(frame_allocs);
  layer["mm.pcp_serve_rate"] = ratio(d.frames_from_pcp, frame_allocs);
  const uint64_t zeroed = d.prezero_hits + d.prezero_misses;
  layer["mm.zeroed_allocs"] = static_cast<double>(zeroed);
  layer["mm.prezero_hit_rate"] = ratio(d.prezero_hits, zeroed);
  layer["mm.pages_scanned"] = static_cast<double>(d.pages_scanned);
  layer["mm.reclaim_yield"] = ratio(d.pages_swapped_out, d.pages_scanned);
}

void AddSpanLayers(const Tracer& tracer, std::map<std::string, double>& sim_layer,
                   std::map<std::string, double>& host_layer) {
  for (size_t i = 0; i < kSpanNameCount; ++i) {
    const auto name = static_cast<SpanName>(i);
    const SpanAgg& a = tracer.agg(name);
    const std::string stem = SpanNameString(name);
    const double calls = static_cast<double>(a.calls);
    sim_layer[stem + ".calls"] = calls;
    sim_layer[stem + ".fail"] = static_cast<double>(a.fail);
    sim_layer[stem + ".sim_us"] = a.calls == 0 ? 0 : CyclesToUs(a.sim_cycles) / calls;
    host_layer[stem + ".host_ns"] = a.calls == 0 ? 0 : static_cast<double>(a.host_ns) / calls;
  }
}

}  // namespace o1bench
