// Ablation (tiered memory): DAMON-style extent-granularity tiering on top
// of FOM. The machine's two tiers are honest about latency (DRAM line copy
// 8 cycles vs NVM read 12 / write 24 per line), so file data parked in NVM
// pays the 3D-XPoint penalty on every access. The tier engine promotes hot
// extents into a DRAM file cache with O(1) remaps; this bench shows:
//   * convergence: once the hot working set is promoted, hot-extent access
//     cost lands within ~1.25x of a pure-DRAM mapping (vs ~3x for the NVM
//     home), swept over DRAM-cache size and zipf skew;
//   * overhead: monitoring + migration cycles per op stay flat as the
//     mapped region grows 64 MiB -> 8 GiB at a fixed region budget --
//     O(regions), never O(pages).
#include "bench/common.h"
#include "src/support/zipf.h"

namespace o1mem {
namespace {

constexpr uint64_t kZipfSeed = 0x7a69ull;

TierConfig BenchTier(uint64_t cache_bytes) {
  TierConfig t;
  t.enabled = true;
  t.dram_cache_bytes = cache_bytes;
  // Long aggregation windows (8 samples) so nr_accesses can spread 0..8:
  // hot regions then differ from lukewarm neighbours by more than the
  // merge tolerance and survive as distinct regions (DAMON uses ~20
  // samples per window for the same reason).
  t.aggregation_ticks = 8;
  t.min_region_bytes = 64 * kPageSize;  // 256 KiB
  t.min_regions = 16;
  t.max_regions = 64;
  t.hot_threshold = 2;
  t.promote_after = 1;
  t.demote_after = 8;
  return t;
}

uint64_t ConvergenceBytes() { return BenchSmall() ? 64 * kMiB : 256 * kMiB; }

// --- Table A: convergence under zipf traffic -----------------------------

struct Convergence {
  uint64_t promoted_bytes = 0;
  double hit_rate = 0;   // fraction of zipf accesses served from DRAM cache
  double hot_ns = 0;     // ns/access into promoted extents (tiered)
  double nvm_ns = 0;     // same offsets with tiering off (NVM home)
  double dram_ns = 0;    // same offsets into a prefaulted anon DRAM mapping
  double vs_dram = 0;    // hot_ns / dram_ns -- acceptance wants <= 1.25
  double vs_nvm = 0;     // hot_ns / nvm_ns
};

double MeasureTouches(System& sys, Process& proc, Vaddr base,
                      const std::vector<uint64_t>& offsets) {
  SimTimer timer(sys);
  for (uint64_t off : offsets) {
    O1_CHECK(sys.UserTouch(proc, base + off, 1, AccessType::kRead).ok());
  }
  return timer.ElapsedUs() * 1e3 / static_cast<double>(offsets.size());
}

Convergence MeasureConvergence(uint64_t cache_bytes, double theta) {
  const uint64_t bytes = ConvergenceBytes();
  SystemConfig config = BenchConfig();
  config.machine.tier = BenchTier(cache_bytes);
  System sys(config);
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto seg = sys.fom().CreateSegment("/tier/seg", bytes,
                                     SegmentOptions{.flags = {.persistent = true}});
  O1_CHECK(seg.ok());
  auto va = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite);
  O1_CHECK(va.ok());

  // Drive zipf traffic through the monitor until the hot set is promoted.
  // Region sampling is probabilistic (one random sampling page per region per
  // tick), so warm for a fixed round count, then keep going -- bounded -- if
  // nothing has been promoted yet.
  const ZipfGenerator zipf(bytes / kPageSize, theta);
  Rng rng(kZipfSeed);
  const int rounds = BenchSmall() ? 64 : 128;
  const int per_round = 2048;
  for (int r = 0; r < rounds || (sys.tier()->promoted_bytes() == 0 && r < 4 * rounds); ++r) {
    for (int i = 0; i < per_round; ++i) {
      const uint64_t off = zipf.Next(rng) * kPageSize;
      O1_CHECK(sys.UserTouch(**proc, *va + off, 1, AccessType::kRead).ok());
    }
    O1_CHECK(sys.TierTick().ok());
  }

  Convergence c;
  c.promoted_bytes = sys.tier()->promoted_bytes();
  const auto extents = sys.tier()->PromotedOf(*seg);
  O1_CHECK(!extents.empty());

  // Steady-state hit rate over fresh zipf traffic.
  const int probes = 4096;
  const uint64_t hits_before = sys.ctx().counters().tier_hot_hits_dram;
  for (int i = 0; i < probes; ++i) {
    const uint64_t off = zipf.Next(rng) * kPageSize;
    O1_CHECK(sys.UserTouch(**proc, *va + off, 1, AccessType::kRead).ok());
  }
  c.hit_rate = static_cast<double>(sys.ctx().counters().tier_hot_hits_dram - hits_before) /
               probes;

  // Hot-extent access cost: uniform offsets inside the promoted extents,
  // replayed against (1) the tiered mapping, (2) a tier-off system where the
  // same bytes sit in their NVM home, (3) a prefaulted anonymous DRAM
  // mapping -- the pure-DRAM reference.
  std::vector<uint64_t> offsets;
  offsets.reserve(probes);
  for (int i = 0; i < probes; ++i) {
    const PromotedExtent& e = extents[rng.NextBelow(extents.size())];
    offsets.push_back(e.off + AlignDown(rng.NextBelow(e.bytes), 64));
  }
  c.hot_ns = MeasureTouches(sys, **proc, *va, offsets);

  SystemConfig off_config = BenchConfig();
  System off_sys(off_config);
  auto off_proc = off_sys.Launch(Backend::kFom);
  O1_CHECK(off_proc.ok());
  auto off_seg = off_sys.fom().CreateSegment("/tier/seg", bytes,
                                             SegmentOptions{.flags = {.persistent = true}});
  O1_CHECK(off_seg.ok());
  auto off_va = off_sys.fom().Map((*off_proc)->fom(), *off_seg, Prot::kReadWrite);
  O1_CHECK(off_va.ok());
  c.nvm_ns = MeasureTouches(off_sys, **off_proc, *off_va, offsets);

  auto anon_proc = off_sys.Launch(Backend::kBaseline);
  O1_CHECK(anon_proc.ok());
  auto anon_va = off_sys.Mmap(**anon_proc, MmapArgs{.length = bytes, .populate = true});
  O1_CHECK(anon_va.ok());
  c.dram_ns = MeasureTouches(off_sys, **anon_proc, *anon_va, offsets);

  c.vs_dram = c.dram_ns > 0 ? c.hot_ns / c.dram_ns : 0;
  c.vs_nvm = c.nvm_ns > 0 ? c.hot_ns / c.nvm_ns : 0;
  return c;
}

// --- Table B: overhead per op vs mapped size -----------------------------

struct Overhead {
  size_t regions = 0;
  double monitor_per_op = 0;    // cycles
  double migration_per_op = 0;  // cycles
  double total_per_op = 0;
  uint64_t migrated_bytes = 0;
};

// Fixed work regardless of mapped size: the same uniform op count per tick
// and the same 16 MiB advise-driven promote/demote cycles. The policy
// thresholds are pushed out of reach so migration work is identical across
// sizes and the measured monitoring cost is pure O(regions) sampling.
Overhead MeasureOverhead(uint64_t bytes) {
  SystemConfig config = BenchConfig();
  config.machine.tier = BenchTier(64 * kMiB);
  config.machine.tier.hot_threshold = 0xffffffff;  // policy never promotes
  config.machine.tier.demote_after = 1 << 20;      // ...nor demotes
  System sys(config);
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto seg = sys.fom().CreateSegment("/tier/big", bytes,
                                     SegmentOptions{.flags = {.persistent = true}});
  O1_CHECK(seg.ok());
  auto va = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite);
  O1_CHECK(va.ok());

  Rng rng(kZipfSeed);
  const uint64_t pages = bytes / kPageSize;
  const int rounds = BenchSmall() ? 32 : 64;
  const int per_round = 256;
  const uint64_t hot_span = 16 * kMiB;
  uint64_t ops = 0;
  const uint64_t migrated_before = sys.ctx().counters().tier_migrated_bytes;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < per_round; ++i) {
      O1_CHECK(sys.UserTouch(**proc, *va + rng.NextBelow(pages) * kPageSize, 1,
                             AccessType::kRead)
                   .ok());
      ++ops;
    }
    O1_CHECK(sys.TierTick().ok());
    if (r % 16 == 15) {
      O1_CHECK(sys.MadviseTier(**proc, *va, hot_span, TierHint::kHot).ok());
      O1_CHECK(sys.MadviseTier(**proc, *va, hot_span, TierHint::kCold).ok());
    }
  }
  SimTimer occupancy_probe(sys);  // stamps occupancy for the JSON
  Overhead o;
  o.regions = sys.tier()->region_count();
  o.monitor_per_op = static_cast<double>(sys.tier()->monitor_cycles()) / static_cast<double>(ops);
  o.migration_per_op =
      static_cast<double>(sys.tier()->migration_cycles()) / static_cast<double>(ops);
  o.total_per_op = o.monitor_per_op + o.migration_per_op;
  o.migrated_bytes = sys.ctx().counters().tier_migrated_bytes - migrated_before;
  return o;
}

void Run(BenchJson& json, const BenchArgs&) {
  Table conv(
      "Tiering convergence: hot-extent access vs pure DRAM / NVM home under zipf "
      "traffic (ns per access, " +
      SizeLabel(ConvergenceBytes()) + " file)");
  conv.AddRow({"cache", "zipf", "promoted", "hit rate", "hot ns", "nvm ns", "dram ns",
               "vs dram", "vs nvm"});
  struct ConvRow {
    uint64_t cache;
    double theta;
    Convergence c;
  };
  std::vector<ConvRow> conv_rows;
  for (uint64_t cache : MaybeShrink({16 * kMiB, 64 * kMiB})) {
    for (double theta : {0.99, 1.2}) {
      ConvRow row{cache, theta, MeasureConvergence(cache, theta)};
      conv_rows.push_back(row);
      conv.AddRow({SizeLabel(cache), Table::Num(theta), SizeLabel(row.c.promoted_bytes),
                   Table::Num(row.c.hit_rate), Table::Num(row.c.hot_ns),
                   Table::Num(row.c.nvm_ns), Table::Num(row.c.dram_ns),
                   Table::Num(row.c.vs_dram), Table::Num(row.c.vs_nvm)});
    }
  }
  json.Emit(conv);

  Table over(
      "Tiering overhead: monitoring + migration cycles per op vs mapped size "
      "(fixed region budget of 64, fixed per-tick op count)");
  over.AddRow({"mapped", "regions", "monitor c/op", "migrate c/op", "total c/op",
               "migrated"});
  struct OverRow {
    uint64_t size;
    Overhead o;
  };
  std::vector<OverRow> over_rows;
  const std::vector<uint64_t> sizes =
      BenchSmall() ? std::vector<uint64_t>{64 * kMiB, 128 * kMiB, 256 * kMiB}
                   : std::vector<uint64_t>{64 * kMiB, 256 * kMiB, 1 * kGiB, 4 * kGiB,
                                           8 * kGiB};
  for (uint64_t size : sizes) {
    OverRow row{size, MeasureOverhead(size)};
    over_rows.push_back(row);
    over.AddRow({SizeLabel(size), Table::Int(row.o.regions),
                 Table::Num(row.o.monitor_per_op), Table::Num(row.o.migration_per_op),
                 Table::Num(row.o.total_per_op), SizeLabel(row.o.migrated_bytes)});
  }
  json.Emit(over);

  // Headline metrics for bench_diff / dashboards.
  json.Metric("hot_vs_dram_worst",
              [&] {
                double worst = 0;
                for (const ConvRow& r : conv_rows) {
                  worst = std::max(worst, r.c.vs_dram);
                }
                return worst;
              }());
  json.Metric("overhead_cycles_per_op_max",
              [&] {
                double worst = 0;
                for (const OverRow& r : over_rows) {
                  worst = std::max(worst, r.o.total_per_op);
                }
                return worst;
              }());
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_tiering", {}, o1mem::Run);
}
