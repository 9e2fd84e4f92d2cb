// Ablation: overload robustness -- open-loop arrival vs the protection stack.
//
// A closed-loop client (one arrival per completion) cannot overload
// anything: it self-throttles exactly when the service slows down. This
// bench drives the sharded KV service's open loop with Poisson arrivals at
// 0.5x-3x of service capacity (shards * kSlotsPerTick per tick) and
// compares two services:
//
//   * naive: unbounded FIFO queues, no admission control, no retry budget,
//     no breakers, no brownout. Clients still time out after kDeadlineTicks
//     and retry with backoff -- which is the collapse amplifier: past 1x,
//     every queued request expires before it is served, retries multiply
//     offered load, and goodput falls toward zero; a request that runs out
//     of attempts this way was never refused, so it counts as lost;
//   * protected: deadline-aware shed at admission (which bounds the queues),
//     retry-budget token bucket, per-shard circuit breakers, brownout
//     ladder (src/chaos/admission.h, breaker.h).
//
// Gates (asserted here, regression-gated via --json + bench_diff.py):
//   * protected @ 3x: goodput >= 0.8x capacity, p99 of admitted ops within
//     3x nominal (= p99 at 1x), steady-state queue depth flat across the
//     last two measurement windows;
//   * protected @ 0.5x: zero breaker transitions (no false opens when the
//     service is merely busy, not failing).
//
// --campaign=<spec|default> reruns the protected 2x point under a fault
// campaign (overload + kill/hang recovery composed); the primary JSON
// metrics then come from that run. --chaos-seed=S as elsewhere.
#include "bench/common.h"

#include "src/chaos/shard_service.h"

namespace o1mem {
namespace {

constexpr int kShards = 4;

struct Point {
  double factor = 0;
  bool protected_mode = false;
  OverloadReport ov;
  uint64_t ops_lost = 0;
  uint64_t verify_failures = 0;
  double p99_admitted_us = 0;
};

ShardServiceConfig ServiceConfig(double factor, bool protected_mode,
                                 const std::string& campaign_spec, uint64_t seed) {
  ShardServiceConfig config;
  config.shards = kShards;
  config.shard_bytes = BenchSmall() ? 4 * kMiB : 16 * kMiB;
  config.ops = BenchSmall() ? 6000 : 20000;
  config.arrival.enabled = true;
  config.arrival.kind = ArrivalConfig::Kind::kPoisson;
  config.arrival.rate = factor * static_cast<double>(kShards) * static_cast<double>(kSlotsPerTick);
  config.arrival.scan_fraction = 0.05;
  if (protected_mode) {
    config.overload = OverloadConfig::Protected();
  }
  if (!campaign_spec.empty()) {
    // The default campaign is scaled to the arrival phase's length in ticks.
    const auto ticks = static_cast<uint64_t>(static_cast<double>(config.ops) /
                                             config.arrival.MeanRate());
    const std::string spec =
        campaign_spec == "default" ? DefaultCampaignSpec(ticks) : campaign_spec;
    auto chaos = ParseCampaign(spec, seed);
    O1_CHECK(chaos.ok());
    config.chaos = *chaos;
  }
  return config;
}

Point RunPoint(double factor, bool protected_mode, const std::string& campaign_spec,
               uint64_t seed) {
  SystemConfig sys_config = BenchConfig();
  sys_config.machine.smp.num_cpus = kShards;
  sys_config.machine.smp.batched_shootdowns = true;
  sys_config.machine.smp.percpu_frame_cache = true;
  sys_config.machine.smp.prezero_pool = true;
  sys_config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  System sys(sys_config);
  SimTimer timer(sys);
  ShardedKvService service(sys, ServiceConfig(factor, protected_mode, campaign_spec, seed));
  const ShardServiceReport r = service.Run();
  return Point{.factor = factor,
               .protected_mode = protected_mode,
               .ov = r.overload,
               .ops_lost = r.ops_lost,
               .verify_failures = r.verify_failures,
               .p99_admitted_us = sys.ctx().clock().CyclesToUs(r.all_latency.Percentile(99))};
}

void Run(BenchJson& json, const BenchArgs& args) {
  const std::string campaign_spec = args.Text("campaign").value_or("");
  const uint64_t chaos_seed = args.Number("chaos-seed").value_or(1);
  json.Config("campaign", campaign_spec.empty() ? "off" : campaign_spec);
  json.Config("chaos_seed", static_cast<double>(chaos_seed));

  const std::vector<double> factors = {0.5, 1.0, 1.5, 2.0, 3.0};
  Table table("Ablation: open-loop overload, naive vs protected serving (" +
              std::to_string(kShards) + " shards, Poisson arrivals at x of capacity)");
  table.AddRow({"load", "mode", "arrivals", "served", "goodput_x", "shed_%", "rejects",
                "lost", "p99_adm_us", "max_depth", "brk_trans", "brownout_ticks"});
  std::vector<Point> points;
  for (double factor : factors) {
    for (bool protected_mode : {false, true}) {
      Point p = RunPoint(factor, protected_mode, /*campaign_spec=*/"", chaos_seed);
      points.push_back(p);
      const OverloadReport& ov = p.ov;
      table.AddRow({Table::Num(factor) + "x", protected_mode ? "protected" : "naive",
                    std::to_string(ov.arrivals), std::to_string(ov.served),
                    Table::Num(ov.goodput_ratio), Table::Num(ov.shed_rate * 100.0),
                    std::to_string(ov.rejected_final), std::to_string(p.ops_lost),
                    Table::Num(p.p99_admitted_us), std::to_string(ov.max_queue_depth),
                    std::to_string(ov.breaker_transitions),
                    std::to_string(ov.brownout_shard_ticks)});
    }
  }
  json.Emit(table);

  auto find = [&points](double factor, bool protected_mode) -> const Point& {
    for (const Point& p : points) {
      if (p.factor == factor && p.protected_mode == protected_mode) {
        return p;
      }
    }
    O1_CHECK(false);
    return points.front();
  };
  const Point& low = find(0.5, true);
  const Point& nominal = find(1.0, true);
  const Point& peak = find(3.0, true);
  const Point& naive_peak = find(3.0, false);

  // Acceptance gates. Protected serving holds goodput and tail latency
  // through 3x overload; an unloaded service never false-opens a breaker.
  for (const Point& p : points) {
    if (p.protected_mode) {
      O1_CHECK(p.ops_lost == 0);  // every shed is a clean rejection
    }
    O1_CHECK(p.verify_failures == 0);
  }
  O1_CHECK(peak.ov.goodput_ratio >= 0.8);
  const double nominal_p99 = std::max(nominal.p99_admitted_us, 1.0);  // >= one tick
  O1_CHECK(peak.p99_admitted_us <= 3.0 * nominal_p99);
  // Flat steady state.
  O1_CHECK(peak.ov.queue_depth_window_b <= peak.ov.queue_depth_window_a * 1.5 + 2.0);
  O1_CHECK(low.ov.breaker_transitions == 0);  // busy != failing

  Point primary = peak;
  if (!campaign_spec.empty()) {
    // Overload and faults composed: the protected 2x point under the
    // campaign becomes the regression-gated primary.
    primary = RunPoint(2.0, /*protected_mode=*/true, campaign_spec, chaos_seed);
    O1_CHECK(primary.ops_lost == 0);
    O1_CHECK(primary.verify_failures == 0);
  }
  const OverloadReport& ov = primary.ov;
  json.Metric("goodput_ratio", ov.goodput_ratio);
  json.Metric("p99_admitted_us", primary.p99_admitted_us);
  json.Metric("shed_rate", ov.shed_rate);
  json.Metric("rejected_final", static_cast<double>(ov.rejected_final));
  json.Metric("breaker_transitions", static_cast<double>(ov.breaker_transitions));
  json.Metric("brownout_shard_ticks", static_cast<double>(ov.brownout_shard_ticks));
  json.Metric("max_queue_depth", static_cast<double>(ov.max_queue_depth));
  json.Metric("queue_depth_window_a", ov.queue_depth_window_a);
  json.Metric("queue_depth_window_b", ov.queue_depth_window_b);
  json.Metric("nominal_p99_admitted_us", nominal.p99_admitted_us);
  json.Metric("breaker_false_opens_low_load", static_cast<double>(low.ov.breaker_transitions));
  json.Metric("naive_goodput_ratio_3x", naive_peak.ov.goodput_ratio);
  json.Metric("protected_goodput_ratio_3x", peak.ov.goodput_ratio);

  std::printf(
      "\noverload: protected goodput %.2fx capacity at 3x offered load (naive: %.2fx), "
      "p99 admitted %.1f us vs %.1f us nominal, shed rate %.1f%%, queue windows %.1f -> %.1f\n",
      peak.ov.goodput_ratio, naive_peak.ov.goodput_ratio, peak.p99_admitted_us,
      nominal.p99_admitted_us, peak.ov.shed_rate * 100.0, peak.ov.queue_depth_window_a,
      peak.ov.queue_depth_window_b);
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  using namespace o1mem;
  return BenchMain(argc, argv, "abl_overload",
                   {{"campaign"}, {"chaos-seed", BenchFlag::Kind::kWholeNumber}}, Run);
}
