// Application benchmark: a KV service's end-to-end day, both backends.
//
// Not a paper figure -- an application-level composition of everything the
// paper argues: a service with S MiB of state handles a Zipfian mix of gets
// and puts, restarts (crash) periodically, and occasionally sheds caches
// under memory pressure. Reported: startup latency, steady-state op cost,
// restart recovery, and pressure handling, baseline vs. file-only memory.
//
//   * baseline: state lives in anonymous memory, persisted by writing a
//     snapshot file to PMFS at checkpoint time and reloading it at startup;
//     pressure is clock reclaim.
//   * FOM: state lives directly in a persistent segment (no snapshots);
//     caches are discardable files; restart is an O(1) remap.
// --shards=N (or --campaign=...) switches to the chaos-serving mode: an
// N-shard SMP service (src/chaos/shard_service.h) with per-request
// deadlines, seeded-jitter retry, and a heartbeat watchdog, optionally under
// a deterministic fault campaign (--campaign=<spec|default>,
// --chaos-seed=S). Recovery SLOs -- time-to-first-served after a kill, p99
// during the recovery window, retries/op, degraded-mode ops -- land in
// --json for tools/bench_diff.py gating. Without these flags the legacy
// single-process comparison below runs exactly as before.
#include <climits>

#include "bench/common.h"

#include "src/chaos/shard_service.h"
#include "src/support/zipf.h"

namespace o1mem {
namespace {

constexpr uint64_t kStateBytes = 128 * kMiB;
constexpr uint64_t kRecordBytes = 1024;
constexpr int kOps = 20000;
constexpr uint64_t kRecords = kStateBytes / kRecordBytes;

// --procfs-dump: print the /proc-style snapshot of each backend's System at
// the end of its run (System::DumpProcSnapshot).
bool g_procfs_dump = false;

void MaybeProcfsDump(System& sys, const char* which) {
  if (g_procfs_dump) {
    std::printf("\n--- procfs snapshot (%s) ---\n%s", which, sys.DumpProcSnapshot().c_str());
  }
}

struct Phase {
  double startup_us;
  double ops_us;
  double checkpoint_us;  // persistence cost (snapshot write / flush / none)
  double restart_us;     // crash + come back to serving
  double pressure_us;
  uint64_t tier_promoted_bytes = 0;  // promoted at end of steady state
  double tier_hit_rate = 0;          // ops served from the DRAM cache
};

// --workers=N: the steady-state op mix round-robins over N simulated CPUs.
// More than one worker turns on the per-CPU fast paths (frame caches,
// pre-zeroed pool, batched shootdowns); one worker is the exact seed setup.
SystemConfig WorkerConfig(int workers) {
  SystemConfig config = BenchConfig();
  config.machine.smp.num_cpus = workers;
  if (workers > 1) {
    config.machine.smp.batched_shootdowns = true;
    config.machine.smp.percpu_frame_cache = true;
    config.machine.smp.prezero_pool = true;
  }
  return config;
}

// --tier=on: the DRAM file cache and access monitor both service modes use.
void EnableTier(SystemConfig& config) {
  config.machine.tier.enabled = true;
  config.machine.tier.dram_cache_bytes = 32 * kMiB;
  config.machine.tier.aggregation_ticks = 8;
  config.machine.tier.min_region_bytes = 64 * kPageSize;
  config.machine.tier.min_regions = 16;
  config.machine.tier.max_regions = 64;
  config.machine.tier.hot_threshold = 2;
  config.machine.tier.promote_after = 1;
  config.machine.tier.demote_after = 8;
}

Phase RunBaseline(int workers) {
  System sys(WorkerConfig(workers));
  Phase phase;
  // --- startup: load the (pre-existing) snapshot into anon memory.
  {
    auto boot = sys.Launch(Backend::kBaseline);
    O1_CHECK(boot.ok());
    auto fd = sys.Creat(**boot, sys.pmfs(), "/srv/snapshot", FileFlags{.persistent = true});
    O1_CHECK(fd.ok());
    O1_CHECK(sys.Ftruncate(**boot, *fd, kStateBytes).ok());
  }
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  SimTimer timer(sys);
  auto fd = sys.Open(**proc, "/srv/snapshot");
  O1_CHECK(fd.ok());
  auto state = sys.Mmap(**proc, MmapArgs{.length = kStateBytes});
  O1_CHECK(state.ok());
  std::vector<uint8_t> buf(kMiB);
  for (uint64_t off = 0; off < kStateBytes; off += buf.size()) {
    O1_CHECK(sys.Pread(**proc, *fd, off, buf).ok());
    O1_CHECK(sys.UserWrite(**proc, *state + off, buf).ok());
  }
  phase.startup_us = timer.ElapsedUs();

  // --- steady state: zipfian get/put mix.
  ZipfGenerator zipf(kRecords, 0.99);
  Rng rng(7);
  std::vector<uint8_t> record(kRecordBytes, 1);
  timer.Restart();
  for (int i = 0; i < kOps; ++i) {
    sys.ctx().SetCurrentCpu(i % workers);
    const uint64_t off = zipf.Next(rng) * kRecordBytes;
    if (rng.NextBool(0.3)) {
      O1_CHECK(sys.UserWrite(**proc, *state + off, record).ok());
    } else {
      O1_CHECK(sys.UserRead(**proc, *state + off,
                            std::span<uint8_t>(record.data(), record.size()))
                   .ok());
    }
  }
  sys.ctx().SetCurrentCpu(0);
  phase.ops_us = timer.ElapsedUs();

  // --- checkpoint: write the whole state back to the snapshot file.
  timer.Restart();
  for (uint64_t off = 0; off < kStateBytes; off += buf.size()) {
    O1_CHECK(sys.UserRead(**proc, *state + off, buf).ok());
    O1_CHECK(sys.Pwrite(**proc, *fd, off, buf).ok());
  }
  phase.checkpoint_us = timer.ElapsedUs();

  // --- restart: crash, reload the snapshot.
  O1_CHECK(sys.Crash().ok());
  timer.Restart();
  auto proc2 = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc2.ok());
  auto fd2 = sys.Open(**proc2, "/srv/snapshot");
  O1_CHECK(fd2.ok());
  auto state2 = sys.Mmap(**proc2, MmapArgs{.length = kStateBytes});
  O1_CHECK(state2.ok());
  for (uint64_t off = 0; off < kStateBytes; off += buf.size()) {
    O1_CHECK(sys.Pread(**proc2, *fd2, off, buf).ok());
    O1_CHECK(sys.UserWrite(**proc2, *state2 + off, buf).ok());
  }
  phase.restart_us = timer.ElapsedUs();

  // --- pressure: free a quarter of the resident pages via clock scan.
  for (uint64_t off = 0; off < kStateBytes; off += kPageSize) {
    (*proc2)->pager().TestAndClearReferenced(*state2 + off);
  }
  timer.Restart();
  O1_CHECK(sys.ReclaimBaseline(**proc2, kStateBytes / kPageSize / 4,
                               System::ReclaimPolicy::kClock)
               .ok());
  phase.pressure_us = timer.ElapsedUs();
  MaybeProcfsDump(sys, "baseline");
  return phase;
}

// --tier=on moves hot state extents into a DRAM file cache: the service's
// zipfian head is promoted by the access monitor (TierTick every 1024 ops),
// and the checkpoint phase becomes one UserFlush pushing dirty promoted
// spans back to their NVM home (promoted dirty data sits outside the eADR
// domain -- DESIGN.md Sec. 9.5).
Phase RunFom(int workers, bool tier) {
  SystemConfig config = WorkerConfig(workers);
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  if (tier) {
    EnableTier(config);
  }
  System sys(config);
  Phase phase;
  // State segment exists from a previous life.
  auto init = sys.fom().CreateSegment(
      "/srv/state", kStateBytes, SegmentOptions{.flags = FileFlags{.persistent = true}});
  O1_CHECK(init.ok());

  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  SimTimer timer(sys);
  auto seg = sys.fom().OpenSegment("/srv/state");
  O1_CHECK(seg.ok());
  auto state = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite);
  O1_CHECK(state.ok());
  phase.startup_us = timer.ElapsedUs();

  ZipfGenerator zipf(kRecords, 0.99);
  Rng rng(7);
  std::vector<uint8_t> record(kRecordBytes, 1);
  if (tier) {
    // Untimed warmup: let the monitor find and promote the zipfian head
    // before the measured window (region sampling needs a few dozen
    // aggregation windows to converge).
    for (int i = 0; i < 4 * kOps; ++i) {
      const uint64_t off = zipf.Next(rng) * kRecordBytes;
      O1_CHECK(sys.UserRead(**proc, *state + off,
                            std::span<uint8_t>(record.data(), record.size()))
                   .ok());
      if (i % 1024 == 1023) {
        O1_CHECK(sys.TierTick().ok());
      }
    }
  }
  const uint64_t hits_before = sys.ctx().counters().tier_hot_hits_dram;
  timer.Restart();
  for (int i = 0; i < kOps; ++i) {
    sys.ctx().SetCurrentCpu(i % workers);
    const uint64_t off = zipf.Next(rng) * kRecordBytes;
    if (rng.NextBool(0.3)) {
      O1_CHECK(sys.UserWrite(**proc, *state + off, record).ok());
    } else {
      O1_CHECK(sys.UserRead(**proc, *state + off,
                            std::span<uint8_t>(record.data(), record.size()))
                   .ok());
    }
    if (tier && i % 1024 == 1023) {
      sys.ctx().SetCurrentCpu(0);
      O1_CHECK(sys.TierTick().ok());
    }
  }
  sys.ctx().SetCurrentCpu(0);
  phase.ops_us = timer.ElapsedUs();
  if (tier) {
    phase.tier_promoted_bytes = sys.tier()->promoted_bytes();
    phase.tier_hit_rate =
        static_cast<double>(sys.ctx().counters().tier_hot_hits_dram - hits_before) / kOps;
  }

  // --- checkpoint: stores were persistent as issued, except dirty promoted
  // spans (DRAM-cached); with tiering on, one flush writes those home.
  timer.Restart();
  if (tier) {
    O1_CHECK(sys.UserFlush(**proc, *state, kStateBytes).ok());
  }
  phase.checkpoint_us = timer.ElapsedUs();

  // --- restart.
  O1_CHECK(sys.Crash().ok());
  timer.Restart();
  auto proc2 = sys.Launch(Backend::kFom);
  O1_CHECK(proc2.ok());
  auto seg2 = sys.fom().OpenSegment("/srv/state");
  O1_CHECK(seg2.ok());
  auto state2 = sys.fom().Map((*proc2)->fom(), *seg2, Prot::kReadWrite);
  O1_CHECK(state2.ok());
  phase.restart_us = timer.ElapsedUs();
  (void)state2;

  // --- pressure: shed discardable cache files.
  for (int i = 0; i < 16; ++i) {
    O1_CHECK(sys.fom()
                 .CreateSegment("/srv/cache" + std::to_string(i), 2 * kMiB,
                                SegmentOptions{.flags = FileFlags{.discardable = true}})
                 .ok());
  }
  timer.Restart();
  O1_CHECK(sys.ReclaimFom(kStateBytes / 4).ok());
  phase.pressure_us = timer.ElapsedUs();
  MaybeProcfsDump(sys, "fom");
  return phase;
}

// --- chaos-serving mode ----------------------------------------------------

// Percentiles converted to simulated us while the System is still alive.
struct ChaosMetrics {
  ShardServiceReport report;
  double nominal_p50_us = 0;
  double nominal_p99_us = 0;
  double recovery_p50_us = 0;
  double recovery_p99_us = 0;
  double disrupted_p99_us = 0;
  double admitted_p50_us = 0;  // arrival -> completion, every served request
  double admitted_p99_us = 0;
};

ChaosMetrics RunChaosService(int shards, const std::string& campaign_spec,
                             const std::string& arrival_spec, uint64_t seed, bool tier) {
  SystemConfig config = WorkerConfig(shards);
  if (tier) {
    EnableTier(config);
  }
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  System sys(config);

  ShardServiceConfig service_config;
  service_config.shards = shards;
  service_config.shard_bytes = BenchSmall() ? 4 * kMiB : 32 * kMiB;
  service_config.ops = BenchSmall() ? 4000 : static_cast<uint64_t>(kOps);
  service_config.tier_tick_every = tier ? 1024 : 0;
  if (!arrival_spec.empty()) {
    // A set arrival rate, served with the full protection stack (admission,
    // retry budget, breakers, brownout).
    auto arrival = ParseArrival(arrival_spec);
    O1_CHECK(arrival.ok());
    service_config.arrival = *arrival;
    service_config.overload = OverloadConfig::Protected();
  }
  if (!campaign_spec.empty()) {
    // The default campaign is scaled to the arrival phase's length in ticks.
    const auto ticks = static_cast<uint64_t>(static_cast<double>(service_config.ops) /
                                             service_config.arrival.MeanRate());
    const std::string spec =
        campaign_spec == "default" ? DefaultCampaignSpec(ticks) : campaign_spec;
    auto chaos = ParseCampaign(spec, seed);
    O1_CHECK(chaos.ok());
    service_config.chaos = *chaos;
  }

  SimTimer timer(sys);  // drains obs + occupancy into the bench-wide state
  ShardedKvService service(sys, service_config);
  ChaosMetrics m;
  m.report = service.Run();
  auto us = [&sys](const LatencyHistogram& h, double p) {
    return sys.ctx().clock().CyclesToUs(h.Percentile(p));
  };
  m.nominal_p50_us = us(m.report.nominal, 50);
  m.nominal_p99_us = us(m.report.nominal, 99);
  m.recovery_p50_us = us(m.report.recovery, 50);
  m.recovery_p99_us = us(m.report.recovery, 99);
  m.disrupted_p99_us = us(m.report.disrupted, 99);
  m.admitted_p50_us = us(m.report.all_latency, 50);
  m.admitted_p99_us = us(m.report.all_latency, 99);
  MaybeProcfsDump(sys, "chaos");
  return m;
}

void ChaosMain(BenchJson& json, int shards, const std::string& campaign_spec,
               const std::string& arrival_spec, uint64_t seed, bool tier, bool print_log) {
  json.Config("mode", arrival_spec.empty() ? "chaos" : "overload");
  json.Config("shards", static_cast<double>(shards));
  json.Config("campaign", campaign_spec.empty() ? "off" : campaign_spec);
  json.Config("arrival", arrival_spec.empty() ? "off" : arrival_spec);
  json.Config("chaos_seed", static_cast<double>(seed));
  const ChaosMetrics m = RunChaosService(shards, campaign_spec, arrival_spec, seed, tier);
  const ShardServiceReport& r = m.report;

  // The service guarantees graceful degradation: every arrival is eventually
  // served or cleanly rejected (zero lost) and every get returned current
  // data.
  O1_CHECK(r.ops_lost == 0);
  O1_CHECK(r.verify_failures == 0);

  Table table("Chaos serving: " + std::to_string(shards) +
              " shards, deadline+retry clients, watchdog recovery (simulated us)");
  table.AddRow({"event", "shard", "cause", "down@tick", "detect@tick", "scrub_us", "remap_us",
                "first_served_us", "replay_recs"});
  int event_index = 0;
  for (const RecoveryEvent& e : r.recoveries) {
    table.AddRow({std::to_string(event_index++),
                  e.shard < 0 ? std::string("all") : std::to_string(e.shard), e.cause,
                  std::to_string(e.down_tick), std::to_string(e.detect_tick),
                  Table::Num(e.scrub_us), Table::Num(e.remap_us),
                  Table::Num(e.time_to_first_served_us), std::to_string(e.replay_records)});
  }
  json.Emit(table);

  double ttfs_max_us = 0;
  double scrub_max_us = 0;
  double remap_max_us = 0;
  uint64_t replay_max = 0;
  for (const RecoveryEvent& e : r.recoveries) {
    ttfs_max_us = std::max(ttfs_max_us, e.time_to_first_served_us);
    scrub_max_us = std::max(scrub_max_us, e.scrub_us);
    remap_max_us = std::max(remap_max_us, e.remap_us);
    replay_max = std::max(replay_max, e.replay_records);
  }
  json.Metric("nominal_p50_us", m.nominal_p50_us);
  json.Metric("nominal_p99_us", m.nominal_p99_us);
  json.Metric("recovery_p50_us", m.recovery_p50_us);
  json.Metric("recovery_p99_us", m.recovery_p99_us);
  json.Metric("disrupted_p99_us", m.disrupted_p99_us);
  json.Metric("time_to_first_served_us", ttfs_max_us);
  json.Metric("recovery_scrub_us", scrub_max_us);
  json.Metric("recovery_remap_us", remap_max_us);
  json.Metric("recovery_replay_records", static_cast<double>(replay_max));
  json.Metric("retries_per_op",
              r.ops_attempted == 0
                  ? 0
                  : static_cast<double>(r.retries) / static_cast<double>(r.ops_attempted));
  json.Metric("timeouts", static_cast<double>(r.timeouts));
  json.Metric("ops_lost", static_cast<double>(r.ops_lost));
  json.Metric("media_repairs", static_cast<double>(r.media_repairs));
  json.Metric("degraded_reads", static_cast<double>(r.degraded_reads));
  json.Metric("poison_quarantines", static_cast<double>(r.poison_quarantines));
  json.Metric("chaos_kills", static_cast<double>(r.kills));
  json.Metric("chaos_hangs", static_cast<double>(r.hangs));
  json.Metric("watchdog_kills", static_cast<double>(r.watchdog_kills));
  json.Metric("machine_crashes", static_cast<double>(r.machine_crashes));

  // Tail attribution: completed-request p999 and the blame decomposition,
  // computed service-side (valid with or without --trace; the traced run adds
  // span-tree exemplars for tools/tail_explainer.py on top).
  const TailSnapshot& tail = r.tail;
  json.Metric("p999_us", tail.p999_us);
  json.Metric("tail_blame_coverage", tail.blame_coverage);
  json.Emit(TailTable(tail));

  if (r.overload.enabled) {
    const OverloadReport& ov = r.overload;
    Table otable("Overload serving: per-shard admission/breaker/brownout (open loop " +
                 std::to_string(static_cast<int>(ov.capacity_per_tick)) + " slots/tick)");
    otable.AddRow({"shard", "admitted", "served", "shed_dl", "shed_scan", "shed_write",
                   "expired", "fast_fail", "brk_rej", "brk_trans", "max_depth",
                   "brownout L0..L4 ticks"});
    for (size_t i = 0; i < ov.per_shard.size(); ++i) {
      const ShardOverloadStats& st = ov.per_shard[i];
      std::string residency;
      for (size_t level = 0; level < st.brownout_ticks.size(); ++level) {
        if (level != 0) {
          residency += '/';
        }
        residency += std::to_string(st.brownout_ticks[level]);
      }
      otable.AddRow({std::to_string(i), std::to_string(st.admitted), std::to_string(st.served),
                     std::to_string(st.shed_deadline), std::to_string(st.shed_scan),
                     std::to_string(st.shed_write), std::to_string(st.expired_in_queue),
                     std::to_string(st.failed_fast), std::to_string(st.breaker_rejects),
                     std::to_string(st.breaker_transitions), std::to_string(st.max_queue_depth),
                     residency});
    }
    json.Emit(otable);

    json.Metric("arrivals", static_cast<double>(ov.arrivals));
    json.Metric("admitted", static_cast<double>(ov.admitted));
    json.Metric("served", static_cast<double>(ov.served));
    json.Metric("goodput_per_tick", ov.goodput_per_tick);
    json.Metric("goodput_ratio", ov.goodput_ratio);
    json.Metric("shed_rate", ov.shed_rate);
    json.Metric("rejected_final", static_cast<double>(ov.rejected_final));
    json.Metric("retry_budget_denials", static_cast<double>(ov.retry_budget_denials));
    json.Metric("p50_admitted_us", m.admitted_p50_us);
    json.Metric("p99_admitted_us", m.admitted_p99_us);
    json.Metric("breaker_transitions", static_cast<double>(ov.breaker_transitions));
    json.Metric("brownout_ticks", static_cast<double>(ov.brownout_shard_ticks));
    json.Metric("max_queue_depth", static_cast<double>(ov.max_queue_depth));
    json.Metric("queue_depth_window_a", ov.queue_depth_window_a);
    json.Metric("queue_depth_window_b", ov.queue_depth_window_b);
    std::printf(
        "\noverload: %llu arrivals -> %llu served (%.2fx capacity goodput), %llu shed (%.1f%%), "
        "%llu clean rejects, p99 admitted %.1f us, %llu breaker transitions, %llu brownout "
        "shard-ticks\n",
        static_cast<unsigned long long>(ov.arrivals), static_cast<unsigned long long>(ov.served),
        ov.goodput_ratio, static_cast<unsigned long long>(ov.sheds), ov.shed_rate * 100.0,
        static_cast<unsigned long long>(ov.rejected_final), m.admitted_p99_us,
        static_cast<unsigned long long>(ov.breaker_transitions),
        static_cast<unsigned long long>(ov.brownout_shard_ticks));
  }

  std::printf(
      "\nchaos: %llu ops (%llu retries, %llu timeouts, 0 lost), %llu kills + %llu hangs + %llu "
      "machine crashes, p99 %.1f us nominal / %.1f us recovery window\n",
      static_cast<unsigned long long>(r.ops_ok), static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.timeouts), static_cast<unsigned long long>(r.kills),
      static_cast<unsigned long long>(r.hangs),
      static_cast<unsigned long long>(r.machine_crashes), m.nominal_p99_us, m.recovery_p99_us);
  if (print_log && !r.chaos_log.empty()) {
    std::printf("--- chaos log ---\n%s", r.chaos_log.c_str());
  }
}

void Run(BenchJson& json, const BenchArgs& args) {
  const int workers =
      static_cast<int>(std::clamp<uint64_t>(args.Number("workers").value_or(1), 1, INT_MAX));
  const bool tier = args.Text("tier") == "on";
  g_procfs_dump = args.Switch("procfs-dump");
  // Chaos-serving mode: engaged only by its own flags, so the legacy
  // comparison below stays cycle-identical when they are absent.
  int shards = 0;
  if (auto s = args.Number("shards")) {
    shards = static_cast<int>(std::clamp<uint64_t>(*s, 1, INT_MAX));
  }
  const std::string campaign_spec = args.Text("campaign").value_or("");
  // --arrival=poisson:<rate>|burst:<rate>x<len>|ramp:<lo>-<hi> sets the
  // shard service's arrival rate (default: one per tick) and turns on its
  // overload protection (admission + breakers + brownout); combinable with
  // --campaign.
  const std::string arrival_spec = args.Text("arrival").value_or("");
  const uint64_t chaos_seed = args.Number("chaos-seed").value_or(1);
  const bool chaos_log = args.Switch("chaos-log");
  if (shards > 0 || !campaign_spec.empty() || !arrival_spec.empty()) {
    ChaosMain(json, shards > 0 ? shards : 4, campaign_spec, arrival_spec, chaos_seed, tier,
              chaos_log);
    return;
  }
  json.Config("workers", static_cast<double>(workers));
  json.Config("tier", tier ? "on" : "off");
  const Phase baseline = RunBaseline(workers);
  const Phase fom = RunFom(workers, tier);
  Table table(
      "Application: 128 MiB KV service, zipfian ops, checkpoint, crash-restart, pressure "
      "(simulated us, " + std::to_string(workers) + " worker CPUs, tier " +
      (tier ? "on" : "off") + ")");
  table.AddRow({"phase", "baseline (anon + snapshots)", "fom (persistent segment)", "ratio"});
  auto row = [&](const char* name, double b, double f) {
    table.AddRow({name, Table::Num(b), Table::Num(f), Table::Num(f > 0 ? b / f : 0)});
  };
  row("startup", baseline.startup_us, fom.startup_us);
  row("20k zipfian ops", baseline.ops_us, fom.ops_us);
  row("checkpoint/persist", baseline.checkpoint_us, fom.checkpoint_us);
  row("crash restart", baseline.restart_us, fom.restart_us);
  row("pressure response", baseline.pressure_us, fom.pressure_us);
  json.Emit(table);
  if (tier) {
    json.Metric("tier_promoted_bytes", static_cast<double>(fom.tier_promoted_bytes));
    json.Metric("tier_hit_rate", fom.tier_hit_rate);
    std::printf("\ntier: %s promoted at end of steady state, %.1f%% of ops served from DRAM cache\n",
                SizeLabel(fom.tier_promoted_bytes).c_str(), fom.tier_hit_rate * 100.0);
  }
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  using namespace o1mem;
  constexpr BenchFlag::Kind kNumber = BenchFlag::Kind::kWholeNumber;
  constexpr BenchFlag::Kind kSwitch = BenchFlag::Kind::kSwitch;
  return BenchMain(argc, argv, "app_kv_service",
                   {{"workers", kNumber},
                    {"tier", BenchFlag::Kind::kText, {"on", "off"}},
                    {"procfs-dump", kSwitch},
                    {"shards", kNumber},
                    {"campaign"},
                    {"arrival"},
                    {"chaos-seed", kNumber},
                    {"chaos-log", kSwitch}},
                   Run);
}
