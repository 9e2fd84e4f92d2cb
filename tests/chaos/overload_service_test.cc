// ShardedKvService under open-loop overload: saturation never trips the
// watchdog (heartbeats are out-of-band), admission bounds queue depth and
// sojourn, the protected service loses nothing (sheds are clean rejects)
// while the naive one loses the requests it lets expire,
// brownout climbs under load and restores in reverse, runs replay
// bit-identically per (arrival, campaign, seed), and the brownout hooks
// never touch durability (tier writeback of dirty data still runs).
#include <gtest/gtest.h>

#include <string>

#include "src/chaos/shard_service.h"

namespace o1mem {
namespace {

SystemConfig ServiceMachine() {
  SystemConfig config;
  config.machine.dram_bytes = 64 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  config.machine.smp.num_cpus = 2;
  return config;
}

// 3 shards x kSlotsPerTick (4) = 12 requests/tick of capacity.
ShardServiceConfig OverloadService(double rate) {
  ShardServiceConfig config;
  config.shards = 3;
  config.shard_bytes = 1024 * ShardedKvService::kRecordBytes;
  config.ops = 2000;
  config.arrival.enabled = true;
  config.arrival.kind = ArrivalConfig::Kind::kPoisson;
  config.arrival.rate = rate;
  config.overload = OverloadConfig::Protected();
  return config;
}

ShardServiceReport RunService(const SystemConfig& machine, const ShardServiceConfig& config) {
  System sys(machine);
  ShardedKvService service(sys, config);
  return service.Run();
}

TEST(OverloadServiceTest, SaturationNeverTripsTheWatchdog) {
  // 3x capacity: every shard is permanently saturated and shedding, but
  // heartbeats are out-of-band -- overload is not a liveness failure, so the
  // watchdog must never kill a busy shard.
  ShardServiceReport report = RunService(ServiceMachine(), OverloadService(36.0));
  EXPECT_EQ(report.watchdog_kills, 0u);
  EXPECT_EQ(report.kills, 0u);
  EXPECT_TRUE(report.recoveries.empty());
  EXPECT_GT(report.overload.served, 0u);
  EXPECT_GT(report.overload.sheds, 0u);  // it *was* overloaded
}

TEST(OverloadServiceTest, ProtectedOverloadLosesNothing) {
  ShardServiceReport report = RunService(ServiceMachine(), OverloadService(36.0));
  const OverloadReport& ov = report.overload;
  EXPECT_TRUE(ov.enabled);
  EXPECT_EQ(report.ops_lost, 0u);  // every shed is a clean rejection
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_EQ(ov.arrivals, 2000u);
  // Conservation: every arrival is served, cleanly rejected, or was an
  // admitted-then-expired timeout that later resolved one of those ways.
  EXPECT_EQ(ov.served + ov.rejected_final, ov.arrivals);
  EXPECT_GT(ov.rejected_final, 0u);
  // Admission holds the CoDel-style bound: est wait (depth+1)/slots <= 3
  // ticks means per-shard depth never exceeds 12.
  for (const ShardOverloadStats& st : ov.per_shard) {
    EXPECT_LE(st.max_queue_depth, 12u);
  }
  // With admission holding queues at the target, deadlines never expire in
  // queue, so the breaker sees no failures: zero false opens under pure
  // overload.
  for (const ShardOverloadStats& st : ov.per_shard) {
    EXPECT_EQ(st.breaker_transitions, 0u) << st.breaker_timeline;
  }
}

TEST(OverloadServiceTest, NaiveOverloadCountsGiveUpsAsLost) {
  // 3x capacity with every protection off: nothing refuses a request, so
  // queued requests expire, retry and expire again until their attempts run
  // out -- and each of those give-ups is a lost request, not a clean reject.
  // 6000 arrivals build a backlog that outlasts all eight attempts' backoffs.
  ShardServiceConfig config = OverloadService(36.0);
  config.ops = 6000;
  config.overload = OverloadConfig{};
  ShardServiceReport report = RunService(ServiceMachine(), config);
  const OverloadReport& ov = report.overload;
  EXPECT_GT(report.ops_lost, 0u);
  EXPECT_EQ(ov.rejected_final, 0u);  // no refusals without a protection stack
  EXPECT_EQ(ov.served + ov.rejected_final + report.ops_lost, ov.arrivals);
  EXPECT_EQ(report.verify_failures, 0u);
}

TEST(OverloadServiceTest, LightLoadShedsNothing) {
  // 0.5x capacity: no sheds, no brownout, no breaker activity, all served.
  ShardServiceReport report = RunService(ServiceMachine(), OverloadService(6.0));
  const OverloadReport& ov = report.overload;
  EXPECT_EQ(ov.served, ov.arrivals);
  EXPECT_EQ(ov.sheds, 0u);
  EXPECT_EQ(ov.rejected_final, 0u);
  EXPECT_EQ(report.ops_lost, 0u);
  for (const ShardOverloadStats& st : ov.per_shard) {
    EXPECT_EQ(st.breaker_transitions, 0u);
    for (size_t level = 1; level < st.brownout_ticks.size(); ++level) {
      EXPECT_EQ(st.brownout_ticks[level], 0u);
    }
  }
}

TEST(OverloadServiceTest, BrownoutClimbsUnderOverloadAndRestores) {
  // 2x burst phases: levels climb during the high phase and walk back down
  // (in reverse order, one level per kHysteresisTicks calm ticks) once the
  // load stops.
  ShardServiceConfig config = OverloadService(0);
  config.arrival.kind = ArrivalConfig::Kind::kBurst;
  config.arrival.rate = 24.0;
  config.arrival.burst_ticks = 40;
  ShardServiceReport report = RunService(ServiceMachine(), config);
  const OverloadReport& ov = report.overload;
  EXPECT_EQ(report.ops_lost, 0u);
  bool browned_out = false;
  for (const ShardOverloadStats& st : ov.per_shard) {
    uint64_t total = 0;
    for (size_t level = 0; level < st.brownout_ticks.size(); ++level) {
      total += st.brownout_ticks[level];
      if (level >= 1 && st.brownout_ticks[level] > 0) {
        browned_out = true;
      }
    }
    // One Update per tick per shard: residency accounts for the whole run.
    EXPECT_EQ(total, report.ticks);
    // Restore happened: the run ends (quiet drain) back at L0, so L0
    // residency includes post-brownout ticks.
    EXPECT_GT(st.brownout_ticks[0], 0u);
  }
  EXPECT_TRUE(browned_out);
  EXPECT_GT(report.overload.scan_ops + report.overload.served, 0u);
}

TEST(OverloadServiceTest, OverloadComposesWithKillCampaign) {
  ShardServiceConfig config = OverloadService(24.0);
  auto chaos = ParseCampaign("kill@60:1", /*seed=*/11);
  ASSERT_TRUE(chaos.ok());
  config.chaos = *chaos;
  ShardServiceReport report = RunService(ServiceMachine(), config);
  EXPECT_EQ(report.kills, 1u);
  EXPECT_EQ(report.watchdog_kills, 1u);  // dead shard stops heartbeating
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
  // The killed shard's queue failed fast and its breaker opened (fail-fasts
  // are consecutive failures), then closed again after recovery.
  const ShardOverloadStats& st = report.overload.per_shard[1];
  EXPECT_GT(st.failed_fast, 0u);
  EXPECT_GE(st.breaker_transitions, 2u) << st.breaker_timeline;
  EXPECT_GT(st.breaker_rejects, 0u);
}

TEST(OverloadServiceTest, HungShardExpiresQueueAndRecovers) {
  ShardServiceConfig config = OverloadService(24.0);
  auto chaos = ParseCampaign("hang@40:0x64", /*seed=*/11);
  ASSERT_TRUE(chaos.ok());
  config.chaos = *chaos;
  ShardServiceReport report = RunService(ServiceMachine(), config);
  EXPECT_EQ(report.hangs, 1u);
  EXPECT_EQ(report.watchdog_kills, 1u);
  EXPECT_EQ(report.ops_lost, 0u);
  const ShardOverloadStats& st = report.overload.per_shard[0];
  EXPECT_GT(st.expired_in_queue, 0u);  // queued requests burnt their deadline
  EXPECT_GE(st.breaker_transitions, 1u) << st.breaker_timeline;
}

TEST(OverloadServiceTest, SameSeedReplaysBitIdentically) {
  ShardServiceConfig config = OverloadService(30.0);
  auto chaos = ParseCampaign("kill@80:1; hang@200:2x40", /*seed=*/5);
  ASSERT_TRUE(chaos.ok());
  config.chaos = *chaos;
  ShardServiceReport a = RunService(ServiceMachine(), config);
  ShardServiceReport b = RunService(ServiceMachine(), config);
  EXPECT_EQ(a.chaos_log, b.chaos_log);
  EXPECT_FALSE(a.chaos_log.empty());
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.run_us, b.run_us);
  const OverloadReport& oa = a.overload;
  const OverloadReport& ob = b.overload;
  EXPECT_EQ(oa.arrivals, ob.arrivals);
  EXPECT_EQ(oa.admitted, ob.admitted);
  EXPECT_EQ(oa.served, ob.served);
  EXPECT_EQ(oa.sheds, ob.sheds);
  EXPECT_EQ(oa.rejected_final, ob.rejected_final);
  EXPECT_EQ(oa.retry_budget_denials, ob.retry_budget_denials);
  EXPECT_EQ(a.all_latency.count(), b.all_latency.count());
  EXPECT_EQ(a.all_latency.Percentile(99), b.all_latency.Percentile(99));
  ASSERT_EQ(oa.per_shard.size(), ob.per_shard.size());
  for (size_t i = 0; i < oa.per_shard.size(); ++i) {
    // Shed decisions and the breaker timeline replay bit-identically.
    EXPECT_EQ(oa.per_shard[i].admitted, ob.per_shard[i].admitted);
    EXPECT_EQ(oa.per_shard[i].shed_deadline, ob.per_shard[i].shed_deadline);
    EXPECT_EQ(oa.per_shard[i].shed_scan, ob.per_shard[i].shed_scan);
    EXPECT_EQ(oa.per_shard[i].shed_write, ob.per_shard[i].shed_write);
    EXPECT_EQ(oa.per_shard[i].expired_in_queue, ob.per_shard[i].expired_in_queue);
    EXPECT_EQ(oa.per_shard[i].breaker_timeline, ob.per_shard[i].breaker_timeline);
    EXPECT_EQ(oa.per_shard[i].brownout_ticks, ob.per_shard[i].brownout_ticks);
  }
}

TEST(OverloadServiceTest, ScanClassIsShedFirst) {
  ShardServiceConfig config = OverloadService(36.0);
  config.arrival.scan_fraction = 0.2;
  ShardServiceReport report = RunService(ServiceMachine(), config);
  const OverloadReport& ov = report.overload;
  uint64_t shed_scan = 0;
  uint64_t shed_write = 0;
  for (const ShardOverloadStats& st : ov.per_shard) {
    shed_scan += st.shed_scan;
    shed_write += st.shed_write;
  }
  // Sustained 3x overload drives the ladder to L3/L4: scans shed, and the
  // scan shed engages at a lower level than the write shed.
  EXPECT_GT(shed_scan, 0u);
  EXPECT_GT(shed_write, 0u);
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
}

// --- brownout durability invariant -----------------------------------------

TEST(OverloadServiceTest, BrownoutPauseDefersTierTicksNotDurability) {
  SystemConfig config = ServiceMachine();
  config.machine.tier.enabled = true;
  config.machine.tier.dram_cache_bytes = 8 * kMiB;
  config.machine.tier.aggregation_ticks = 1;
  System sys(config);
  ASSERT_NE(sys.tier(), nullptr);
  sys.tier()->SetBrownoutPause(true);
  const uint64_t pauses_before = sys.ctx().counters().brownout_tier_pauses;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sys.TierTick().ok());
  }
  // Optional migration work was deferred...
  EXPECT_GT(sys.ctx().counters().brownout_tier_pauses, pauses_before);

  // ...but durability is untouched: a write + flush to a persistent segment
  // still reaches media while the pause is set.
  auto seg = sys.fom().CreateSegment("/srv/s", 64 * kKiB,
                                     SegmentOptions{.flags = {.persistent = true}});
  ASSERT_TRUE(seg.ok());
  auto proc = sys.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  auto base = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite);
  ASSERT_TRUE(base.ok());
  uint8_t line[64];
  for (uint8_t& b : line) {
    b = 0x5a;
  }
  ASSERT_TRUE(sys.UserWrite(**proc, *base, line).ok());
  ASSERT_TRUE(sys.UserFlush(**proc, *base, sizeof(line)).ok());
  uint8_t back[64] = {};
  ASSERT_TRUE(sys.UserRead(**proc, *base, back).ok());
  EXPECT_EQ(back[0], 0x5a);
  sys.tier()->SetBrownoutPause(false);
}

TEST(OverloadServiceTest, BrownoutDefersPrezeroRefillNotCorrectness) {
  SystemConfig config = ServiceMachine();
  config.machine.smp.num_cpus = 2;
  config.machine.smp.percpu_frame_cache = true;
  config.machine.smp.prezero_pool = true;
  config.machine.smp.prezero_target_frames = 64;
  System sys(config);
  PhysManager& pm = sys.phys_manager();
  pm.ReplenishPrezeroPool();
  ASSERT_GT(pm.prezero_pool_frames(), 0u);
  pm.SetBrownout(true);
  const uint64_t deferrals_before = sys.ctx().counters().brownout_prezero_deferrals;
  // Drain the pool well past the refill watermark: every alloc still
  // succeeds (inline zeroing is the fallback), but no background refill
  // happens while the brownout holds.
  for (int i = 0; i < 512; ++i) {
    auto frame = pm.AllocFrame(/*zero=*/true);
    ASSERT_TRUE(frame.ok());
  }
  EXPECT_GT(sys.ctx().counters().brownout_prezero_deferrals, deferrals_before);
  EXPECT_EQ(pm.prezero_pool_frames(), 0u);
  pm.SetBrownout(false);
}

TEST(OverloadServiceTest, OverloadWithTieringKeepsAuditClean) {
  // End-to-end durability under brownout: sustained overload with tiering
  // on (promotions paused at L1+, writeback never skipped) -- every get
  // still returns the audited current value.
  SystemConfig machine = ServiceMachine();
  machine.machine.tier.enabled = true;
  machine.machine.tier.dram_cache_bytes = 8 * kMiB;
  machine.machine.tier.aggregation_ticks = 1;
  ShardServiceConfig config = OverloadService(36.0);
  config.tier_tick_every = 1;
  System sys(machine);
  ShardedKvService service(sys, config);
  ShardServiceReport report = service.Run();
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_EQ(report.ops_lost, 0u);
  // Sustained 3x load holds brownout at L1+, so the paused tier engine
  // logged deferrals -- and the audit above proves no data was harmed.
  EXPECT_GT(sys.ctx().counters().brownout_tier_pauses, 0u);
}

}  // namespace
}  // namespace o1mem
