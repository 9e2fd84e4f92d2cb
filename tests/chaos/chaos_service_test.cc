// ShardedKvService under canned campaigns: kill-one-shard-under-load keeps
// the survivors serving (zero lost requests, recovery p99 within 2x
// nominal), hangs longer than the watchdog allowance are detected and
// recovered, slow-but-alive shards are never killed, whole runs replay
// bit-identically per seed, and chaos-off is behaviorally invisible.
#include <gtest/gtest.h>

#include <memory>
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

// Small but non-trivial: 3 shards x 1024 records, 600 arrivals.
ShardServiceConfig SmallService() {
  ShardServiceConfig config;
  config.shards = 3;
  config.shard_bytes = 1024 * ShardedKvService::kRecordBytes;
  config.ops = 600;
  return config;
}

ShardServiceConfig WithCampaign(const std::string& spec, uint64_t seed = 11) {
  ShardServiceConfig config = SmallService();
  auto chaos = ParseCampaign(spec, seed);
  O1_CHECK(chaos.ok());
  config.chaos = *chaos;
  return config;
}

ShardServiceReport RunService(const SystemConfig& machine, const ShardServiceConfig& config) {
  System sys(machine);
  ShardedKvService service(sys, config);
  return service.Run();
}

TEST(ChaosServiceTest, ChaosOffIsInvisible) {
  ShardServiceReport report = RunService(ServiceMachine(), SmallService());
  EXPECT_EQ(report.ops_attempted, 600u);
  EXPECT_EQ(report.ops_ok, 600u);
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.timeouts, 0u);
  EXPECT_EQ(report.kills + report.hangs + report.watchdog_kills + report.machine_crashes, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_TRUE(report.recoveries.empty());
  EXPECT_TRUE(report.chaos_log.empty());
  EXPECT_EQ(report.nominal.count(), 600u);
  EXPECT_EQ(report.recovery.count(), 0u);
  EXPECT_EQ(report.disrupted.count(), 0u);
  EXPECT_EQ(report.degraded_reads, 0u);
  EXPECT_EQ(report.poison_quarantines, 0u);
}

TEST(ChaosServiceTest, KillOneShardUnderLoadLosesNothing) {
  ShardServiceReport report = RunService(ServiceMachine(), WithCampaign("kill@200:1"));
  EXPECT_EQ(report.kills, 1u);
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_EQ(report.ops_ok, report.ops_attempted);

  // The dead shard stops heartbeating; the watchdog detects and recovers it
  // while the other shards keep serving.
  EXPECT_EQ(report.watchdog_kills, 1u);
  ASSERT_EQ(report.recoveries.size(), 1u);
  const RecoveryEvent& event = report.recoveries[0];
  EXPECT_EQ(event.shard, 1);
  EXPECT_STREQ(event.cause, "kill");
  EXPECT_EQ(event.down_tick, 200u);
  EXPECT_GT(event.detect_tick, event.down_tick);
  EXPECT_GT(event.scrub_us, 0.0);
  EXPECT_GT(event.remap_us, 0.0);
  EXPECT_GT(event.time_to_first_served_us, 0.0);

  // Surviving-shard SLO: first-try ops served during the recovery window
  // stay within 2x the nominal tail.
  ASSERT_GT(report.nominal.count(), 0u);
  ASSERT_GT(report.recovery.count(), 0u);
  EXPECT_LE(report.recovery.Percentile(99), 2 * report.nominal.Percentile(99));
}

TEST(ChaosServiceTest, HangBeyondAllowanceTriggersWatchdog) {
  ShardServiceReport report = RunService(ServiceMachine(), WithCampaign("hang@100:0x64"));
  EXPECT_EQ(report.hangs, 1u);
  EXPECT_EQ(report.watchdog_kills, 1u);
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
  ASSERT_EQ(report.recoveries.size(), 1u);
  EXPECT_EQ(report.recoveries[0].shard, 0);
  EXPECT_STREQ(report.recoveries[0].cause, "watchdog");
  // Requests to the hung shard timed out and were retried, never lost.
  EXPECT_GT(report.timeouts, 0u);
  EXPECT_GT(report.retries, 0u);
}

TEST(ChaosServiceTest, SlowButAliveShardIsNotKilled) {
  // An 8-tick hang is inside the watchdog allowance (3 missed beats x
  // 4-tick interval): the shard resumes beating and must not be killed.
  ShardServiceReport report = RunService(ServiceMachine(), WithCampaign("hang@100:0x8"));
  EXPECT_EQ(report.hangs, 1u);
  EXPECT_EQ(report.watchdog_kills, 0u);
  EXPECT_TRUE(report.recoveries.empty());
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.ops_ok, 600u);
  EXPECT_EQ(report.verify_failures, 0u);
}

TEST(ChaosServiceTest, MediaPoisonDegradesAndRepairs) {
  // Heavy transient poison on shard 0's segment: gets that hit a poisoned
  // record repair it from the client copy; nothing fails, nothing is lost.
  ShardServiceReport report =
      RunService(ServiceMachine(), WithCampaign("poison@every2:0", /*seed=*/13));
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_EQ(report.ops_ok, report.ops_attempted);
  EXPECT_GT(report.media_repairs, 0u);
}

TEST(ChaosServiceTest, MachineCrashRecoversAllShards) {
  ShardServiceReport report = RunService(ServiceMachine(), WithCampaign("crash@150"));
  EXPECT_EQ(report.machine_crashes, 1u);
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
  ASSERT_EQ(report.recoveries.size(), 1u);
  EXPECT_EQ(report.recoveries[0].shard, -1);
  EXPECT_STREQ(report.recoveries[0].cause, "machine");
  EXPECT_GT(report.recoveries[0].replay_records, 0u);
}

TEST(ChaosServiceTest, MachineCrashWhileShardIsDownRecoversEveryShard) {
  // Shard 1 is killed at tick 100 and last beat at tick 96, so its watchdog
  // would fire after tick 108. The crash at 105 lands inside that
  // allowance: one machine recovery brings every shard back, the killed one
  // included, and no separate shard recovery runs.
  ShardServiceReport report =
      RunService(ServiceMachine(), WithCampaign("kill@100:1; crash@105"));
  EXPECT_EQ(report.kills, 1u);
  EXPECT_EQ(report.machine_crashes, 1u);
  EXPECT_EQ(report.watchdog_kills, 0u);
  ASSERT_EQ(report.recoveries.size(), 1u);
  const RecoveryEvent& event = report.recoveries[0];
  EXPECT_EQ(event.shard, -1);
  EXPECT_STREQ(event.cause, "machine");
  EXPECT_EQ(event.down_tick, 100u);  // the killed shard's outage, the earliest
  EXPECT_EQ(event.detect_tick, 105u);
  // Run returns only once every recovered shard has served again.
  EXPECT_GT(event.time_to_first_served_us, 0.0);
  EXPECT_EQ(report.ops_ok, report.ops_attempted);
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_NE(report.chaos_log.find("t=105 recover machine replay="), std::string::npos)
      << report.chaos_log;
}

TEST(ChaosServiceTest, TornWriteCrashUnderExplicitFlush) {
  SystemConfig machine = ServiceMachine();
  machine.machine.persistence = PersistenceModel::kExplicitFlush;
  ShardServiceReport report =
      RunService(machine, WithCampaign("tornwrite@500", /*seed=*/17));
  // The armed index trips mid-campaign: power fails with torn persists, the
  // whole machine journal-replays back, and the audit still holds (records
  // are single-line, so a torn multi-line persist can never tear one).
  EXPECT_GE(report.machine_crashes, 1u);
  EXPECT_EQ(report.ops_lost, 0u);
  EXPECT_EQ(report.verify_failures, 0u);
}

TEST(ChaosServiceTest, SameSeedReplaysBitIdentically) {
  const ShardServiceConfig config =
      WithCampaign("kill@150:r; hang@300:rx40; poison@100:r", /*seed=*/5);
  ShardServiceReport a = RunService(ServiceMachine(), config);
  ShardServiceReport b = RunService(ServiceMachine(), config);
  EXPECT_EQ(a.chaos_log, b.chaos_log);
  EXPECT_FALSE(a.chaos_log.empty());
  EXPECT_EQ(a.ops_attempted, b.ops_attempted);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.media_repairs, b.media_repairs);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.run_us, b.run_us);
  EXPECT_EQ(a.nominal.count(), b.nominal.count());
  EXPECT_EQ(a.recovery.count(), b.recovery.count());
  EXPECT_EQ(a.disrupted.count(), b.disrupted.count());
  EXPECT_EQ(a.nominal.Percentile(99), b.nominal.Percentile(99));
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_EQ(a.recoveries[i].shard, b.recoveries[i].shard);
    EXPECT_EQ(a.recoveries[i].down_tick, b.recoveries[i].down_tick);
    EXPECT_EQ(a.recoveries[i].detect_tick, b.recoveries[i].detect_tick);
    EXPECT_EQ(a.recoveries[i].scrub_us, b.recoveries[i].scrub_us);
    EXPECT_EQ(a.recoveries[i].time_to_first_served_us, b.recoveries[i].time_to_first_served_us);
  }
  EXPECT_EQ(a.ops_lost, 0u);
  EXPECT_EQ(b.verify_failures, 0u);
}

}  // namespace
}  // namespace o1mem
