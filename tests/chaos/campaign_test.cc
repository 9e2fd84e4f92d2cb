// Campaign spec parsing and the CampaignEngine's deterministic firing:
// same (spec, seed) must resolve the same random targets at the same ticks
// and produce the same event log, run after run.
#include <gtest/gtest.h>

#include "src/chaos/campaign.h"

namespace o1mem {
namespace {

TEST(ParseCampaignTest, ParsesEveryActionKind) {
  auto config = ParseCampaign(
      "kill@100:2; hang@200:1x32; poison@50:r!; poison@every100; "
      "poisondram@300:0; crash@400; tornwrite@77; tornflush@88",
      42);
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config->schedule.size(), 8u);
  EXPECT_EQ(config->seed, 42u);

  const auto& s = config->schedule;
  EXPECT_EQ(s[0].kind, ChaosKind::kKillShard);
  EXPECT_EQ(s[0].at_tick, 100u);
  EXPECT_EQ(s[0].shard, 2);
  EXPECT_EQ(s[0].every_ticks, 0u);

  EXPECT_EQ(s[1].kind, ChaosKind::kHangShard);
  EXPECT_EQ(s[1].shard, 1);
  EXPECT_EQ(s[1].duration_ticks, 32u);

  EXPECT_EQ(s[2].kind, ChaosKind::kPoisonNvm);
  EXPECT_EQ(s[2].shard, -1);  // 'r' = random at fire time
  EXPECT_TRUE(s[2].sticky);

  EXPECT_EQ(s[3].kind, ChaosKind::kPoisonNvm);
  EXPECT_EQ(s[3].every_ticks, 100u);
  EXPECT_EQ(s[3].at_tick, 100u);  // first firing after one period
  EXPECT_FALSE(s[3].sticky);

  EXPECT_EQ(s[4].kind, ChaosKind::kPoisonDram);
  EXPECT_EQ(s[4].shard, 0);

  EXPECT_EQ(s[5].kind, ChaosKind::kCrashMachine);
  EXPECT_EQ(s[5].at_tick, 400u);

  EXPECT_EQ(s[6].kind, ChaosKind::kTornWriteCrash);
  EXPECT_EQ(s[6].event_index, 77u);
  EXPECT_EQ(s[7].kind, ChaosKind::kTornFlushCrash);
  EXPECT_EQ(s[7].event_index, 88u);
}

TEST(ParseCampaignTest, EmptySpecIsDisabled) {
  auto config = ParseCampaign("", 1);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->schedule.empty());

  auto semis = ParseCampaign(" ; ;; ", 1);
  ASSERT_TRUE(semis.ok());
  EXPECT_TRUE(semis->schedule.empty());
}

TEST(ParseCampaignTest, RejectsMalformedSpecs) {
  EXPECT_EQ(ParseCampaign("bogus@5", 1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCampaign("kill100", 1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCampaign("hang@5:1", 1).status().code(),
            StatusCode::kInvalidArgument);  // missing xH
  EXPECT_EQ(ParseCampaign("poison@every0", 1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCampaign("kill@5:1z", 1).status().code(),
            StatusCode::kInvalidArgument);  // trailing junk
  EXPECT_EQ(ParseCampaign("kill@", 1).status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseCampaignTest, DefaultSpecParses) {
  auto config = ParseCampaign(DefaultCampaignSpec(20000), 1);
  ASSERT_TRUE(config.ok());
  EXPECT_GE(config->schedule.size(), 4u);
}

TEST(CampaignEngineTest, FiresOneShotAtItsTick) {
  auto config = ParseCampaign("kill@10:1", 7);
  ASSERT_TRUE(config.ok());
  CampaignEngine engine(*config, 4);
  for (uint64_t t = 0; t < 10; ++t) {
    EXPECT_TRUE(engine.Poll(t).empty());
  }
  auto due = engine.Poll(10);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].kind, ChaosKind::kKillShard);
  EXPECT_EQ(due[0].shard, 1);
  for (uint64_t t = 11; t < 40; ++t) {
    EXPECT_TRUE(engine.Poll(t).empty());  // one-shot never refires
  }
  EXPECT_EQ(engine.firings(), 1u);
}

TEST(CampaignEngineTest, PeriodicActionRefires) {
  auto config = ParseCampaign("poison@every10", 7);
  ASSERT_TRUE(config.ok());
  CampaignEngine engine(*config, 4);
  uint64_t fired = 0;
  for (uint64_t t = 0; t <= 50; ++t) {
    for (const ChaosFiring& f : engine.Poll(t)) {
      EXPECT_EQ(f.kind, ChaosKind::kPoisonNvm);
      EXPECT_EQ(t % 10, 0u);
      EXPECT_NE(t, 0u);
      ++fired;
    }
  }
  EXPECT_EQ(fired, 5u);  // t = 10, 20, 30, 40, 50
}

TEST(CampaignEngineTest, RandomShardsResolveInRange) {
  auto config = ParseCampaign("kill@1:r; kill@2:r; kill@3:r; kill@4:r", 99);
  ASSERT_TRUE(config.ok());
  CampaignEngine engine(*config, 3);
  for (uint64_t t = 1; t <= 4; ++t) {
    auto due = engine.Poll(t);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_GE(due[0].shard, 0);
    EXPECT_LT(due[0].shard, 3);
  }
}

TEST(CampaignEngineTest, SameSeedReplaysBitIdentically) {
  const std::string spec = "kill@5:r; hang@9:rx20; poison@every7:r!; crash@40";
  auto config = ParseCampaign(spec, 1234);
  ASSERT_TRUE(config.ok());
  CampaignEngine a(*config, 8);
  CampaignEngine b(*config, 8);
  for (uint64_t t = 0; t <= 60; ++t) {
    auto da = a.Poll(t);
    auto db = b.Poll(t);
    ASSERT_EQ(da.size(), db.size());
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].kind, db[i].kind);
      EXPECT_EQ(da[i].shard, db[i].shard);
      EXPECT_EQ(da[i].tick, db[i].tick);
      EXPECT_EQ(da[i].sticky, db[i].sticky);
    }
  }
  EXPECT_EQ(a.LogString(), b.LogString());
  EXPECT_FALSE(a.LogString().empty());

  // A different seed resolves different random targets somewhere.
  ChaosConfig other = *config;
  other.seed = 4321;
  CampaignEngine c(other, 8);
  for (uint64_t t = 0; t <= 60; ++t) {
    c.Poll(t);
  }
  EXPECT_NE(a.LogString(), c.LogString());
}

}  // namespace
}  // namespace o1mem
