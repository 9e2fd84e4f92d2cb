// Watchdog contract: a shard is declared dead only after kMissedBeats full
// heartbeat intervals with no beat; a slow-but-alive shard that beats at
// (or before) the deadline is never flagged; a beat rearms an expired dog.
#include <gtest/gtest.h>

#include "src/chaos/watchdog.h"

namespace o1mem {
namespace {

TEST(WatchdogTest, ExpiresOnlyPastTheFullAllowance) {
  static_assert(Watchdog::kHeartbeatIntervalTicks == 4 && Watchdog::kMissedBeats == 3);
  Watchdog dog;
  dog.Beat(0);
  EXPECT_EQ(Watchdog::kAllowanceTicks, 12u);
  for (uint64_t t = 0; t <= 12; ++t) {
    EXPECT_FALSE(dog.Expired(t)) << "tick " << t;
  }
  EXPECT_TRUE(dog.Expired(13));
}

TEST(WatchdogTest, RegularBeatsNeverExpire) {
  Watchdog dog;
  for (uint64_t t = 0; t < 1000; ++t) {
    if (t % Watchdog::kHeartbeatIntervalTicks == 0) {
      dog.Beat(t);
    }
    EXPECT_FALSE(dog.Expired(t)) << "tick " << t;
  }
}

TEST(WatchdogTest, SlowButAliveIsNeverFlagged) {
  // Beating exactly at the deadline -- kAllowanceTicks apart, the slowest
  // legal shard -- must never trip the watchdog.
  Watchdog dog;
  dog.Beat(0);
  for (uint64_t t = 1; t < 600; ++t) {
    if (t % Watchdog::kAllowanceTicks == 0) {
      dog.Beat(t);
    }
    EXPECT_FALSE(dog.Expired(t)) << "tick " << t;
  }
}

TEST(WatchdogTest, MissedBeatsAreDetected) {
  Watchdog dog;
  dog.Beat(100);  // last sign of life
  EXPECT_FALSE(dog.Expired(112));
  EXPECT_TRUE(dog.Expired(113));
  EXPECT_TRUE(dog.Expired(500));  // stays expired until rearmed
}

TEST(WatchdogTest, DisarmAndRearm) {
  // There is no disarmed state: recovery runs within the tick the dog
  // expires on and ends with a beat, and that beat alone rearms the dog
  // with a fresh full allowance.
  Watchdog dog;
  dog.Beat(0);
  EXPECT_TRUE(dog.Expired(1000));  // the shard was down
  dog.Beat(1000);                  // recovered
  EXPECT_FALSE(dog.Expired(1012));
  EXPECT_TRUE(dog.Expired(1013));
}

}  // namespace
}  // namespace o1mem
