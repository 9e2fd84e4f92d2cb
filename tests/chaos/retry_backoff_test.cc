// Client backoff: capped exponential backoff with full jitter must be
// deterministic per seed, bounded by [1, min(cap, base * 2^(n-1))], and
// clamped at kRetryMaxDelayTicks for deep retries. RetryWheel must hand back
// every retry exactly on its due tick, in push order.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/chaos/retry.h"

namespace o1mem {
namespace {

TEST(RetryPolicyTest, SameSeedSameSchedule) {
  Rng a(42);
  Rng b(42);
  for (int attempt = 1; attempt <= 16; ++attempt) {
    EXPECT_EQ(BackoffTicks(attempt, a), BackoffTicks(attempt, b));
  }
}

TEST(RetryPolicyTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  std::vector<uint64_t> sa;
  std::vector<uint64_t> sb;
  for (int attempt = 1; attempt <= 16; ++attempt) {
    sa.push_back(BackoffTicks(attempt, a));
    sb.push_back(BackoffTicks(attempt, b));
  }
  EXPECT_NE(sa, sb);
}

TEST(RetryPolicyTest, BoundedByExponentialCap) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    for (int attempt = 1; attempt <= 12; ++attempt) {
      const uint64_t delay = BackoffTicks(attempt, rng);
      EXPECT_GE(delay, 1u);
      uint64_t cap = kRetryBaseDelayTicks;
      for (int i = 1; i < attempt && cap < kRetryMaxDelayTicks; ++i) {
        cap *= 2;
      }
      cap = std::min(cap, kRetryMaxDelayTicks);
      EXPECT_LE(delay, cap) << "attempt " << attempt;
    }
  }
}

TEST(RetryPolicyTest, DeepRetriesClampAtMaxDelay) {
  Rng rng(9);
  uint64_t max_seen = 0;
  for (int attempt = 20; attempt <= 40; ++attempt) {
    for (int trial = 0; trial < 100; ++trial) {
      max_seen = std::max(max_seen, BackoffTicks(attempt, rng));
    }
  }
  EXPECT_LE(max_seen, kRetryMaxDelayTicks);
  // Full jitter still spreads over the cap (not pinned to one value).
  EXPECT_GT(max_seen, kRetryMaxDelayTicks / 2);
}

TEST(RetryPolicyTest, FirstRetryUsesBaseWindow) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t delay = BackoffTicks(1, rng);
    EXPECT_GE(delay, 1u);
    EXPECT_LE(delay, kRetryBaseDelayTicks);
  }
}

// Drives a wheel tick by tick. Each tick pushes several entries due at
// offset 1 and at the longest backoff (one of them before that tick's pop,
// the way a fail-fast at the tick's start does), so due ticks wrap the
// wheel many times over and every bucket holds entries pushed on different
// ticks. Each entry must come out exactly on its due tick, and each tick's
// entries in push order.
void CheckWheel(uint64_t max_delay_ticks) {
  SCOPED_TRACE("max_delay_ticks=" + std::to_string(max_delay_ticks));
  // The longest backoff BackoffTicks could draw with this cap.
  const uint64_t horizon = std::max<uint64_t>(1, max_delay_ticks);
  RetryWheel<std::pair<uint64_t, uint64_t>> wheel(max_delay_ticks);  // (push seq, due tick)
  uint64_t seq = 0;
  uint64_t pushed = 0;
  uint64_t popped = 0;
  const uint64_t ticks = 5 * (horizon + 1) + 3;
  for (uint64_t tick = 0; tick < ticks; ++tick) {
    const bool pushing = tick + horizon < ticks;
    if (pushing) {
      wheel.Push(tick, tick + horizon, {seq++, tick + horizon});
      ++pushed;
    }
    uint64_t last_seq = 0;
    bool first = true;
    wheel.PopDue(tick, [&](std::pair<uint64_t, uint64_t> e) {
      EXPECT_EQ(e.second, tick) << "entry " << e.first;
      if (!first) {
        EXPECT_GT(e.first, last_seq) << "out of push order at tick " << tick;
      }
      first = false;
      last_seq = e.first;
      ++popped;
    });
    if (pushing) {
      for (int k = 0; k < 3; ++k) {
        wheel.Push(tick, tick + 1, {seq++, tick + 1});
        wheel.Push(tick, tick + horizon, {seq++, tick + horizon});
        pushed += 2;
      }
    }
    EXPECT_EQ(wheel.size(), pushed - popped);
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_TRUE(wheel.empty());
}

TEST(RetryWheelTest, DueEntriesComeOutOnTimeInPushOrder) {
  for (uint64_t max_delay : {0u, 1u, 2u, 7u, 512u}) {
    CheckWheel(max_delay);
  }
}

TEST(RetryWheelTest, HoldsEveryBackoffThePolicyDraws) {
  // Every backoff the client can draw fits the wheel the service sizes with
  // kRetryMaxDelayTicks.
  RetryWheel<uint64_t> wheel(kRetryMaxDelayTicks);
  Rng rng(3);
  for (int attempt = 1; attempt <= 16; ++attempt) {
    const uint64_t due = 100 + BackoffTicks(attempt, rng);
    wheel.Push(100, due, due);
  }
  uint64_t popped = 0;
  for (uint64_t tick = 101; tick <= 100 + kRetryMaxDelayTicks; ++tick) {
    wheel.PopDue(tick, [&](uint64_t due) {
      EXPECT_EQ(due, tick);
      ++popped;
    });
  }
  EXPECT_EQ(popped, 16u);
}

}  // namespace
}  // namespace o1mem
