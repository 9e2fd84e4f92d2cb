// Unit tests for the overload-robustness primitives: arrival parsing and
// determinism, CoDel-style admission shed bounds, retry-budget exhaustion,
// the breaker state machine, and the brownout ladder's hysteresis.
#include <gtest/gtest.h>

#include "src/chaos/admission.h"
#include "src/chaos/arrival.h"
#include "src/chaos/breaker.h"

namespace o1mem {
namespace {

// --- arrival ---------------------------------------------------------------

TEST(ArrivalTest, ParsesPoisson) {
  auto config = ParseArrival("poisson:2.5");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->enabled);
  EXPECT_EQ(config->kind, ArrivalConfig::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(config->rate, 2.5);
  EXPECT_DOUBLE_EQ(config->MeanRate(), 2.5);
}

TEST(ArrivalTest, ParsesBurst) {
  auto config = ParseArrival("burst:4x200");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->kind, ArrivalConfig::Kind::kBurst);
  EXPECT_DOUBLE_EQ(config->rate, 4.0);
  EXPECT_EQ(config->burst_ticks, 200u);
  EXPECT_DOUBLE_EQ(config->MeanRate(), 2.0);  // square wave: half duty cycle
}

TEST(ArrivalTest, ParsesRamp) {
  auto config = ParseArrival("ramp:0.5-3");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->kind, ArrivalConfig::Kind::kRamp);
  EXPECT_DOUBLE_EQ(config->ramp_lo, 0.5);
  EXPECT_DOUBLE_EQ(config->ramp_hi, 3.0);
  EXPECT_DOUBLE_EQ(config->MeanRate(), 1.75);
}

TEST(ArrivalTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseArrival("poisson").ok());        // no colon
  EXPECT_FALSE(ParseArrival("poisson:").ok());       // no rate
  EXPECT_FALSE(ParseArrival("poisson:0").ok());      // zero mean rate
  EXPECT_FALSE(ParseArrival("burst:4").ok());        // missing x<len>
  EXPECT_FALSE(ParseArrival("burst:4x0").ok());      // zero-length phase
  EXPECT_FALSE(ParseArrival("ramp:1").ok());         // missing -<hi>
  EXPECT_FALSE(ParseArrival("gamma:2").ok());        // unknown process
  EXPECT_FALSE(ParseArrival("poisson:2zzz").ok());   // trailing junk
  // Rates Knuth's sampler cannot draw: e^-rate must stay a normal double.
  EXPECT_FALSE(ParseArrival("poisson:1000").ok());
  EXPECT_FALSE(ParseArrival("poisson:5000").ok());
  EXPECT_FALSE(ParseArrival("poisson:513").ok());
  EXPECT_FALSE(ParseArrival("burst:1000x10").ok());
  EXPECT_FALSE(ParseArrival("ramp:1-1000").ok());
  EXPECT_FALSE(ParseArrival("poisson:inf").ok());    // non-finite
  EXPECT_FALSE(ParseArrival("poisson:nan").ok());
  EXPECT_FALSE(ParseArrival("ramp:nan-4").ok());
  EXPECT_FALSE(ParseArrival("ramp:-5-10").ok());     // negative ramp endpoint
  EXPECT_TRUE(ParseArrival("poisson:512").ok());     // the bound itself
  EXPECT_TRUE(ParseArrival("ramp:0-4").ok());        // a ramp may start at 0
}

TEST(ArrivalTest, SameSeedSameSequence) {
  auto config = ParseArrival("poisson:3");
  ASSERT_TRUE(config.ok());
  ArrivalProcess a(*config, /*total_ops=*/500, /*seed=*/42);
  ArrivalProcess b(*config, /*total_ops=*/500, /*seed=*/42);
  for (uint64_t tick = 0; tick < 400; ++tick) {
    ASSERT_EQ(a.ArrivalsAt(tick), b.ArrivalsAt(tick)) << "tick " << tick;
  }
  EXPECT_EQ(a.generated(), b.generated());
}

TEST(ArrivalTest, DifferentSeedDifferentSequence) {
  auto config = ParseArrival("poisson:3");
  ASSERT_TRUE(config.ok());
  ArrivalProcess a(*config, /*total_ops=*/500, /*seed=*/42);
  ArrivalProcess b(*config, /*total_ops=*/500, /*seed=*/43);
  bool differs = false;
  for (uint64_t tick = 0; tick < 100 && !differs; ++tick) {
    differs = a.ArrivalsAt(tick) != b.ArrivalsAt(tick);
  }
  EXPECT_TRUE(differs);
}

TEST(ArrivalTest, BudgetBoundsGeneration) {
  auto config = ParseArrival("poisson:5");
  ASSERT_TRUE(config.ok());
  ArrivalProcess process(*config, /*total_ops=*/100, /*seed=*/7);
  uint64_t total = 0;
  for (uint64_t tick = 0; tick < 1000; ++tick) {
    total += process.ArrivalsAt(tick);
  }
  EXPECT_EQ(total, 100u);
  EXPECT_TRUE(process.done());
  EXPECT_EQ(process.ArrivalsAt(1000), 0u);
}

TEST(ArrivalTest, BurstQuietPhaseIsSilent) {
  auto config = ParseArrival("burst:6x50");
  ASSERT_TRUE(config.ok());
  ArrivalProcess process(*config, /*total_ops=*/100000, /*seed=*/9);
  uint64_t high = 0;
  for (uint64_t tick = 0; tick < 200; ++tick) {
    const uint32_t n = process.ArrivalsAt(tick);
    const bool high_phase = (tick / 50) % 2 == 0;
    if (!high_phase) {
      EXPECT_EQ(n, 0u) << "tick " << tick;
    }
    high += high_phase ? n : 0;
  }
  EXPECT_GT(high, 0u);
}

TEST(ArrivalTest, RampRateClimbsAndHolds) {
  auto config = ParseArrival("ramp:1-5");
  ASSERT_TRUE(config.ok());
  // The horizon is the op budget at the mean rate: 300 / 3 = 100 ticks.
  ArrivalProcess process(*config, /*total_ops=*/300, /*seed=*/3);
  EXPECT_DOUBLE_EQ(process.RateAt(0), 1.0);
  EXPECT_LT(process.RateAt(25), process.RateAt(75));
  EXPECT_DOUBLE_EQ(process.RateAt(100), 5.0);
  EXPECT_DOUBLE_EQ(process.RateAt(5000), 5.0);  // holds hi past the horizon
}

// --- admission -------------------------------------------------------------

TEST(AdmissionTest, StandingQueueTargetBoundsDepth) {
  // kSlotsPerTick=4, kAdmissionTargetTicks=3: est wait (depth+1)/4 exceeds
  // the target once depth reaches 12, so exactly 12 admits then sheds -- the
  // CoDel-style bound on queued sojourn.
  static_assert(kSlotsPerTick == 4 && kAdmissionTargetTicks == 3);
  AdmissionQueue<int> q(/*enabled=*/true);
  int admitted = 0;
  for (int i = 0; i < 64; ++i) {
    if (q.Offer(i, /*tick=*/0, /*deadline_tick=*/1000) ==
        AdmissionQueue<int>::Verdict::kAdmit) {
      admitted++;
    }
  }
  EXPECT_EQ(admitted, 12);
  EXPECT_EQ(q.depth(), 12u);
  EXPECT_EQ(q.max_depth(), 12u);
  // Draining one service tick's worth re-opens exactly that much room.
  for (int i = 0; i < 4; ++i) {
    q.PopFront();
  }
  EXPECT_EQ(q.Offer(99, 0, 1000), AdmissionQueue<int>::Verdict::kAdmit);
}

TEST(AdmissionTest, DeadlineShedBeatsTarget) {
  // With 1 tick of deadline left, est wait (depth+1)/4 > 1 sheds at depth 4
  // even though the standing target (3 ticks -> depth 12) would admit.
  AdmissionQueue<int> q(/*enabled=*/true);
  int admitted = 0;
  for (int i = 0; i < 16; ++i) {
    if (q.Offer(i, /*tick=*/10, /*deadline_tick=*/11) ==
        AdmissionQueue<int>::Verdict::kAdmit) {
      admitted++;
    }
  }
  EXPECT_EQ(admitted, 4);  // est (4)/4 = 1.0 not > 1.0 admits; (5)/4 > 1 sheds
}

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionQueue<int> q(/*enabled=*/false);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(q.Offer(i, 0, 0), AdmissionQueue<int>::Verdict::kAdmit);
  }
  EXPECT_EQ(q.depth(), 500u);
}

// --- retry budget ----------------------------------------------------------

TEST(RetryBudgetTest, ExhaustsAndRefillsFromSuccesses) {
  static_assert(RetryBudget::kBurst == 16.0 && RetryBudget::kTokensPerSuccess == 0.1);
  RetryBudget budget(/*enabled=*/true);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(budget.TryConsume()) << "token " << i;  // the initial burst
  }
  EXPECT_FALSE(budget.TryConsume());  // exhausted
  for (int i = 0; i < 9; ++i) {
    budget.OnSuccess();
  }
  EXPECT_FALSE(budget.TryConsume());  // 0.9 token: still below 1
  budget.OnSuccess();
  budget.OnSuccess();
  EXPECT_TRUE(budget.TryConsume());  // 1.1 tokens
  EXPECT_FALSE(budget.TryConsume());
}

TEST(RetryBudgetTest, BurstCapsAccumulation) {
  RetryBudget budget(/*enabled=*/true);
  ASSERT_TRUE(budget.TryConsume());
  for (int i = 0; i < 1000; ++i) {
    budget.OnSuccess();
  }
  EXPECT_DOUBLE_EQ(budget.tokens(), RetryBudget::kBurst);
}

TEST(RetryBudgetTest, DisabledNeverDenies) {
  RetryBudget budget(/*enabled=*/false);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(budget.TryConsume());
  }
}

// --- circuit breaker -------------------------------------------------------

TEST(BreakerTest, OpensOnConsecutiveFailuresOnly) {
  static_assert(CircuitBreaker::kFailureThreshold == 5);
  CircuitBreaker breaker(/*enabled=*/true);
  for (uint64_t t = 1; t <= 4; ++t) {
    breaker.RecordFailure(t);
  }
  breaker.RecordSuccess(5);  // resets the consecutive count
  for (uint64_t t = 6; t <= 9; ++t) {
    breaker.RecordFailure(t);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(10);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(11));
}

TEST(BreakerTest, HalfOpenProbesCloseOrReopen) {
  static_assert(CircuitBreaker::kOpenTicks == 32 && CircuitBreaker::kHalfOpenProbes == 2);
  CircuitBreaker breaker(/*enabled=*/true);
  for (uint64_t t = 0; t < 5; ++t) {
    breaker.RecordFailure(t);
  }
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);  // opened at t=4
  EXPECT_FALSE(breaker.Allow(20));  // still cooling down
  EXPECT_FALSE(breaker.Allow(35));
  EXPECT_TRUE(breaker.Allow(36));  // kOpenTicks elapsed -> half-open probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(36);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);  // 1 of 2
  breaker.RecordSuccess(37);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // And the reopen path: a failed probe goes straight back to open.
  for (uint64_t t = 40; t < 45; ++t) {
    breaker.RecordFailure(t);
  }
  ASSERT_TRUE(breaker.Allow(76));
  breaker.RecordFailure(76);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(77));
}

TEST(BreakerTest, TimelineIsDeterministic) {
  auto drive = [] {
    CircuitBreaker breaker(/*enabled=*/true);
    for (uint64_t t = 0; t < 5; ++t) {
      breaker.RecordFailure(t);
    }
    breaker.Allow(36);
    breaker.RecordSuccess(36);
    breaker.RecordSuccess(37);
    return breaker;
  };
  CircuitBreaker a = drive();
  CircuitBreaker b = drive();
  EXPECT_EQ(a.timeline(), b.timeline());
  EXPECT_EQ(a.timeline(), "t=4 open; t=36 half_open; t=37 closed; ");
  EXPECT_EQ(a.transitions(), 3u);
}

TEST(BreakerTest, DisabledNeverOpens) {
  CircuitBreaker breaker(/*enabled=*/false);
  for (uint64_t t = 0; t < 100; ++t) {
    breaker.RecordFailure(t);
    EXPECT_TRUE(breaker.Allow(t));
  }
  EXPECT_EQ(breaker.transitions(), 0u);
}

// --- brownout ladder -------------------------------------------------------

TEST(BrownoutTest, ClimbsOneLevelPerTickAndRestoresInReverse) {
  BrownoutController ctl(/*enabled=*/true);
  // Saturated signal: one level per tick to the top of the ladder.
  EXPECT_EQ(ctl.Update(1.0), 1);
  EXPECT_EQ(ctl.Update(1.0), 2);
  EXPECT_EQ(ctl.Update(1.0), 3);
  EXPECT_EQ(ctl.Update(1.0), 4);
  EXPECT_EQ(ctl.Update(1.0), 4);  // clamps at kMaxLevel
  // Calm signal: each descent needs kHysteresisTicks consecutive calm
  // ticks, and levels shed in reverse order (4 -> 3 -> 2 -> 1 -> 0).
  int level = 4;
  for (int expected = 3; expected >= 0; --expected) {
    for (uint64_t i = 0; i < BrownoutController::kHysteresisTicks - 1; ++i) {
      level = ctl.Update(0.0);
      EXPECT_EQ(level, expected + 1);  // still holding
    }
    level = ctl.Update(0.0);
    EXPECT_EQ(level, expected);
  }
  // Residency saw every level on the way up and down.
  for (int l = 0; l <= BrownoutController::kMaxLevel; ++l) {
    EXPECT_GT(ctl.residency()[static_cast<size_t>(l)], 0u) << "level " << l;
  }
}

TEST(BrownoutTest, SignalBlipResetsHysteresis) {
  BrownoutController ctl(/*enabled=*/true);
  ctl.Update(1.0);  // L1
  for (uint64_t i = 0; i < BrownoutController::kHysteresisTicks - 1; ++i) {
    ctl.Update(0.1);  // calm, one tick short of the hysteresis
  }
  ctl.Update(0.4);  // between kExit[0]=0.25 and kEnter[1]=0.70: resets calm
  for (uint64_t i = 0; i < BrownoutController::kHysteresisTicks - 1; ++i) {
    ctl.Update(0.1);
  }
  EXPECT_EQ(ctl.level(), 1);  // only kHysteresisTicks-1 consecutive calm ticks
  EXPECT_EQ(ctl.Update(0.1), 0);
}

TEST(BrownoutTest, DisabledStaysAtZero) {
  BrownoutController ctl(/*enabled=*/false);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ctl.Update(1.0), 0);
  }
}

}  // namespace
}  // namespace o1mem
