// Open-loop arrival generation: how many client requests land at each tick,
// decoupled from service completion -- the half of overload testing that a
// closed-loop driver (one arrival per finished request) can never exercise,
// because a closed loop self-throttles exactly when the service slows down.
// With an open loop, offered load is a property of the *clients*, so queues
// can actually grow, admission control has something to shed, and queueing
// collapse is an observable outcome instead of a structural impossibility.
//
// Spec grammar (rates are mean arrivals per tick, decimal):
//
//   poisson:<rate>        stationary Poisson arrivals at <rate>/tick
//   burst:<rate>x<len>    square wave: Poisson at <rate> for <len> ticks,
//                         then silent for <len> ticks (mean rate/2)
//   ramp:<lo>-<hi>        Poisson whose rate climbs linearly from <lo> to
//                         <hi> across the arrival horizon, then holds <hi>
//
// Every rate lies in [0, kMaxArrivalRate] and the mean rate is positive.
//
// Per-tick counts are sampled with Knuth's product-of-uniforms Poisson
// method from one seeded Rng, so the same (spec, seed) pair produces the
// same arrival sequence run after run -- the campaign-determinism contract
// extends to load. The op-class mix (read / write / scan) is drawn per
// arrival by the service from its workload Rng, so per-class offered rates
// are rate * class fraction.
//
// A disabled config (the default) emits exactly one arrival per tick and
// draws nothing: the steady load the fault campaigns run under.
#ifndef O1MEM_SRC_CHAOS_ARRIVAL_H_
#define O1MEM_SRC_CHAOS_ARRIVAL_H_

#include <cstdint>
#include <string_view>

#include "src/support/rng.h"
#include "src/support/status.h"

namespace o1mem {

// Knuth's method stops once the running product of uniforms falls to
// e^-rate; past rate ~708 that bound is no longer a normal double (and past
// ~745 it is 0), so the sampler would draw the wrong distribution.
inline constexpr double kMaxArrivalRate = 512.0;

struct ArrivalConfig {
  bool enabled = false;
  enum class Kind { kPoisson, kBurst, kRamp } kind = Kind::kPoisson;
  double rate = 1.0;         // poisson rate; burst high-phase rate
  uint64_t burst_ticks = 0;  // burst: high-phase (= quiet-phase) length
  double ramp_lo = 0.0;      // ramp: starting rate
  double ramp_hi = 0.0;      // ramp: final rate, reached at the horizon

  // Share of arrivals that are scans (the rest split into writes and reads
  // by the service's write fraction).
  double scan_fraction = 0.0;

  // Mean arrivals per tick (for horizon/backstop math). The defaults give
  // 1.0, which is also what a disabled config emits.
  double MeanRate() const {
    switch (kind) {
      case Kind::kPoisson: return rate;
      case Kind::kBurst: return rate / 2.0;
      case Kind::kRamp: return (ramp_lo + ramp_hi) / 2.0;
    }
    return rate;
  }
};

// Parses "poisson:2.5" | "burst:4x200" | "ramp:0.5-3". The returned config
// has enabled == true.
Result<ArrivalConfig> ParseArrival(std::string_view spec);

class ArrivalProcess {
 public:
  // `total_ops` is the arrival budget: once that many arrivals have been
  // generated the process goes quiet (ArrivalsAt returns 0 forever), which
  // bounds every run. Ramp climbs across total_ops / MeanRate() ticks, the
  // expected length of the arrival phase.
  ArrivalProcess(const ArrivalConfig& config, uint64_t total_ops, uint64_t seed);

  // Number of arrivals at `tick` (1 while the budget lasts when the config
  // is disabled). Call once per tick, monotonically.
  uint32_t ArrivalsAt(uint64_t tick);

  // Instantaneous rate at `tick` (the lambda ArrivalsAt samples from).
  double RateAt(uint64_t tick) const;

  bool done() const { return generated_ >= total_ops_; }
  uint64_t generated() const { return generated_; }

 private:
  ArrivalConfig config_;
  uint64_t total_ops_;
  uint64_t horizon_ticks_;
  uint64_t generated_ = 0;
  Rng rng_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CHAOS_ARRIVAL_H_
