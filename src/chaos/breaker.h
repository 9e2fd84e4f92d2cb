// Per-shard circuit breaker: closed -> open -> half-open, driven by the
// client-visible failure signals of one shard (consecutive timeouts and
// fail-fasts).
//
// Why a breaker on top of deadlines + retries: a hung or dead shard makes
// every request burn its full deadline before the client gives up and
// retries. Under open-loop arrival that is an amplifier -- each arrival
// wastes a deadline's worth of queue residency and then re-offers itself.
// The breaker converts that into a fast-fail at admission: after
// kFailureThreshold consecutive failures the breaker opens and requests
// are rejected instantly (no queue entry, no deadline burn) for
// kOpenTicks; then one half-open window admits kHalfOpenProbes requests,
// and their outcome decides between closing and re-opening.
//
// Everything is a pure function of the observed (tick, outcome) sequence --
// no randomness -- so under a seeded campaign the state timeline replays
// bit-identically (the transition log is part of the determinism contract
// tested in tests/chaos/).
#ifndef O1MEM_SRC_CHAOS_BREAKER_H_
#define O1MEM_SRC_CHAOS_BREAKER_H_

#include <cstdint>
#include <string>

namespace o1mem {

class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed, kOpen, kHalfOpen };

  static constexpr int kFailureThreshold = 5;  // consecutive failures that open it
  static constexpr uint64_t kOpenTicks = 32;   // cool-down before the half-open window
  static constexpr int kHalfOpenProbes = 2;    // consecutive successes that close it again

  explicit CircuitBreaker(bool enabled) : enabled_(enabled) {}

  // May this request proceed to admission at `tick`? Open rejects until the
  // cool-down elapses, then shifts to half-open and admits probes.
  bool Allow(uint64_t tick) {
    if (!enabled_) {
      return true;
    }
    if (state_ == State::kOpen) {
      if (tick < open_until_) {
        return false;
      }
      Shift(State::kHalfOpen, tick);
    }
    return true;
  }

  // Outcome feedback.
  void RecordSuccess(uint64_t tick) {
    if (!enabled_) {
      return;
    }
    consecutive_failures_ = 0;
    if (state_ == State::kHalfOpen) {
      if (++half_open_successes_ >= kHalfOpenProbes) {
        Shift(State::kClosed, tick);
      }
    }
  }

  void RecordFailure(uint64_t tick) {
    if (!enabled_) {
      return;
    }
    if (state_ == State::kHalfOpen) {
      Open(tick);  // a probe failed: straight back to open
      return;
    }
    if (state_ == State::kClosed && ++consecutive_failures_ >= kFailureThreshold) {
      Open(tick);
    }
  }

  State state() const { return state_; }
  uint64_t transitions() const { return transitions_; }
  // "t=120 open; t=152 half_open; t=153 closed; " -- deterministic given the
  // outcome sequence, diffed by the determinism tests and the chaos log.
  const std::string& timeline() const { return timeline_; }

  static const char* StateName(State s) {
    switch (s) {
      case State::kClosed: return "closed";
      case State::kOpen: return "open";
      case State::kHalfOpen: return "half_open";
    }
    return "?";
  }

 private:
  void Open(uint64_t tick) {
    open_until_ = tick + kOpenTicks;
    Shift(State::kOpen, tick);
  }

  void Shift(State next, uint64_t tick) {
    state_ = next;
    consecutive_failures_ = 0;
    half_open_successes_ = 0;
    transitions_++;
    timeline_ += "t=" + std::to_string(tick) + " " + StateName(next) + "; ";
  }

  bool enabled_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  uint64_t open_until_ = 0;
  uint64_t transitions_ = 0;
  std::string timeline_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CHAOS_BREAKER_H_
