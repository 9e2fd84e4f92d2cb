// Admission control and brownout: the shed-early half of overload
// robustness. Three pieces, all deterministic (no randomness -- decisions
// are pure functions of queue state and tick), each switched by one bool
// (OverloadConfig::enabled) and otherwise fixed by the constants below:
//
//   * AdmissionQueue -- a per-shard FIFO with deadline-aware shed at
//     admission (CoDel-flavored): service capacity is kSlotsPerTick
//     requests per tick, so the wait a new request faces is
//     (depth + 1) / kSlotsPerTick ticks. If that estimated wait exceeds the
//     request's remaining deadline -- or the standing-queue target
//     kAdmissionTargetTicks, which bounds the sojourn tail the way CoDel's
//     5 ms target does -- the request is shed *at admission*, before it
//     wastes queue residency or service work. The target also bounds the
//     queue: it never holds more than kAdmissionTargetTicks * kSlotsPerTick
//     requests.
//
//   * RetryBudget -- a token bucket that caps client retry amplification:
//     every successful request earns kTokensPerSuccess (so the sustained
//     retry rate is at most that fraction of goodput), every retry spends
//     one token, and an empty bucket turns a would-be retry into a clean
//     rejection. This is what stops a shedding service from drowning in its
//     own clients' retries (backoff alone only *delays* the storm; the
//     budget bounds it).
//
//   * BrownoutController -- a per-shard overload ladder. The service feeds
//     it 0.5 x the standing-queue ratio (depth over the target depth) plus
//     an EWMA of the fraction of offers shed, capped at 1; levels shed
//     optional work in a fixed order and restore it in reverse:
//       L1  pause tier promotions/demotions/writeback ticks (TierEngine)
//       L2  drain the pre-zeroed pool without background refill (PhysManager)
//       L3  reject scan-class requests at admission
//       L4  reject write-class requests too (reads keep serving)
//     Transitions move one level per tick; climbing needs the signal at or
//     above kEnter[level], descending needs it below kExit[level-1] for
//     kHysteresisTicks consecutive ticks, so the ladder cannot flap.
//     Brownout NEVER touches durability: journaled writeback of *dirty*
//     promoted data via UserFlush still runs at any level -- only
//     tick-driven optional migrations are deferred (DESIGN.md Sec. 12).
#ifndef O1MEM_SRC_CHAOS_ADMISSION_H_
#define O1MEM_SRC_CHAOS_ADMISSION_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>

#include "src/support/check.h"

namespace o1mem {

// Per-shard service capacity: a shard serves at most this many queued
// requests per tick. Offered load / (shards * kSlotsPerTick) is the load
// factor abl_overload reports against.
inline constexpr uint64_t kSlotsPerTick = 4;
// Standing-queue sojourn target of the admission shed.
inline constexpr uint64_t kAdmissionTargetTicks = 3;

class RetryBudget {
 public:
  static constexpr double kTokensPerSuccess = 0.1;  // sustained retries <= 10% of goodput
  static constexpr double kBurst = 16.0;            // bucket capacity (and initial balance)

  explicit RetryBudget(bool enabled) : enabled_(enabled) {}

  // True (and one token spent) when a retry may be scheduled. With the
  // budget disabled every retry is allowed.
  bool TryConsume() {
    if (!enabled_) {
      return true;
    }
    if (tokens_ < 1.0) {
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

  void OnSuccess() {
    if (enabled_ && tokens_ < kBurst) {
      tokens_ = std::min(kBurst, tokens_ + kTokensPerSuccess);
    }
  }

  double tokens() const { return tokens_; }

 private:
  bool enabled_;
  double tokens_ = kBurst;
};

// FIFO of requests for one shard. The request payload lives with the
// caller; the queue holds caller-provided POD items of type T.
template <typename T>
class AdmissionQueue {
 public:
  enum class Verdict { kAdmit, kShed };

  explicit AdmissionQueue(bool enabled) : enabled_(enabled) {}

  // Admission decision for a request whose deadline is `deadline_tick`,
  // arriving at `tick`. kAdmit pushes the item. The estimated wait covers
  // everything already queued plus the request itself.
  Verdict Offer(const T& item, uint64_t tick, uint64_t deadline_tick) {
    if (enabled_) {
      const double est =
          static_cast<double>(queue_.size() + 1) / static_cast<double>(kSlotsPerTick);
      const double remaining =
          deadline_tick > tick ? static_cast<double>(deadline_tick - tick) : 0.0;
      if (est > remaining || est > static_cast<double>(kAdmissionTargetTicks)) {
        return Verdict::kShed;
      }
    }
    queue_.push_back(item);
    max_depth_ = std::max<uint64_t>(max_depth_, queue_.size());
    return Verdict::kAdmit;
  }

  bool empty() const { return queue_.empty(); }
  size_t depth() const { return queue_.size(); }
  uint64_t max_depth() const { return max_depth_; }
  const T& front() const { return queue_.front(); }
  T PopFront() {
    T item = queue_.front();
    queue_.pop_front();
    return item;
  }

 private:
  bool enabled_;
  std::deque<T> queue_;
  uint64_t max_depth_ = 0;
};

class BrownoutController {
 public:
  static constexpr int kMaxLevel = 4;
  // kEnter[k]: signal at which level k+1 engages; kExit[k]: signal below
  // which level k+1 disengages (after kHysteresisTicks below it).
  static constexpr std::array<double, kMaxLevel> kEnter = {0.50, 0.70, 0.85, 0.95};
  static constexpr std::array<double, kMaxLevel> kExit = {0.25, 0.35, 0.45, 0.55};
  static constexpr uint64_t kHysteresisTicks = 32;
  // Weight of the latest tick in the shed-fraction EWMA the signal carries.
  static constexpr double kShedEwmaWeight = 0.125;

  explicit BrownoutController(bool enabled) : enabled_(enabled) {}

  // One step per tick: climb when the signal reaches the next enter
  // watermark, descend one level after kHysteresisTicks consecutive ticks
  // below the current exit watermark. Returns the (possibly new) level.
  int Update(double signal) {
    if (!enabled_) {
      return 0;
    }
    if (level_ < kMaxLevel && signal >= kEnter[static_cast<size_t>(level_)]) {
      ++level_;
      calm_ticks_ = 0;
    } else if (level_ > 0 && signal < kExit[static_cast<size_t>(level_ - 1)]) {
      if (++calm_ticks_ >= kHysteresisTicks) {
        --level_;
        calm_ticks_ = 0;
      }
    } else {
      calm_ticks_ = 0;
    }
    residency_[static_cast<size_t>(level_)]++;
    return level_;
  }

  int level() const { return level_; }
  // Ticks spent at each level (index 0 = not browned out).
  const std::array<uint64_t, kMaxLevel + 1>& residency() const { return residency_; }

 private:
  bool enabled_;
  int level_ = 0;
  uint64_t calm_ticks_ = 0;
  std::array<uint64_t, kMaxLevel + 1> residency_{};
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CHAOS_ADMISSION_H_
