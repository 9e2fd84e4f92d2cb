// Client-side retries: capped exponential backoff with full jitter (the AWS
// architecture-blog shape: sleep = uniform[1, min(cap, base*2^n)]).
// Jitter comes from a caller-owned seeded Rng, so retry timing is exactly as
// deterministic as the rest of the simulation -- a chaos campaign replays
// with identical retry schedules. RetryWheel holds the scheduled retries.
#ifndef O1MEM_SRC_CHAOS_RETRY_H_
#define O1MEM_SRC_CHAOS_RETRY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/support/rng.h"

namespace o1mem {

// Client retries: up to kRetryMaxAttempts tries in all (the first attempt
// included), the backoff cap doubling from kRetryBaseDelayTicks after the
// first failure up to kRetryMaxDelayTicks.
inline constexpr int kRetryMaxAttempts = 8;
inline constexpr uint64_t kRetryBaseDelayTicks = 4;
inline constexpr uint64_t kRetryMaxDelayTicks = 512;

// Delay before attempt `attempt`+1, given `attempt` failures so far
// (attempt >= 1). Uniform in [1, min(kRetryMaxDelayTicks,
// kRetryBaseDelayTicks * 2^(attempt-1))].
inline uint64_t BackoffTicks(int attempt, Rng& rng) {
  O1_CHECK(attempt >= 1);
  uint64_t cap = kRetryBaseDelayTicks;
  for (int i = 1; i < attempt && cap < kRetryMaxDelayTicks; ++i) {
    cap *= 2;
  }
  cap = std::min(cap, kRetryMaxDelayTicks);
  return 1 + rng.NextBelow(cap);
}

// Retries awaiting their re-offer tick: a timing wheel with one FIFO bucket
// per tick. Every backoff lies in 1..max(1, max_delay_ticks) (the service
// passes kRetryMaxDelayTicks), so with one bucket more than that horizon an
// entry never shares a bucket with an entry due on another tick. Push and
// PopDue cost O(1) per entry, and the entries due on one tick come out in
// push order.
template <typename T>
class RetryWheel {
 public:
  explicit RetryWheel(uint64_t max_delay_ticks)
      : buckets_(std::max<uint64_t>(1, max_delay_ticks) + 1) {}

  // Schedules `item` for `due_tick`, 1..horizon ticks after `now`.
  void Push(uint64_t now, uint64_t due_tick, const T& item) {
    O1_CHECK(due_tick > now && due_tick - now < buckets_.size());
    buckets_[due_tick % buckets_.size()].push_back(item);
    ++size_;
  }

  // Hands each entry due at `tick` to `fn`, in push order. Call it for every
  // tick in turn. `fn` may Push: those entries are due later, so they never
  // land in the bucket being drained.
  template <typename Fn>
  void PopDue(uint64_t tick, Fn&& fn) {
    std::vector<T>& bucket = buckets_[tick % buckets_.size()];
    for (size_t i = 0; i < bucket.size(); ++i) {
      --size_;
      fn(T(bucket[i]));
    }
    bucket.clear();
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  std::vector<std::vector<T>> buckets_;
  size_t size_ = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CHAOS_RETRY_H_
