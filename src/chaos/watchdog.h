// Tick-based heartbeat watchdog, one per shard: the shard beats every
// kHeartbeatIntervalTicks while serving; the supervisor polls Expired() each
// tick and declares the shard dead only after kMissedBeats full intervals
// with no beat. A slow-but-alive shard that still beats within the allowance
// is never flagged -- the no-false-positive half of the contract tests pin.
// A beat also rearms an expired watchdog once its shard is recovered.
#ifndef O1MEM_SRC_CHAOS_WATCHDOG_H_
#define O1MEM_SRC_CHAOS_WATCHDOG_H_

#include <cstdint>

namespace o1mem {

class Watchdog {
 public:
  static constexpr uint64_t kHeartbeatIntervalTicks = 4;
  static constexpr uint64_t kMissedBeats = 3;
  static constexpr uint64_t kAllowanceTicks = kHeartbeatIntervalTicks * kMissedBeats;

  void Beat(uint64_t tick) { last_beat_ = tick; }

  // True once more than kAllowanceTicks have passed since the last beat
  // (strictly more: a beat exactly on the deadline still counts).
  bool Expired(uint64_t tick) const { return tick > last_beat_ + kAllowanceTicks; }

 private:
  uint64_t last_beat_ = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CHAOS_WATCHDOG_H_
