// Chaos campaigns: deterministic, seeded fault schedules over the simulated
// OS, so every failure scenario is a reproducible fixture instead of a
// hand-rolled one-off.
//
// A campaign is a declarative schedule parsed from a compact spec string --
// "kill shard 1 at tick 500; poison a random NVM page every 4000 ticks;
// crash the machine at the 70th journal flush" -- and driven tick-by-tick by
// a CampaignEngine. Every random choice (which shard, which page) comes from
// one seeded Rng owned by the engine, so the same (spec, seed) pair fires
// the same faults at the same ticks against the same targets, run after run:
// the engine's event log and the machine's counters replay bit-identically.
//
// Grammar (actions separated by ';', whitespace ignored; T/N/J/S/H are
// decimal integers, S may be 'r' = pick a shard at fire time):
//
//   kill@T:S         exit shard S's process at tick T (no warning)
//   hang@T:SxH       shard S stops serving and heartbeating for H ticks
//   poison@T[:S][!]  poison one random NVM line of shard S's segment at
//                    tick T; trailing '!' makes it sticky (unrepairable)
//   poison@everyN[:S][!]   same, periodically every N ticks
//   poisondram@T[:S] poison one random line of a promoted DRAM cache copy
//   crash@T          whole-machine power failure at tick T
//   tornwrite@J      arm a power cut at the J-th NVM line write, with torn
//                    persists enabled (kExplicitFlush only)
//   tornflush@J      same, counted in NVM flush events
//
// The engine only *schedules*: the service (src/chaos/shard_service) applies
// each firing to the System and reports what happened. With an empty
// schedule (a default-constructed ChaosConfig) the service never builds an
// engine, so the chaos path adds zero cycles and zero behavior change when
// off.
#ifndef O1MEM_SRC_CHAOS_CAMPAIGN_H_
#define O1MEM_SRC_CHAOS_CAMPAIGN_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/support/rng.h"
#include "src/support/status.h"

namespace o1mem {

enum class ChaosKind {
  kKillShard,       // exit the shard process
  kHangShard,       // shard stops serving/heartbeating for duration_ticks
  kPoisonNvm,       // poison a random NVM line of the shard's segment
  kPoisonDram,      // poison a random promoted DRAM cache line
  kCrashMachine,    // whole-machine power failure
  kTornWriteCrash,  // arm crash at NVM write event_index (torn persists)
  kTornFlushCrash,  // arm crash at NVM flush event_index (torn persists)
};

const char* ChaosKindName(ChaosKind kind);

struct ChaosAction {
  ChaosKind kind = ChaosKind::kKillShard;
  uint64_t at_tick = 0;      // firing tick (first firing when periodic)
  uint64_t every_ticks = 0;  // 0 = one-shot, else period
  int shard = -1;            // -1 = draw a shard at fire time
  uint64_t duration_ticks = 0;  // kHangShard: how long the shard is gone
  uint64_t event_index = 0;     // kTorn*Crash: armed fault-injector index
  bool sticky = false;          // poison: survives rewrites and reboots
};

struct ChaosConfig {
  uint64_t seed = 1;
  std::vector<ChaosAction> schedule;
};

// One concrete firing: the action with its random choices resolved.
struct ChaosFiring {
  ChaosKind kind = ChaosKind::kKillShard;
  uint64_t tick = 0;
  int shard = -1;  // resolved (>= 0) for shard-targeted kinds
  uint64_t duration_ticks = 0;
  uint64_t event_index = 0;
  bool sticky = false;
};

// Parses a campaign spec (grammar above). A spec without actions yields an
// empty schedule: no campaign.
Result<ChaosConfig> ParseCampaign(std::string_view spec, uint64_t seed);

// The canned campaign CI runs: one kill, one watchdog-length hang, one
// sticky poison, and periodic transient poison, all scaled to a run of
// `ticks` ticks.
std::string DefaultCampaignSpec(uint64_t ticks);

class CampaignEngine {
 public:
  CampaignEngine(const ChaosConfig& config, int num_shards);

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  // All firings due at `tick` (call once per tick, monotonically). Random
  // shard targets are resolved here, from the engine's seeded Rng, and each
  // firing is appended to the event log.
  std::vector<ChaosFiring> Poll(uint64_t tick);

  // Deterministic draw for the service's own random choices (which page to
  // poison, jitter, ...) so one seed governs the whole campaign.
  uint64_t Draw(uint64_t bound) { return rng_.NextBelow(bound); }

  // Appends one line to the event log (service-side detail: what a firing
  // actually did). Lines must be deterministic given (spec, seed).
  void Note(const std::string& line);

  // The replayable record: one line per firing/note, in order.
  const std::string& LogString() const { return log_; }
  uint64_t firings() const { return firings_; }

 private:
  struct Scheduled {
    ChaosAction action;
    uint64_t next_tick;
    bool done = false;
  };

  std::vector<Scheduled> schedule_;
  int num_shards_;
  Rng rng_;
  std::string log_;
  uint64_t firings_ = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CHAOS_CAMPAIGN_H_
