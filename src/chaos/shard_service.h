// ShardedKvService: an N-shard KV service over FOM segments that keeps
// serving through a chaos campaign and through overload (src/chaos/
// campaign.h schedules the faults; this applies them and measures what the
// client sees).
//
// Shape: shard k is one FOM process serving a persistent segment
// /srv/shard<k>; request keys route key % N. There is one serving loop, and
// it is open: each tick charges kTickCycles (so client-perceived time
// advances even while a shard is dead), then the arrival process emits
// however many requests it will, whether or not the service kept up.
// ArrivalConfig.enabled == false means exactly one arrival per tick: the
// steady, far-below-capacity load the fault campaigns run under. Every
// request goes the same way:
//
//   * an offer passes the shard's circuit breaker and brownout ladder, then
//     its admission queue (src/chaos/admission.h, breaker.h; all off
//     unless OverloadConfig.enabled, so the default is the unprotected
//     service). A killed shard refuses it at once; a hung shard still
//     queues it, and it expires after kDeadlineTicks;
//   * each shard serves up to kSlotsPerTick queued requests per tick;
//   * a client whose request failed, expired or was shed retries with
//     capped exponential backoff + full jitter (src/chaos/retry.h, seeded --
//     deterministic), up to kRetryMaxAttempts, if the retry budget allows.
//     The give-up rule: a request the overload stack refused at least once
//     (breaker reject, brownout shed, admission shed, retry-budget denial)
//     ends as a clean rejection (rejected_final); one that only ever failed
//     -- timeouts, fail-fasts -- is LOST, and campaigns assert zero lost;
//   * every shard heartbeats its watchdog (src/chaos/watchdog.h) each
//     heartbeat interval, out of band, so a saturated shard still beats;
//     the supervisor kills and recovers a shard whose watchdog expires,
//     while the other shards keep serving;
//   * recovery = exit the zombie (if any), PMFS scrub (journal replay +
//     media patrol), relaunch, remap -- each leg timed separately so the
//     recovery SLO decomposes (detect / scrub / remap / first-served);
//   * a get that hits a media error (poisoned line) repairs the record by
//     rewriting it from the client's authoritative copy -- transient poison
//     heals on overwrite, sticky poison still serves the client copy -- so
//     media faults degrade, never fail, a request;
//   * whole-machine crashes (crash@T, torn write/flush triggers) take every
//     shard down and recover them all through the same recovery path, then
//     resync the client audit to the durable state.
//
// Client-perceived latency (first arrival to success, retries included)
// lands in three histograms: nominal (no fault active), recovery (first-try
// ops served while some shard is down/recovering -- the "surviving shards"
// SLO), and disrupted (ops that needed at least one retry). With an empty
// chaos schedule no engine is built and no fault path runs.
#ifndef O1MEM_SRC_CHAOS_SHARD_SERVICE_H_
#define O1MEM_SRC_CHAOS_SHARD_SERVICE_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/admission.h"
#include "src/chaos/arrival.h"
#include "src/chaos/breaker.h"
#include "src/chaos/campaign.h"
#include "src/chaos/retry.h"
#include "src/chaos/watchdog.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/metrics.h"
#include "src/os/system.h"
#include "src/support/zipf.h"

namespace o1mem {

// The overload protection stack -- per-shard admission shed, retry budget,
// circuit breakers and brownout ladder -- is on or off as a whole. Off (the
// default) is the unprotected service.
struct OverloadConfig {
  bool enabled = false;

  // How abl_overload and --arrival runs configure the protected service.
  static OverloadConfig Protected() { return OverloadConfig{.enabled = true}; }
};

// What a caller sets. The rest of the service's shape is fixed: the
// ShardedKvService constants below, kSlotsPerTick and the overload
// constants (admission.h, breaker.h), the retry constants (retry.h) and
// the watchdog's (watchdog.h).
struct ShardServiceConfig {
  int shards = 4;
  uint64_t shard_bytes = 8 * kMiB;
  uint64_t ops = 20000;  // client arrivals (the arrival budget)
  uint64_t workload_seed = 7;  // key/op mix; independent of the chaos seed
  uint64_t tier_tick_every = 0;  // run System::TierTick every N ticks (0=off)

  ChaosConfig chaos;      // empty schedule: no campaign
  ArrivalConfig arrival;  // disabled: one arrival per tick
  OverloadConfig overload;
};

// One shard recovery, decomposed. shard == -1 means a whole-machine crash
// (every shard went down and came back together).
struct RecoveryEvent {
  int shard = 0;
  const char* cause = "";     // "kill" | "watchdog" | "machine"
  uint64_t down_tick = 0;     // when the shard stopped serving
  uint64_t detect_tick = 0;   // when the supervisor noticed
  double scrub_us = 0;        // PMFS scrub/journal-replay leg
  double remap_us = 0;        // relaunch + open + map leg
  double time_to_first_served_us = 0;  // down -> first successful op
  uint64_t replay_records = 0;         // journal records checked by the scrub
};

// Per-shard overload accounting.
struct ShardOverloadStats {
  uint64_t admitted = 0;
  uint64_t served = 0;
  uint64_t shed_deadline = 0;  // est. wait > remaining deadline (or target)
  uint64_t shed_scan = 0;      // brownout L3: scan class rejected
  uint64_t shed_write = 0;     // brownout L4: write class rejected
  uint64_t expired_in_queue = 0;  // deadline passed while queued (timeout)
  uint64_t failed_fast = 0;       // shard down/queue drained on kill
  uint64_t breaker_rejects = 0;   // rejected while the breaker was open
  uint64_t breaker_transitions = 0;
  std::string breaker_timeline;  // "t=120 open; t=152 half_open; ..."
  uint64_t max_queue_depth = 0;
  // Ticks spent at each brownout level (index 0 = normal serving).
  std::array<uint64_t, BrownoutController::kMaxLevel + 1> brownout_ticks{};
};

// Whole-run overload accounting.
struct OverloadReport {
  bool enabled = false;            // driven by an enabled arrival process
  uint64_t arrivals = 0;           // arrivals generated
  uint64_t admitted = 0;           // accepted into some shard queue
  uint64_t served = 0;             // completed service
  uint64_t served_in_deadline = 0; // completed before the client deadline
  uint64_t sheds = 0;              // all admission-time rejections
  uint64_t rejected_final = 0;     // refused requests given up on (clean 503)
  uint64_t retry_budget_denials = 0;
  uint64_t scan_ops = 0;
  std::vector<ShardOverloadStats> per_shard;
  // Mean queue depth (all shards) over the last two measurement windows;
  // flat across them = no unbounded queue growth (the abl_overload gate).
  double queue_depth_window_a = 0;
  double queue_depth_window_b = 0;
  double goodput_per_tick = 0;  // served_in_deadline / serving ticks
  double capacity_per_tick = 0; // shards * kSlotsPerTick
  // Whole-run figures, computed once from the counts above.
  double goodput_ratio = 0;          // goodput_per_tick / capacity_per_tick
  double shed_rate = 0;              // sheds / arrivals
  uint64_t breaker_transitions = 0;  // summed over shards
  uint64_t brownout_shard_ticks = 0; // shard-ticks spent above brownout L0
  uint64_t max_queue_depth = 0;      // deepest any shard's queue got
};

struct ShardServiceReport {
  uint64_t ops_attempted = 0;  // client arrivals
  uint64_t ops_ok = 0;
  uint64_t ops_lost = 0;  // unrefused requests out of retries (campaigns assert zero)
  uint64_t retries = 0;
  uint64_t timeouts = 0;       // offers that expired in a shard's queue
  uint64_t media_repairs = 0;  // gets that re-wrote a poisoned record
  uint64_t verify_failures = 0;

  uint64_t kills = 0;  // kill firings applied
  uint64_t hangs = 0;
  uint64_t watchdog_kills = 0;  // recoveries triggered by the watchdog
  uint64_t machine_crashes = 0;

  LatencyHistogram nominal;    // no fault active, first-try ops
  LatencyHistogram recovery;   // first-try ops while some shard was down
  LatencyHistogram disrupted;  // ops that needed at least one retry
  std::vector<RecoveryEvent> recoveries;

  uint64_t degraded_reads = 0;       // EventCounters snapshot at the end
  uint64_t poison_quarantines = 0;
  std::string chaos_log;  // replayable firing/recovery record
  double run_us = 0;
  uint64_t ticks = 0;

  OverloadReport overload;

  // End-to-end latency of every completed request (the p999 source) and the
  // tail-blame decomposition computed from service-side accounting -- always
  // filled, with or without observability, so --json and procfs report the
  // tail without post-processing a trace.
  LatencyHistogram all_latency;
  TailSnapshot tail;
};

class ShardedKvService {
 public:
  static constexpr uint64_t kRecordBytes = 1024;  // one key's slot in its shard
  static constexpr double kWriteFraction = 0.3;   // share of non-scan arrivals that put
  static constexpr double kZipfTheta = 0.99;      // key popularity skew
  static constexpr uint64_t kDeadlineTicks = 8;   // client timeout on a hung shard
  static constexpr uint64_t kTickCycles = 2000;   // client-side time per tick (1 us at 2 GHz)
  static constexpr uint64_t kScanRecords = 16;    // records one scan touches

  // `sys` must outlive the service; the caller picks the machine shape
  // (SMP, tier, persistence model). Shards serve on CPU shard % num_cpus.
  ShardedKvService(System& sys, const ShardServiceConfig& config);

  // Builds the shards, runs the campaign to completion (all arrivals
  // resolved, all shards back up), and reports. Call once.
  ShardServiceReport Run();

 private:
  enum class ShardState { kUp, kHung, kDown };

  struct Shard {
    Process* proc = nullptr;
    InodeId inode = 0;
    Vaddr base = 0;
    ShardState state = ShardState::kUp;
    Watchdog dog;
    uint64_t hang_until = 0;
    uint64_t down_tick = 0;
    uint64_t down_cycles = 0;
    bool awaiting_first_serve = false;
    const char* down_cause = "";
  };

  // A client request: op class, arrival stamps, client deadline.
  enum class OpClass : uint8_t { kRead, kWrite, kScan };
  struct OpenRequest {
    uint64_t key = 0;
    OpClass cls = OpClass::kRead;
    int attempts = 1;  // admission attempts (first offer included)
    bool refused = false;  // refused by the overload stack at least once
    uint64_t arrival_tick = 0;   // of the *current* offer (deadline base)
    uint64_t first_arrival_cycles = 0;  // of the original arrival (latency base)
    uint64_t first_arrival_tick = 0;    // end-to-end deadline reference
    // Causal tracing: trace id drawn at arrival from the dedicated seeded
    // stream (drawn whether or not observability is on, so the clock and
    // every counter stay bit-identical either way), plus the request's
    // span-id allocator carried across queuing/retry scopes.
    uint64_t trace_id = 0;
    uint32_t next_span = 2;
    // Blame accounting (pure host-side bookkeeping, never charged cycles):
    // where this request's latency went, accumulated across attempts.
    uint64_t wait_cycles = 0;     // admission-queue time
    uint64_t backoff_cycles = 0;  // client retry backoff
    uint64_t serve_cycles = 0;    // actual service time
    uint64_t park_cycles = 0;     // stamp of the current queue/backoff start
  };

  void SetupShards();
  void ApplyFiring(const ChaosFiring& firing, uint64_t tick);
  void PoisonShard(int shard, bool sticky, bool dram_cache, uint64_t tick);
  // Watchdog recovery of a killed or hung shard: exits the zombie, if any,
  // then Recover.
  void RecoverShard(int index, uint64_t tick);
  // Whole-machine crash: fails every queue, crashes, Recover(-1), then
  // resyncs the client audit to the durable state.
  void MachineCrashRecover(uint64_t tick);
  // The one recovery path: PMFS scrub, bring-up of shard `index` (every
  // shard when index < 0), watchdogs reset, log line, RecoveryEvent.
  void Recover(int index, const char* cause, uint64_t down_tick, uint64_t tick);
  void LogNote(const std::string& line) {
    if (campaign_ != nullptr) {
      campaign_->Note(line);
    }
  }
  void BringUp(int index);  // launch + open + map (no timing)
  bool FaultActive() const;
  uint64_t QueuedRequests() const;  // summed over every shard's admission queue

  // A new client request: stamps its arrival and draws its trace id.
  OpenRequest Arrive(uint64_t key, OpClass cls, uint64_t tick);
  // Routes one offer through breaker + brownout + admission. Sheds go back
  // to the client (retry budget permitting) or become clean rejections.
  void OfferRequest(OpenRequest req, uint64_t tick);
  // One overload shed at shard `index` (brownout scan or write shed,
  // admission shed): bumps `stat` and `counter`, feeds the brownout
  // pressure, and hands the request back to its client as refused.
  void ShedRequest(int index, const OpenRequest& req, uint64_t tick, uint64_t& stat,
                   uint64_t& counter);
  // One failure at shard `index` (fail-fast on a dead shard, drain on kill,
  // queue expiry): bumps `stat`, closes any queue wait, feeds the breaker,
  // and hands the request back to its client as failed, not refused.
  void FailRequest(int index, OpenRequest req, uint64_t tick, uint64_t& stat);
  // Client-side handling shared by every shed (`refused`) and failure path:
  // retry, or give up by the rule in the header comment.
  void ClientRetryOrReject(OpenRequest req, uint64_t tick, bool refused);
  // One shard's serving tick: expire overdue queue heads, then serve up to
  // kSlotsPerTick requests. Heartbeats are NOT sent here -- they are
  // out-of-band in the supervisor loop, so a saturated or shedding shard
  // still beats (the watchdog-vs-overload regression, tests/chaos/).
  void ServeTick(int index, uint64_t tick);
  // Serves `req` on shard `index` (which must be up), then completes it.
  void ServeRequest(int index, OpenRequest& req);
  Status Serve(Shard& shard, const OpenRequest& req);
  // Drains a dead shard's queue back to the clients (fail-fast).
  void FailQueued(int index, uint64_t tick);
  double BrownoutSignal(int index) const;
  void ApplyBrownoutLevels(uint64_t tick);
  // Books (and logs) any breaker transitions since `transitions_before`.
  void NoteBreakerTransitions(int index, uint64_t transitions_before, uint64_t tick);
  uint64_t Offset(uint64_t key) const {
    return (key / static_cast<uint64_t>(config_.shards)) * kRecordBytes;
  }

  // --- completion, causal tracing + tail attribution ------------------------
  // Completes one served request: latency histograms, the per-shard
  // slowest-sample pool the blame table is computed from, the root span +
  // exemplar decision (observer), and the shard's time-to-first-served.
  void FinishRequest(int index, const OpenRequest& req);
  // Reduces the sample pools into report_.tail and publishes it to the
  // observer for the procfs `tailstat` section.
  void FinalizeTail();
  // One MetricSample per supervisor tick (no-op unless tracing is on).
  void PushTickMetric(uint64_t tick, uint64_t queue_depth, uint64_t pending_retries,
                      uint32_t arrivals);
  // Closes the request's open park window (admission queue or retry
  // backoff): folds the elapsed cycles into `acc_cycles` (one of its blame
  // fields) and records an admission_wait/retry_wait child span under its
  // root. `req.park_cycles` is reset to 0.
  void ClosePark(OpenRequest& req, uint64_t& acc_cycles, TraceKind kind);

  System& sys_;
  ShardServiceConfig config_;
  std::vector<Shard> shards_;
  std::vector<uint64_t> client_version_;  // authoritative per-key audit copy
  std::unique_ptr<CampaignEngine> campaign_;
  Rng workload_rng_;
  Rng retry_rng_;
  // Trace ids, one draw per arrival (and per drain-phase probe). A dedicated
  // stream seeded off workload_seed: ids never perturb the workload or retry
  // streams, and the same (workload, seed) replays the same ids bit-for-bit.
  Rng trace_rng_;
  ZipfGenerator zipf_;
  ShardServiceReport report_;
  int num_cpus_ = 1;

  ArrivalProcess arrival_;
  RetryBudget retry_budget_;
  RetryWheel<OpenRequest> retries_;  // client retries awaiting re-offer
  std::vector<AdmissionQueue<OpenRequest>> queues_;   // one per shard
  std::vector<CircuitBreaker> breakers_;              // one per shard
  std::vector<BrownoutController> brownouts_;         // one per shard
  // Per-shard overload pressure feeding the brownout signal. Queue state
  // alone cannot grade overload: admission pins the standing queue at the
  // same depth whether demand is 1.2x or 3x capacity. The fraction of
  // offers shed measures the *exceedance* (≈ 1 - 1/rho), so the combined
  // signal stays monotone in offered load.
  struct ShardPressure {
    uint64_t offers = 0;  // reached admission this tick (post-breaker)
    uint64_t sheds = 0;   // overload sheds this tick (admission or class)
    double shed_ewma = 0.0;
  };
  std::vector<ShardPressure> pressure_;

  // Tail-attribution pools: per-shard completed-request latency histograms
  // plus a fixed pool of the slowest samples per shard (replace-the-minimum,
  // O(1) memory) carrying the wait/backoff/serve decomposition. FinalizeTail
  // reduces these into report_.tail.
  struct TailSample {
    uint64_t latency = 0;
    uint64_t wait = 0;
    uint64_t backoff = 0;
    uint64_t serve = 0;
  };
  static constexpr size_t kTailSamplesPerShard = 32;
  struct TailPool {
    std::vector<TailSample> samples;  // at most kTailSamplesPerShard
    size_t min_i = 0;                 // the first minimum once full
    // Keeps `sample` if the pool has room or it beats the first minimum,
    // which it then replaces. Rescans only when a full pool changes.
    void Offer(const TailSample& sample);
  };
  std::vector<LatencyHistogram> shard_latency_;
  std::vector<TailPool> shard_slowest_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CHAOS_SHARD_SERVICE_H_
