#include "src/chaos/shard_service.h"

#include <algorithm>
#include <cstring>

#include "src/obs/span.h"

namespace o1mem {

namespace {
// Every put writes (and every get reads) one 64 B line of the record:
// [version u64][key u64][payload fill]. One line keeps op cost realistic
// without dominating the campaign with bulk copies.
constexpr uint64_t kLineBytes = 64;
static_assert(ShardedKvService::kRecordBytes >= kLineBytes);

void EncodeRecord(uint8_t* line, uint64_t version, uint64_t key) {
  std::memcpy(line, &version, sizeof(version));
  std::memcpy(line + sizeof(version), &key, sizeof(key));
  std::memset(line + 16, static_cast<int>(version & 0xff), kLineBytes - 16);
}
}  // namespace

ShardedKvService::ShardedKvService(System& sys, const ShardServiceConfig& config)
    : sys_(sys),
      config_(config),
      client_version_(static_cast<uint64_t>(config.shards) *
                      (config.shard_bytes / kRecordBytes)),
      workload_rng_(config.workload_seed),
      retry_rng_(config.chaos.seed ^ 0x9e3779b97f4a7c15ULL),
      trace_rng_(config.workload_seed ^ 0x0ddc0ffeebadf00dULL),
      zipf_(client_version_.size(), kZipfTheta),
      // One arrival stream per run, seeded independently of the chaos seed so
      // (arrival spec, campaign, seed) each govern their own random stream.
      arrival_(config.arrival, config.ops, config.workload_seed ^ 0xa5c1d34b9e77f210ULL),
      retry_budget_(config.overload.enabled),
      retries_(kRetryMaxDelayTicks) {
  O1_CHECK(config.shards > 0);
  O1_CHECK(config.shard_bytes % kRecordBytes == 0);
  if (!config_.chaos.schedule.empty()) {
    campaign_ = std::make_unique<CampaignEngine>(config_.chaos, config_.shards);
  }
  num_cpus_ = sys_.machine().config().smp.num_cpus;
  shard_latency_.resize(static_cast<size_t>(config_.shards));
  shard_slowest_.resize(static_cast<size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    queues_.emplace_back(config_.overload.enabled);
    breakers_.emplace_back(config_.overload.enabled);
    brownouts_.emplace_back(config_.overload.enabled);
  }
  pressure_.resize(static_cast<size_t>(config_.shards));
  report_.overload.per_shard.resize(static_cast<size_t>(config_.shards));
}

void ShardedKvService::BringUp(int index) {
  Shard& shard = shards_[static_cast<size_t>(index)];
  auto proc = sys_.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  shard.proc = *proc;
  auto seg = sys_.fom().OpenSegment("/srv/shard" + std::to_string(index));
  O1_CHECK(seg.ok());
  shard.inode = *seg;
  auto base = sys_.fom().Map(shard.proc->fom(), *seg, Prot::kReadWrite);
  O1_CHECK(base.ok());
  shard.base = *base;
}

void ShardedKvService::SetupShards() {
  for (int i = 0; i < config_.shards; ++i) {
    auto inode = sys_.fom().CreateSegment(
        "/srv/shard" + std::to_string(i), config_.shard_bytes,
        SegmentOptions{.flags = FileFlags{.persistent = true}});
    O1_CHECK(inode.ok());
    shards_.emplace_back();
    BringUp(i);
  }
}

uint64_t ShardedKvService::QueuedRequests() const {
  uint64_t depth = 0;
  for (const auto& q : queues_) {
    depth += q.depth();
  }
  return depth;
}

bool ShardedKvService::FaultActive() const {
  for (const Shard& shard : shards_) {
    if (shard.state != ShardState::kUp || shard.awaiting_first_serve) {
      return true;
    }
  }
  return false;
}

void ShardedKvService::PoisonShard(int index, bool sticky, bool dram_cache, uint64_t tick) {
  Shard& shard = shards_[static_cast<size_t>(index)];
  FaultInjector& injector = sys_.machine().fault_injector();
  if (dram_cache) {
    TierEngine* tier = sys_.tier();
    if (tier == nullptr) {
      campaign_->Note("t=" + std::to_string(tick) + " poisondram skipped (tier off)");
      return;
    }
    std::vector<PromotedExtent> promoted = tier->PromotedOf(shard.inode);
    if (promoted.empty()) {
      campaign_->Note("t=" + std::to_string(tick) + " poisondram skipped (nothing promoted)");
      return;
    }
    const PromotedExtent& e = promoted[campaign_->Draw(promoted.size())];
    const uint64_t line = campaign_->Draw(e.bytes / kLineBytes);
    injector.MarkUnreadable(e.cache + line * kLineBytes, /*sticky=*/false);
    campaign_->Note("t=" + std::to_string(tick) + " poisondram shard=" + std::to_string(index) +
                    " off=" + std::to_string(e.off + line * kLineBytes));
    return;
  }
  auto extents = sys_.pmfs().Extents(shard.inode);
  if (!extents.ok() || extents->empty()) {
    campaign_->Note("t=" + std::to_string(tick) + " poison skipped (no extents)");
    return;
  }
  const FileExtentView& e = (*extents)[campaign_->Draw(extents->size())];
  const uint64_t line = campaign_->Draw(e.bytes / kLineBytes);
  injector.MarkUnreadable(e.paddr + line * kLineBytes, sticky);
  campaign_->Note("t=" + std::to_string(tick) + " poison shard=" + std::to_string(index) +
                  " off=" + std::to_string(e.file_offset + line * kLineBytes) +
                  (sticky ? " sticky" : ""));
}

void ShardedKvService::ApplyFiring(const ChaosFiring& firing, uint64_t tick) {
  switch (firing.kind) {
    case ChaosKind::kKillShard: {
      Shard& shard = shards_[static_cast<size_t>(firing.shard)];
      if (shard.state != ShardState::kUp) {
        campaign_->Note("t=" + std::to_string(tick) + " kill skipped (shard already down)");
        return;
      }
      O1_CHECK(sys_.Exit(shard.proc).ok());
      shard.proc = nullptr;
      shard.state = ShardState::kDown;
      shard.down_tick = tick;
      shard.down_cycles = sys_.ctx().now();
      shard.down_cause = "kill";
      report_.kills++;
      return;
    }
    case ChaosKind::kHangShard: {
      Shard& shard = shards_[static_cast<size_t>(firing.shard)];
      if (shard.state != ShardState::kUp) {
        campaign_->Note("t=" + std::to_string(tick) + " hang skipped (shard not up)");
        return;
      }
      shard.state = ShardState::kHung;
      shard.hang_until = tick + firing.duration_ticks;
      shard.down_tick = tick;
      shard.down_cycles = sys_.ctx().now();
      shard.down_cause = "watchdog";
      report_.hangs++;
      return;
    }
    case ChaosKind::kPoisonNvm:
      PoisonShard(firing.shard, firing.sticky, /*dram_cache=*/false, tick);
      return;
    case ChaosKind::kPoisonDram:
      PoisonShard(firing.shard, /*sticky=*/false, /*dram_cache=*/true, tick);
      return;
    case ChaosKind::kCrashMachine:
      MachineCrashRecover(tick);
      return;
    case ChaosKind::kTornWriteCrash:
      sys_.machine().fault_injector().EnableTornPersists(config_.chaos.seed);
      sys_.machine().fault_injector().ArmCrashAtNvmWrite(firing.event_index);
      return;
    case ChaosKind::kTornFlushCrash:
      sys_.machine().fault_injector().EnableTornPersists(config_.chaos.seed);
      sys_.machine().fault_injector().ArmCrashAtFlush(firing.event_index);
      return;
  }
}

Status ShardedKvService::Serve(Shard& shard, const OpenRequest& req) {
  // A scan gets kScanRecords consecutive records of this shard (stride =
  // shards in key space keeps every touched key on the same shard), wrapping.
  const uint64_t records = req.cls == OpClass::kScan ? kScanRecords : 1;
  for (uint64_t j = 0; j < records; ++j) {
    const uint64_t key =
        (req.key + j * static_cast<uint64_t>(config_.shards)) % client_version_.size();
    ObsSpan span(sys_.ctx(), TraceKind::kServiceOp, kLineBytes);
    const Vaddr addr = shard.base + Offset(key);
    uint8_t line[kLineBytes];
    if (req.cls == OpClass::kWrite) {
      EncodeRecord(line, client_version_[key] + 1, key);
      O1_RETURN_IF_ERROR(sys_.UserWrite(*shard.proc, addr, line));
      O1_RETURN_IF_ERROR(sys_.UserFlush(*shard.proc, addr, kLineBytes));
      client_version_[key]++;
      continue;
    }
    Status read = sys_.UserRead(*shard.proc, addr, line);
    if (read.code() == StatusCode::kMediaError) {
      // Degraded serving: the client copy is authoritative, so repair the
      // record by rewriting it. Transient poison heals on the overwrite;
      // sticky poison keeps failing reads, but the op still succeeds from the
      // client copy either way.
      EncodeRecord(line, client_version_[key], key);
      O1_RETURN_IF_ERROR(sys_.UserWrite(*shard.proc, addr, line));
      O1_RETURN_IF_ERROR(sys_.UserFlush(*shard.proc, addr, kLineBytes));
      report_.media_repairs++;
      continue;
    }
    O1_RETURN_IF_ERROR(read);
    if (client_version_[key] != 0) {
      uint64_t version = 0;
      uint64_t stored_key = 0;
      std::memcpy(&version, line, sizeof(version));
      std::memcpy(&stored_key, line + sizeof(version), sizeof(stored_key));
      if (version != client_version_[key] || stored_key != key) {
        report_.verify_failures++;
      }
    }
  }
  return OkStatus();
}

// --- completion, causal tracing + tail attribution ---------------------------

void ShardedKvService::ClosePark(OpenRequest& req, uint64_t& acc_cycles, TraceKind kind) {
  if (req.park_cycles == 0) {
    return;
  }
  const uint64_t dur = sys_.ctx().now() - req.park_cycles;
  acc_cycles += dur;
  Observer* obs = sys_.ctx().obs();
  if (obs != nullptr && req.trace_id != 0 && obs->WantsSpan()) {
    obs->RecordSpan(kind, 0, req.park_cycles, dur, 0, req.trace_id, req.next_span++,
                    /*parent_span=*/1);
  }
  req.park_cycles = 0;
}

void ShardedKvService::FinishRequest(int index, const OpenRequest& req) {
  report_.ops_ok++;
  const uint64_t latency = sys_.ctx().now() - req.first_arrival_cycles;
  if (req.attempts > 1) {
    report_.disrupted.Record(latency);
  } else if (FaultActive()) {
    report_.recovery.Record(latency);
  } else {
    report_.nominal.Record(latency);
  }
  report_.all_latency.Record(latency);
  shard_latency_[static_cast<size_t>(index)].Record(latency);
  shard_slowest_[static_cast<size_t>(index)].Offer(
      {latency, req.wait_cycles, req.backoff_cycles, req.serve_cycles});
  Observer* obs = sys_.ctx().obs();
  if (obs != nullptr) {
    const TraceKind kind = req.cls == OpClass::kScan    ? TraceKind::kKvScan
                           : req.cls == OpClass::kWrite ? TraceKind::kKvPut
                                                        : TraceKind::kKvGet;
    obs->EndRequest(kind, 0, req.first_arrival_cycles, latency, kLineBytes, req.trace_id);
  }
  Shard& shard = shards_[static_cast<size_t>(index)];
  if (shard.awaiting_first_serve) {
    shard.awaiting_first_serve = false;
    const double ttfs = sys_.ctx().clock().CyclesToUs(sys_.ctx().now() - shard.down_cycles);
    // Fill the newest recovery event covering this shard (per-shard or
    // whole-machine).
    for (auto it = report_.recoveries.rbegin(); it != report_.recoveries.rend(); ++it) {
      if ((it->shard == index || it->shard == -1) && it->time_to_first_served_us == 0) {
        it->time_to_first_served_us = ttfs;
        break;
      }
    }
  }
}

void ShardedKvService::TailPool::Offer(const TailSample& sample) {
  if (samples.size() == kTailSamplesPerShard) {
    if (sample.latency <= samples[min_i].latency) {
      return;
    }
    samples[min_i] = sample;
  } else {
    samples.push_back(sample);
    if (samples.size() < kTailSamplesPerShard) {
      return;
    }
  }
  // The full pool changed: find its first minimum again.
  min_i = 0;
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].latency < samples[min_i].latency) {
      min_i = i;
    }
  }
}

void ShardedKvService::FinalizeTail() {
  TailSnapshot& tail = report_.tail;
  tail.valid = report_.all_latency.count() > 0;
  if (!tail.valid) {
    return;
  }
  const auto& clock = sys_.ctx().clock();
  tail.p999_us = clock.CyclesToUs(report_.all_latency.Percentile(99.9));
  // Blame over a (pool, shard) merge reduced to the slowest ~0.1% of
  // completed requests (at least one): what the p999 population spent its
  // time on, from service-side accounting -- valid with observability off.
  std::vector<TailSample> all;
  for (const TailPool& pool : shard_slowest_) {
    all.insert(all.end(), pool.samples.begin(), pool.samples.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TailSample& a, const TailSample& b) { return a.latency > b.latency; });
  const auto blame = [](const std::vector<TailSample>& samples, size_t n, TailSnapshot& out,
                        double& coverage) {
    uint64_t lat = 0;
    uint64_t comps[3] = {0, 0, 0};  // wait, backoff, serve
    for (size_t i = 0; i < n; ++i) {
      lat += samples[i].latency;
      comps[0] += samples[i].wait;
      comps[1] += samples[i].backoff;
      comps[2] += samples[i].serve;
    }
    static const char* kNames[3] = {"admission_wait", "retry_backoff", "serve"};
    size_t top = 0;
    for (size_t c = 1; c < 3; ++c) {
      if (comps[c] > comps[top]) {
        top = c;
      }
    }
    const double denom = lat == 0 ? 1.0 : static_cast<double>(lat);
    out.top_component = kNames[top];
    out.top_share = static_cast<double>(comps[top]) / denom;
    coverage = static_cast<double>(comps[0] + comps[1] + comps[2]) / denom;
    if (coverage > 1.0) {
      coverage = 1.0;
    }
  };
  size_t n = static_cast<size_t>(report_.all_latency.count() / 1000);
  n = std::max<size_t>(1, std::min(n, all.size()));
  blame(all, n, tail, tail.blame_coverage);
  for (int i = 0; i < config_.shards; ++i) {
    TailShardStat st;
    st.shard = static_cast<uint32_t>(i);
    st.requests = shard_latency_[static_cast<size_t>(i)].count();
    if (st.requests != 0) {
      st.p999_us = clock.CyclesToUs(shard_latency_[static_cast<size_t>(i)].Percentile(99.9));
      std::vector<TailSample> pool = shard_slowest_[static_cast<size_t>(i)].samples;
      std::sort(pool.begin(), pool.end(),
                [](const TailSample& a, const TailSample& b) { return a.latency > b.latency; });
      size_t sn = static_cast<size_t>(st.requests / 1000);
      sn = std::max<size_t>(1, std::min(sn, pool.size()));
      TailSnapshot scratch;
      double cov = 0;
      blame(pool, sn, scratch, cov);
      st.top_component = scratch.top_component;
      st.top_share = scratch.top_share;
    }
    tail.shards.push_back(st);
  }
  Observer* obs = sys_.ctx().obs();
  if (obs != nullptr) {
    obs->SetTailSnapshot(tail);
  }
}

void ShardedKvService::PushTickMetric(uint64_t tick, uint64_t queue_depth,
                                      uint64_t pending_retries, uint32_t arrivals) {
  Observer* obs = sys_.ctx().obs();
  if (obs == nullptr || obs->metrics() == nullptr) {
    return;
  }
  MetricSample m;
  m.tick = tick;
  m.cycles = sys_.ctx().now();
  m.queue_depth = static_cast<uint32_t>(queue_depth);
  m.pending_retries = static_cast<uint32_t>(pending_retries);
  int max_level = 0;
  for (const BrownoutController& b : brownouts_) {
    max_level = std::max(max_level, b.level());
  }
  m.brownout_level = static_cast<uint16_t>(max_level);
  uint16_t open = 0;
  for (const CircuitBreaker& b : breakers_) {
    if (b.state() != CircuitBreaker::State::kClosed) {
      ++open;
    }
  }
  m.breakers_open = open;
  uint16_t down = 0;
  for (const Shard& shard : shards_) {
    if (shard.state != ShardState::kUp) {
      ++down;
    }
  }
  m.shards_down = down;
  m.arrivals = static_cast<uint16_t>(std::min<uint32_t>(arrivals, 0xffffu));
  m.tier_promoted_bytes = sys_.tier() != nullptr ? sys_.tier()->promoted_bytes() : 0;
  obs->PushMetric(m);
}

void ShardedKvService::Recover(int index, const char* cause, uint64_t down_tick,
                               uint64_t tick) {
  RecoveryEvent event;
  event.shard = index;
  event.cause = cause;
  event.down_tick = down_tick;
  event.detect_tick = tick;
  const uint64_t scrub_start = sys_.ctx().now();
  auto scrub = sys_.pmfs().Scrub();
  O1_CHECK(scrub.ok());
  event.scrub_us = sys_.ctx().clock().CyclesToUs(sys_.ctx().now() - scrub_start);
  event.replay_records = scrub->journal_records_checked;
  const uint64_t remap_start = sys_.ctx().now();
  const int first = index < 0 ? 0 : index;
  const int last = index < 0 ? config_.shards : index + 1;
  for (int i = first; i < last; ++i) {
    BringUp(i);
    Shard& shard = shards_[static_cast<size_t>(i)];
    shard.state = ShardState::kUp;
    shard.awaiting_first_serve = true;
    shard.dog.Beat(tick);
  }
  event.remap_us = sys_.ctx().clock().CyclesToUs(sys_.ctx().now() - remap_start);
  const std::string what =
      index < 0 ? "machine" : "shard=" + std::to_string(index) + " cause=" + cause;
  LogNote("t=" + std::to_string(tick) + " recover " + what +
          " replay=" + std::to_string(event.replay_records));
  report_.recoveries.push_back(event);
}

void ShardedKvService::RecoverShard(int index, uint64_t tick) {
  Shard& shard = shards_[static_cast<size_t>(index)];
  if (shard.proc != nullptr) {  // hung zombie: kill it first
    O1_CHECK(sys_.Exit(shard.proc).ok());
    shard.proc = nullptr;
  }
  report_.watchdog_kills++;
  Recover(index, shard.down_cause, shard.down_tick, tick);
}

void ShardedKvService::MachineCrashRecover(uint64_t tick) {
  report_.machine_crashes++;
  // In-flight queued requests die with the machine; clients retry.
  for (int i = 0; i < config_.shards; ++i) {
    FailQueued(i, tick);
  }
  const uint64_t down_cycles = sys_.ctx().now();
  uint64_t down_tick = tick;  // the earliest shard outage the crash ends
  for (Shard& shard : shards_) {
    if (shard.state == ShardState::kUp) {
      shard.down_tick = tick;
      shard.down_cycles = down_cycles;
    } else {
      down_tick = std::min(down_tick, shard.down_tick);
    }
    shard.proc = nullptr;  // Crash() invalidates every Process*
    shard.state = ShardState::kDown;
  }
  O1_CHECK(sys_.Crash().ok());
  Recover(/*index=*/-1, "machine", down_tick, tick);
  // Lost-ack reconciliation: a put acknowledged in the crash tick may not
  // have reached media (its lines stayed volatile once the armed index
  // tripped). The client audit resyncs to the durable state -- a version
  // regression is the expected lost-ack window, but a wrong key or a
  // version from the future is real corruption and still counts.
  for (uint64_t key = 0; key < client_version_.size(); ++key) {
    if (client_version_[key] == 0) {
      continue;
    }
    const int index = static_cast<int>(key % static_cast<uint64_t>(config_.shards));
    Shard& shard = shards_[static_cast<size_t>(index)];
    uint8_t line[kLineBytes];
    if (!sys_.UserRead(*shard.proc, shard.base + Offset(key), line).ok()) {
      continue;  // poisoned record: the next get repairs it
    }
    uint64_t version = 0;
    uint64_t stored_key = 0;
    std::memcpy(&version, line, sizeof(version));
    std::memcpy(&stored_key, line + sizeof(version), sizeof(stored_key));
    if (version == 0 && stored_key == 0) {
      client_version_[key] = 0;  // the record's only put fully reverted
    } else if (stored_key != key || version > client_version_[key]) {
      report_.verify_failures++;
    } else {
      client_version_[key] = version;
    }
  }
}

// --- serving ------------------------------------------------------------------

void ShardedKvService::NoteBreakerTransitions(int index, uint64_t transitions_before,
                                              uint64_t tick) {
  CircuitBreaker& breaker = breakers_[static_cast<size_t>(index)];
  const uint64_t delta = breaker.transitions() - transitions_before;
  if (delta == 0) {
    return;
  }
  sys_.ctx().counters().breaker_transitions += delta;
  ObsInstant(sys_.ctx(), TraceKind::kBreakerTransition,
             static_cast<uint64_t>(breaker.state()));
  LogNote("t=" + std::to_string(tick) + " breaker shard=" + std::to_string(index) + " " +
          CircuitBreaker::StateName(breaker.state()));
}

ShardedKvService::OpenRequest ShardedKvService::Arrive(uint64_t key, OpClass cls,
                                                      uint64_t tick) {
  OpenRequest req;
  req.key = key;
  req.cls = cls;
  req.first_arrival_cycles = sys_.ctx().now();
  req.first_arrival_tick = tick;
  req.trace_id = trace_rng_.Next() | 1;  // always drawn: obs-independent
  if (sys_.ctx().obs() != nullptr) {
    sys_.ctx().obs()->BeginRequest(req.trace_id);
  }
  report_.ops_attempted++;
  return req;
}

void ShardedKvService::ClientRetryOrReject(OpenRequest req, uint64_t tick, bool refused) {
  OverloadReport& ov = report_.overload;
  req.refused = req.refused || refused;
  if (req.attempts < kRetryMaxAttempts) {
    if (retry_budget_.TryConsume()) {
      report_.retries++;
      req.attempts++;
      req.park_cycles = sys_.ctx().now();  // backoff window opens
      retries_.Push(tick, tick + BackoffTicks(req.attempts - 1, retry_rng_), req);
      return;
    }
    ov.retry_budget_denials++;
    sys_.ctx().counters().retry_budget_denials++;
    req.refused = true;
  }
  // The give-up rule: a request the overload stack refused at least once
  // ends as a clean 503. One that only ever failed -- timed out, or met a
  // dead shard -- is lost, which campaigns assert never happens.
  if (req.refused) {
    ov.rejected_final++;
  } else {
    report_.ops_lost++;
  }
  if (sys_.ctx().obs() != nullptr) {
    sys_.ctx().obs()->DropRequest(req.trace_id);  // given up: no root span
  }
}

void ShardedKvService::OfferRequest(OpenRequest req, uint64_t tick) {
  const int index = static_cast<int>(req.key % static_cast<uint64_t>(config_.shards));
  const size_t i = static_cast<size_t>(index);
  ShardOverloadStats& st = report_.overload.per_shard[i];
  CircuitBreaker& breaker = breakers_[i];
  EventCounters& counters = sys_.ctx().counters();

  const uint64_t breaker_before = breaker.transitions();
  if (!breaker.Allow(tick)) {
    st.breaker_rejects++;
    report_.overload.sheds++;
    counters.breaker_fast_fails++;
    ClientRetryOrReject(req, tick, /*refused=*/true);
    return;
  }
  NoteBreakerTransitions(index, breaker_before, tick);  // open -> half_open

  if (shards_[i].state == ShardState::kDown) {
    // Fail fast (connection refused). This is a *failure* signal -- it feeds
    // the breaker so the next arrivals stop even reaching the shard.
    FailRequest(index, req, tick, st.failed_fast);
    return;
  }
  // A hung shard still accepts connections: requests queue and expire on
  // their deadline (ServeTick), exactly what the client would see.
  pressure_[i].offers++;
  const int level = brownouts_[i].level();
  if (level >= 3 && req.cls == OpClass::kScan) {
    ShedRequest(index, req, tick, st.shed_scan, counters.brownout_shed_scans);
    return;
  }
  if (level >= 4 && req.cls == OpClass::kWrite) {
    ShedRequest(index, req, tick, st.shed_write, counters.brownout_shed_writes);
    return;
  }
  req.arrival_tick = tick;
  req.park_cycles = sys_.ctx().now();  // queue-wait window opens if admitted
  if (queues_[i].Offer(req, tick, tick + kDeadlineTicks) ==
      AdmissionQueue<OpenRequest>::Verdict::kShed) {
    ShedRequest(index, req, tick, st.shed_deadline, counters.admission_sheds);
    return;
  }
  st.admitted++;
  report_.overload.admitted++;
}

void ShardedKvService::ShedRequest(int index, const OpenRequest& req, uint64_t tick,
                                   uint64_t& stat, uint64_t& counter) {
  stat++;
  counter++;
  pressure_[static_cast<size_t>(index)].sheds++;
  report_.overload.sheds++;
  ObsInstant(sys_.ctx(), TraceKind::kAdmissionShed, req.key);
  ClientRetryOrReject(req, tick, /*refused=*/true);
}

void ShardedKvService::FailRequest(int index, OpenRequest req, uint64_t tick, uint64_t& stat) {
  stat++;
  ClosePark(req, req.wait_cycles, TraceKind::kAdmissionWait);
  CircuitBreaker& breaker = breakers_[static_cast<size_t>(index)];
  const uint64_t before = breaker.transitions();
  breaker.RecordFailure(tick);
  NoteBreakerTransitions(index, before, tick);
  ClientRetryOrReject(req, tick, /*refused=*/false);
}

void ShardedKvService::ServeRequest(int index, OpenRequest& req) {
  sys_.ctx().SetCurrentCpu(index % num_cpus_);
  const uint64_t serve_start = sys_.ctx().now();
  {
    // The whole service op -- spans from Serve down through faults,
    // shootdowns, tier hits, and journal commits -- joins the span tree.
    TraceScope scope(sys_.ctx().obs(), req.trace_id, &req.next_span);
    Status s = Serve(shards_[static_cast<size_t>(index)], req);
    O1_CHECK(s.ok());  // media errors are absorbed inside Serve
  }
  req.serve_cycles += sys_.ctx().now() - serve_start;
  sys_.ctx().SetCurrentCpu(0);
  FinishRequest(index, req);
}

void ShardedKvService::FailQueued(int index, uint64_t tick) {
  AdmissionQueue<OpenRequest>& q = queues_[static_cast<size_t>(index)];
  uint64_t& failed_fast = report_.overload.per_shard[static_cast<size_t>(index)].failed_fast;
  while (!q.empty()) {
    FailRequest(index, q.PopFront(), tick, failed_fast);
  }
}

void ShardedKvService::ServeTick(int index, uint64_t tick) {
  AdmissionQueue<OpenRequest>& q = queues_[static_cast<size_t>(index)];
  OverloadReport& ov = report_.overload;
  ShardOverloadStats& st = ov.per_shard[static_cast<size_t>(index)];
  CircuitBreaker& breaker = breakers_[static_cast<size_t>(index)];

  // Expire overdue heads first (clients time out in queue order): each one
  // is a real failure -- it burnt a full deadline -- so it feeds the breaker.
  while (!q.empty() && q.front().arrival_tick + kDeadlineTicks <= tick) {
    report_.timeouts++;
    sys_.ctx().counters().admission_expired_drops++;
    FailRequest(index, q.PopFront(), tick, st.expired_in_queue);
  }
  if (shards_[static_cast<size_t>(index)].state != ShardState::kUp) {
    return;  // hung/down shards only expire; no serving
  }
  for (uint64_t slot = 0; slot < kSlotsPerTick && !q.empty(); ++slot) {
    OpenRequest req = q.PopFront();
    ClosePark(req, req.wait_cycles, TraceKind::kAdmissionWait);
    st.served++;
    ov.served++;
    // Goodput is END-TO-END: the expiry loop above only bounds the wait
    // since the *latest* offer, so a request that expired, retried and was
    // finally served still blew its client deadline -- served, not goodput.
    if (tick - req.first_arrival_tick <= kDeadlineTicks) {
      ov.served_in_deadline++;
    }
    if (req.cls == OpClass::kScan) {
      ov.scan_ops++;
    }
    ServeRequest(index, req);
    retry_budget_.OnSuccess();
    const uint64_t before = breaker.transitions();
    breaker.RecordSuccess(tick);
    NoteBreakerTransitions(index, before, tick);
  }
}

double ShardedKvService::BrownoutSignal(int index) const {
  // standing: start-of-tick (post-serve) queue depth against the admission
  // target depth (kAdmissionTargetTicks * kSlotsPerTick). It saturates at 1.0 the moment a
  // standing queue forms, i.e. for ANY sustained rho > 1 -- which is why it
  // only carries half the signal. The shed-fraction EWMA grades how far
  // past capacity demand actually is (fraction shed ~ 1 - 1/rho: ~0.2 at
  // 1.2x, ~0.5 at 2x, ~0.67 at 3x), so deeper overload climbs to higher
  // brownout levels while nominal load (rho <= 1: no standing queue, no
  // sheds) stays pinned near zero and restores quickly.
  const AdmissionQueue<OpenRequest>& q = queues_[static_cast<size_t>(index)];
  constexpr double kTargetDepth = static_cast<double>(kAdmissionTargetTicks * kSlotsPerTick);
  const double standing = std::min(1.0, static_cast<double>(q.depth()) / kTargetDepth);
  const double& shed_ewma = pressure_[static_cast<size_t>(index)].shed_ewma;
  return std::min(1.0, 0.5 * standing + shed_ewma);
}

void ShardedKvService::ApplyBrownoutLevels(uint64_t tick) {
  if (!config_.overload.enabled) {
    return;
  }
  int max_level = 0;
  for (int i = 0; i < config_.shards; ++i) {
    // Fold the previous tick's shed fraction into the pressure EWMA (decays
    // toward zero on idle ticks), then step the ladder at most one level.
    ShardPressure& pressure = pressure_[static_cast<size_t>(i)];
    const double shed_frac =
        pressure.offers == 0
            ? 0.0
            : std::min(1.0, static_cast<double>(pressure.sheds) /
                                static_cast<double>(pressure.offers));
    pressure.shed_ewma += BrownoutController::kShedEwmaWeight * (shed_frac - pressure.shed_ewma);
    pressure.offers = 0;
    pressure.sheds = 0;
    BrownoutController& b = brownouts_[static_cast<size_t>(i)];
    const int before = b.level();
    const int level = b.Update(BrownoutSignal(i));
    if (level != before) {
      sys_.ctx().counters().brownout_transitions++;
      ObsInstant(sys_.ctx(), TraceKind::kBrownoutShift, static_cast<uint64_t>(level));
      LogNote("t=" + std::to_string(tick) + " brownout shard=" + std::to_string(i) +
              " level=" + std::to_string(level));
    }
    max_level = std::max(max_level, level);
  }
  // Global shed hooks follow the worst shard: L1 pauses optional tier
  // migrations (durability writeback still runs -- the Sec. 12 invariant),
  // L2 defers pre-zero pool refills. Both restore automatically as levels
  // decay (reverse of the shed order, because L2 clears before L1).
  if (sys_.tier() != nullptr) {
    sys_.tier()->SetBrownoutPause(max_level >= 1);
  }
  sys_.phys_manager().SetBrownout(max_level >= 2);
}

ShardServiceReport ShardedKvService::Run() {
  const uint64_t run_start = sys_.ctx().now();
  SetupShards();
  FaultInjector& injector = sys_.machine().fault_injector();
  OverloadReport& ov = report_.overload;
  ov.enabled = config_.arrival.enabled;
  ov.capacity_per_tick = static_cast<double>(config_.shards) * static_cast<double>(kSlotsPerTick);

  const double mean_rate = std::max(config_.arrival.MeanRate(), 1e-9);
  const uint64_t expected_ticks =
      static_cast<uint64_t>(static_cast<double>(config_.ops) / mean_rate) + 1;
  // Runaway guard: arrivals stop after config_.ops, every offer resolves
  // within kRetryMaxAttempts bounded backoffs, queues drain at >= 1/tick.
  const uint64_t max_ticks =
      expected_ticks * 8 +
      static_cast<uint64_t>(kRetryMaxAttempts) * (kRetryMaxDelayTicks + kDeadlineTicks) * 64 +
      config_.ops + 1000;

  // Steady-state queue-depth windows (arrival phase only; the drain phase
  // empties queues by construction and would fake flatness).
  const uint64_t window_ticks = std::max<uint64_t>(32, expected_ticks / 8);
  uint64_t window_depth_sum = 0;
  uint64_t window_count = 0;
  double window_prev = 0.0;  // mean depth, previous completed window
  double window_last = 0.0;  // mean depth, last completed window
  int windows_done = 0;
  uint64_t arrival_end_tick = 0;  // first tick with the arrival budget spent

  uint64_t tick = 0;
  for (;; ++tick) {
    O1_CHECK(tick < max_ticks);
    sys_.ctx().Charge(kTickCycles);
    if (campaign_ != nullptr) {
      for (const ChaosFiring& firing : campaign_->Poll(tick)) {
        ApplyFiring(firing, tick);
      }
      // An armed torn-write/flush crash trips mid-op; the power actually
      // fails at the next tick boundary.
      if (injector.triggered()) {
        campaign_->Note("t=" + std::to_string(tick) + " armed crash tripped");
        MachineCrashRecover(tick);
      }
      // A killed shard refuses its queued requests immediately.
      for (int i = 0; i < config_.shards; ++i) {
        if (shards_[static_cast<size_t>(i)].state == ShardState::kDown) {
          FailQueued(i, tick);
        }
      }
    }
    // Hang expiry before the watchdog check: a shard whose hang was shorter
    // than the watchdog allowance resumes beating and is never killed.
    for (int i = 0; i < config_.shards; ++i) {
      Shard& shard = shards_[static_cast<size_t>(i)];
      if (shard.state == ShardState::kHung && tick >= shard.hang_until) {
        shard.state = ShardState::kUp;
        shard.awaiting_first_serve = false;
        shard.dog.Beat(tick);
        LogNote("t=" + std::to_string(tick) + " unhang shard=" + std::to_string(i));
      }
      if (shard.state != ShardState::kUp && shard.dog.Expired(tick)) {
        RecoverShard(i, tick);
      }
    }
    // Heartbeats are out-of-band: every kUp shard beats on the interval no
    // matter how deep its queue is or how much it is shedding. Overload is
    // not a liveness failure -- a saturated shard must never be watchdog-
    // killed (regression test in tests/chaos/).
    if (tick % Watchdog::kHeartbeatIntervalTicks == 0) {
      for (Shard& shard : shards_) {
        if (shard.state == ShardState::kUp) {
          shard.dog.Beat(tick);
        }
      }
    }
    ApplyBrownoutLevels(tick);
    // Due client retries re-offer in push order (a retry closes the backoff
    // window it waited out as a retry_wait span).
    retries_.PopDue(tick, [&](OpenRequest req) {
      ClosePark(req, req.backoff_cycles, TraceKind::kRetryWait);
      OfferRequest(req, tick);
    });
    // Arrivals: however many the process emits, whether or not the service
    // kept up.
    const uint32_t arrivals = arrival_.ArrivalsAt(tick);
    for (uint32_t a = 0; a < arrivals; ++a) {
      const uint64_t key = zipf_.Next(workload_rng_);
      OpClass cls = OpClass::kRead;
      if (config_.arrival.scan_fraction > 0 &&
          workload_rng_.NextBool(config_.arrival.scan_fraction)) {
        cls = OpClass::kScan;
      } else if (workload_rng_.NextBool(kWriteFraction)) {
        cls = OpClass::kWrite;
      }
      ov.arrivals++;
      OfferRequest(Arrive(key, cls, tick), tick);
    }
    for (int i = 0; i < config_.shards; ++i) {
      ServeTick(i, tick);
    }
    PushTickMetric(tick, QueuedRequests(), retries_.size(), arrivals);
    if (config_.tier_tick_every != 0 && sys_.tier() != nullptr &&
        tick % config_.tier_tick_every == config_.tier_tick_every - 1) {
      O1_CHECK(sys_.TierTick().ok());
    }
    if (injector.triggered()) {
      // Tripped during this tick's ops (outside the campaign poll above).
      LogNote("t=" + std::to_string(tick) + " armed crash tripped");
      MachineCrashRecover(tick);
    }
    if (!arrival_.done()) {
      window_depth_sum += QueuedRequests();
      if (++window_count == window_ticks) {
        window_prev = window_last;
        window_last = static_cast<double>(window_depth_sum) /
                      static_cast<double>(window_ticks);
        windows_done++;
        window_depth_sum = 0;
        window_count = 0;
      }
      arrival_end_tick = tick + 1;
    }
    if (arrival_.done() && retries_.empty() && QueuedRequests() == 0) {
      // Drain: a shard recovered after the last client arrival would wait
      // forever for its first serve. Health-check probes (one get of the
      // shard's record 0; key i routes to shard i) resolve
      // time-to-first-served deterministically.
      for (int i = 0; i < config_.shards; ++i) {
        Shard& shard = shards_[static_cast<size_t>(i)];
        if (shard.state == ShardState::kUp && shard.awaiting_first_serve) {
          OpenRequest probe = Arrive(static_cast<uint64_t>(i), OpClass::kRead, tick);
          ServeRequest(i, probe);
        }
      }
      if (!FaultActive()) {
        break;
      }
    }
  }
  report_.ticks = tick + 1;
  report_.run_us = sys_.ctx().clock().CyclesToUs(sys_.ctx().now() - run_start);
  report_.degraded_reads = sys_.ctx().counters().degraded_reads;
  report_.poison_quarantines = sys_.ctx().counters().poison_quarantines;
  if (campaign_ != nullptr) {
    report_.chaos_log = campaign_->LogString();
  }
  if (windows_done >= 2) {
    ov.queue_depth_window_a = window_prev;
    ov.queue_depth_window_b = window_last;
  }
  // Per-tick over the offered-load window. The drain tail is excluded: it is
  // mostly idle backoff timers running out, and end-to-end deadline
  // accounting already voids any stale work a naive queue serves there.
  ov.goodput_per_tick = static_cast<double>(ov.served_in_deadline) /
                        static_cast<double>(std::max<uint64_t>(1, arrival_end_tick));
  ov.goodput_ratio = ov.goodput_per_tick / ov.capacity_per_tick;
  ov.shed_rate =
      ov.arrivals == 0 ? 0 : static_cast<double>(ov.sheds) / static_cast<double>(ov.arrivals);
  for (int i = 0; i < config_.shards; ++i) {
    ShardOverloadStats& st = ov.per_shard[static_cast<size_t>(i)];
    const CircuitBreaker& breaker = breakers_[static_cast<size_t>(i)];
    st.breaker_transitions = breaker.transitions();
    st.breaker_timeline = breaker.timeline();
    st.max_queue_depth = queues_[static_cast<size_t>(i)].max_depth();
    st.brownout_ticks = brownouts_[static_cast<size_t>(i)].residency();
    ov.breaker_transitions += st.breaker_transitions;
    for (size_t level = 1; level < st.brownout_ticks.size(); ++level) {
      ov.brownout_shard_ticks += st.brownout_ticks[level];
    }
    ov.max_queue_depth = std::max(ov.max_queue_depth, st.max_queue_depth);
  }
  // Leave no brownout hooks dangling past the run.
  if (sys_.tier() != nullptr) {
    sys_.tier()->SetBrownoutPause(false);
  }
  sys_.phys_manager().SetBrownout(false);
  FinalizeTail();
  return report_;
}

}  // namespace o1mem
