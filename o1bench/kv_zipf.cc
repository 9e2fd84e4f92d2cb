// kv_zipf: one client on one simulated CPU serving a Zipfian get/put mix out
// of a 128 MiB persistent FOM segment of 1 KiB records, with tiering on
// (32 MiB DRAM file cache, a TierTick every 1024 ops), ending in Crash() and
// a restart. Translation + data touch (sim) and tier monitoring/migration do
// nearly all the work; mm, fs, fom and chaos idle.
//
// System::UserRead/UserWrite are split into their two public calls,
// Mmu::ReadVirt/WriteVirt and TierEngine::NoteAccess, so the traced run
// separates the sim and tier layers.
#include <cstring>

#include "o1bench/bench.h"
#include "src/support/zipf.h"

namespace o1bench {
namespace {

using namespace o1mem;

constexpr uint64_t kSegmentBytes = 128 * kMiB;
constexpr uint64_t kRecordBytes = 1 * kKiB;
constexpr uint64_t kRecords = kSegmentBytes / kRecordBytes;
constexpr double kTheta = 0.99;
constexpr double kPutFraction = 0.3;
constexpr uint64_t kTierTickEvery = 1024;

SystemConfig KvConfig(bool traced) {
  SystemConfig config = BenchMachine(traced);
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  TierConfig& tier = config.machine.tier;
  tier.enabled = true;
  tier.dram_cache_bytes = 32 * kMiB;
  tier.aggregation_ticks = 8;
  tier.min_region_bytes = 64 * kPageSize;
  tier.min_regions = 16;
  tier.max_regions = 64;
  tier.hot_threshold = 2;
  tier.promote_after = 1;
  // app_kv_service demotes after 8 cold windows. The monitor samples one
  // page per region, so a promoted region holding the Zipfian head often
  // looks cold; with 8 the tier then wanders between all-promoted (~148
  // cycles/op), partly promoted (~190) and all-demoted (~254) states on a
  // seed-dependent schedule over millions of ops, and no window is steady.
  // With 128 the promoted head stays and the warm-up covers the transient.
  tier.demote_after = 128;
  return config;
}

// Record image for (key, version): version 0 is the never-written,
// zero-filled record.
void FillRecord(uint8_t* rec, uint32_t key, uint32_t version) {
  if (version == 0) {
    std::memset(rec, 0, kRecordBytes);
    return;
  }
  std::memset(rec, static_cast<int>((key * 31u + version) & 0xffu), kRecordBytes);
  std::memcpy(rec, &version, sizeof(version));
  std::memcpy(rec + sizeof(version), &key, sizeof(key));
}

class KvZipf : public Workload {
 public:
  KvZipf(uint64_t seed, bool quick)
      : warmup_ops_(quick ? 16384 : 786432), window_ops_(quick ? 16384 : 786432) {
    const ZipfGenerator zipf(kRecords, kTheta);
    Rng rng(seed);
    const uint64_t total = warmup_ops_ + window_ops_;
    keys_.resize(total);
    puts_.resize(total);
    for (uint64_t i = 0; i < total; ++i) {
      keys_[i] = static_cast<uint32_t>(zipf.Next(rng));
      puts_[i] = rng.NextBool(kPutFraction) ? 1 : 0;
    }
  }

  RepResult Run(Tracer* tracer) override;

 private:
  struct State {
    System* sys;
    Process* proc;
    Vaddr base;
    std::vector<uint32_t> version;
    uint8_t rec[kRecordBytes];
    uint8_t expect[kRecordBytes];
  };

  // One get or put through Mmu + TierEngine. False on a non-OK status;
  // a get that returns stale data fails `result`'s correctness check.
  static bool Op(State& st, Tracer* tracer, uint32_t key, bool put, RepResult& result);

  uint64_t warmup_ops_;
  uint64_t window_ops_;
  std::vector<uint32_t> keys_;
  std::vector<uint8_t> puts_;
};

bool KvZipf::Op(State& st, Tracer* tracer, uint32_t key, bool put, RepResult& result) {
  Mmu& mmu = st.sys->machine().mmu();
  TierEngine* tier = st.sys->tier();
  const Vaddr addr = st.base + key * kRecordBytes;
  Status s;
  if (put) {
    FillRecord(st.rec, key, st.version[key] + 1);
    {
      Span span(tracer, SpanName::kWriteVirt);
      s = span.Mark(mmu.WriteVirt(st.proc->address_space(), addr, st.rec));
    }
    if (!s.ok()) {
      return false;
    }
    st.version[key]++;
    if (tier != nullptr) {
      Span span(tracer, SpanName::kNoteAccess);
      tier->NoteAccess(st.proc->fom(), addr, kRecordBytes, AccessType::kWrite);
    }
    return true;
  }
  {
    Span span(tracer, SpanName::kReadVirt);
    s = span.Mark(mmu.ReadVirt(st.proc->address_space(), addr, st.rec));
  }
  if (!s.ok()) {
    return false;
  }
  if (tier != nullptr) {
    Span span(tracer, SpanName::kNoteAccess);
    tier->NoteAccess(st.proc->fom(), addr, kRecordBytes, AccessType::kRead);
  }
  FillRecord(st.expect, key, st.version[key]);
  if (std::memcmp(st.rec, st.expect, kRecordBytes) != 0) {
    result.Fail("kv_zipf: get of key " + std::to_string(key) + " returned stale data");
  }
  return true;
}

RepResult KvZipf::Run(Tracer* tracer) {
  RepResult result;
  const uint64_t setup_start = HostNowNs();
  System sys(KvConfig(tracer != nullptr));
  if (tracer != nullptr) {
    tracer->SetClock(&sys.ctx());
  }
  auto seg = sys.fom().CreateSegment("/srv/kv", kSegmentBytes,
                                     SegmentOptions{.flags = FileFlags{.persistent = true}});
  O1_CHECK(seg.ok());
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto base = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite);
  O1_CHECK(base.ok());
  State st{.sys = &sys, .proc = *proc, .base = *base, .version = std::vector<uint32_t>(kRecords)};

  // Untimed warm-up: the access monitor finds the Zipfian head and the tier
  // settles before the timed window opens.
  for (uint64_t i = 0; i < warmup_ops_; ++i) {
    if (!Op(st, nullptr, keys_[i], puts_[i] != 0, result)) {
      result.Fail("kv_zipf: warm-up op failed");
    }
    if (i % kTierTickEvery == kTierTickEvery - 1) {
      O1_CHECK(sys.TierTick().ok());
    }
  }
  result.host.setup_s = HostSecondsSince(setup_start);

  std::vector<uint64_t> latency(window_ops_);
  uint64_t failed = 0;
  const EventCounters counters_before = sys.ctx().counters();
  const uint64_t sim_start = sys.ctx().now();
  const uint64_t host_start = HostNowNs();
  for (uint64_t w = 0; w < window_ops_; ++w) {
    const uint64_t i = warmup_ops_ + w;
    RequestScope request(tracer, w);
    const uint64_t t0 = sys.ctx().now();
    {
      Span span(tracer, SpanName::kKvOp);
      failed += Op(st, tracer, keys_[i], puts_[i] != 0, result) ? 0u : 1u;
    }
    latency[w] = sys.ctx().now() - t0;
    if (i % kTierTickEvery == kTierTickEvery - 1) {
      Span span(tracer, SpanName::kTierTick);
      O1_CHECK(span.Mark(sys.TierTick()).ok());
    }
  }
  result.host.window_s = HostSecondsSince(host_start);
  result.host.window_units = window_ops_;
  const uint64_t sim_window = sys.ctx().now() - sim_start;
  const EventCounters window_counters = sys.ctx().counters().Delta(counters_before);
  SimOutcome& sim = result.sim;
  AddCounterLayers(window_counters, window_ops_, sim.layer);
  sim.layer["tier.dram_hit_rate"] = static_cast<double>(window_counters.tier_hot_hits_dram) /
                                    static_cast<double>(window_ops_);
  sim.layer["tier.promoted_bytes_end"] = static_cast<double>(sys.tier()->promoted_bytes());
  // The warm-up passes the promotion transient, so the timed window itself
  // migrates nothing: count migrations from the start.
  sim.layer["tier.promotions"] = static_cast<double>(sys.ctx().counters().tier_promotions);
  sim.layer["tier.demotions"] = static_cast<double>(sys.ctx().counters().tier_demotions);

  // Promoted dirty spans sit in the DRAM cache, outside the durability
  // domain: checkpoint them home before the power fails.
  {
    RequestScope request(tracer, window_ops_);
    Span span(tracer, SpanName::kUserFlush);
    O1_CHECK(span.Mark(sys.UserFlush(*st.proc, st.base, kSegmentBytes)).ok());
  }

  // Restart: Crash() -> Launch, OpenSegment, Map -> first verified get.
  const uint32_t probe_key = keys_.back();
  const uint64_t restart_start = sys.ctx().now();
  {
    RequestScope request(tracer, window_ops_ + 1);
    Span root(tracer, SpanName::kRestart);
    {
      Span span(tracer, SpanName::kCrash);
      O1_CHECK(span.Mark(sys.Crash()).ok());
    }
    Result<Process*> relaunched = [&] {
      Span span(tracer, SpanName::kLaunch);
      return span.Mark(sys.Launch(Backend::kFom));
    }();
    O1_CHECK(relaunched.ok());
    Result<InodeId> reopened = [&] {
      Span span(tracer, SpanName::kOpenSegment);
      return span.Mark(sys.fom().OpenSegment("/srv/kv"));
    }();
    O1_CHECK(reopened.ok());
    Result<Vaddr> remapped = [&] {
      Span span(tracer, SpanName::kMap);
      return span.Mark(sys.fom().Map((*relaunched)->fom(), *reopened, Prot::kReadWrite));
    }();
    O1_CHECK(remapped.ok());
    st.proc = *relaunched;
    st.base = *remapped;
    if (!Op(st, tracer, probe_key, /*put=*/false, result)) {
      result.Fail("kv_zipf: first get after restart failed");
    }
  }
  sim.restart_us = CyclesToUs(sys.ctx().now() - restart_start);

  // Every record that was ever put must have survived the crash.
  for (uint32_t key = 0; key < kRecords; ++key) {
    if (st.version[key] != 0 && !Op(st, nullptr, key, /*put=*/false, result)) {
      result.Fail("kv_zipf: get after restart failed");
    }
  }

  sim.attempted = window_ops_;
  sim.failed = failed;
  sim.ops_per_sim_s = static_cast<double>(window_ops_) / (CyclesToUs(sim_window) * 1e-6);
  SetPercentiles(latency, sim);
  sim.RecordEnd(sys.ctx());
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeKvZipf(uint64_t seed, bool quick) {
  return std::make_unique<KvZipf>(seed, quick);
}

}  // namespace o1bench
