// churn_fom / churn_baseline: one client loop round-robining 4 simulated CPUs
// (per-CPU frame caches, pre-zeroed pool, batched shootdowns on) through a
// seeded stream of process-lifecycle steps over four processes:
// anonymous and PMFS-file-backed Mmap of log-uniform sizes 4 KiB - 64 MiB
// (a quarter populated), sparse touches, Mprotect, Munmap,
// Creat/Ftruncate/Unlink, Fork+Exit, discardable cache files (the oldest
// evicted beyond kCacheFiles), and periodic pressure. The head of the
// stream, drawn from a fixed seed, runs untimed as warm-up. Both backends
// run the identical generated stream; only the pressure response differs
// (ReclaimFom over discardable files on FOM, ReclaimBaseline(kClock) on the
// baseline).
//
// The sizes straddle the 2 MiB splice window and TLB reach, so an O(1)
// regression shows as a size slope in os.mmap.*_size_ratio.
#include <array>
#include <cmath>
#include <cstring>
#include <deque>

#include "o1bench/bench.h"

namespace o1bench {
namespace {

using namespace o1mem;

constexpr int kProcs = 4;
constexpr int kCpus = 4;
constexpr size_t kMaxLive = 4;       // live regions per process
constexpr int kTouchPages = 8;       // pages per sparse-touch step
constexpr uint64_t kPressureEvery = 128;
constexpr uint64_t kPressureBytes = 1 * kMiB;
// Every kRespawnEvery steps the next long-lived process, round robin, is
// replaced (Exit + Launch), so per-process kernel state -- page tables, VMA
// holes -- cannot accumulate over the whole stream.
constexpr uint64_t kRespawnEvery = 500;
constexpr uint32_t kMapOctaves = 14;    // 4 KiB .. 64 MiB
constexpr uint32_t kCacheOctaves = 10;  // 4 KiB .. 4 MiB
// Live discardable cache files; a new one evicts the oldest. Unbounded,
// they piled up and per-step host cost grew fourfold over the stream.
constexpr size_t kCacheFiles = 64;
// Sizes are drawn by quarter octave, and one mapping in kPopulateOneIn
// populates.
constexpr uint32_t kQuarters = 4;
constexpr uint32_t kPopulateOneIn = 4;
// Every seed's stream opens with the warm-up drawn from this seed, so set-up
// does the same work whatever the seed; the few largest mappings a warm-up
// happens to hold dominate its cost.
constexpr uint64_t kWarmupSeed = 0x5eed;

enum class Kind : uint8_t { kMmapAnon, kMmapFile, kTouch, kMprotect, kMunmap, kCache, kForkExit,
                            kPressure, kRespawn };

struct Step {
  Kind kind = Kind::kTouch;
  uint8_t proc = 0;
  uint8_t octave = 0;
  bool populate = false;
  bool write = false;   // touch: store instead of load
  bool ro = false;      // mprotect: the new protection is read-only
  uint32_t id = 0;      // region/file the step creates or names (0 = none)
  uint32_t evict = 0;   // cache: the file it evicts (0 = none)
  uint64_t bytes = 0;
  std::array<uint16_t, kTouchPages> touch{};  // page positions, 1/65536ths
};

// Draws each of n values once per round, in a seeded shuffled order. The
// few largest mappings (and which of them populate) dominate a step
// stream's cost, so every size class and populate choice is dealt equally
// often whatever the seed.
class Deck {
 public:
  explicit Deck(uint32_t n) : n_(n) {}
  uint32_t Draw(Rng& rng) {
    if (pos_ == order_.size()) {
      order_.resize(n_);
      for (uint32_t i = 0; i < n_; ++i) {
        order_[i] = i;
      }
      for (uint32_t i = n_ - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng.NextBelow(i + 1)]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  uint32_t n_;
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
};

// A log-uniform size in quarter `quarter` of octave `octave` (4 KiB << octave).
uint64_t SizeIn(uint32_t octave, uint32_t quarter, Rng& rng) {
  const double u = (static_cast<double>(quarter) + rng.NextDouble()) / kQuarters;
  const double bytes = std::exp2(12.0 + static_cast<double>(octave) + u);
  return AlignUp(static_cast<uint64_t>(bytes), kPageSize);
}

// The lifecycle stream, generated against a model of each process's live
// regions so every step names a region that exists when all steps succeed.
// The first `warmup` steps are drawn from kWarmupSeed, the rest from `seed`.
std::vector<Step> Generate(uint64_t seed, uint64_t warmup, uint64_t steps) {
  Rng rng(kWarmupSeed);
  // A map card is (octave, quarter, populate slot); a cache card is
  // (octave, quarter).
  Deck map_cards(kMapOctaves * kQuarters * kPopulateOneIn);
  Deck cache_cards(kCacheOctaves * kQuarters);
  struct Live {
    uint32_t id;
    bool ro;
  };
  std::array<std::vector<Live>, kProcs> live;
  std::deque<uint32_t> cache;  // live cache files, oldest first
  uint32_t next_id = 1;
  std::vector<Step> out;
  out.reserve(warmup + steps);
  for (uint64_t i = 0; i < warmup + steps; ++i) {
    if (i == warmup) {
      rng = Rng(seed);
    }
    Step s;
    s.proc = static_cast<uint8_t>(rng.NextBelow(kProcs));
    if (i % kPressureEvery == kPressureEvery - 1) {
      s.kind = Kind::kPressure;
      out.push_back(s);
      continue;
    }
    if (i % kRespawnEvery == kRespawnEvery - 1) {
      s.kind = Kind::kRespawn;
      s.proc = static_cast<uint8_t>(i / kRespawnEvery % kProcs);
      live[s.proc].clear();
      out.push_back(s);
      continue;
    }
    std::vector<Live>& lv = live[s.proc];
    const bool room = lv.size() < kMaxLive;
    const bool any = !lv.empty();
    // Weights in Kind order (pressure is periodic, not drawn).
    const std::array<uint32_t, 7> weight = {room ? 20u : 0u, room ? 8u : 0u, any ? 24u : 0u,
                                            any ? 8u : 0u,   any ? 22u : 0u, 8u,
                                            6u};
    uint32_t total = 0;
    for (uint32_t w : weight) {
      total += w;
    }
    uint32_t pick = static_cast<uint32_t>(rng.NextBelow(total));
    size_t k = 0;
    while (pick >= weight[k]) {
      pick -= weight[k++];
    }
    s.kind = static_cast<Kind>(k);
    switch (s.kind) {
      case Kind::kMmapAnon:
      case Kind::kMmapFile: {
        const uint32_t card = map_cards.Draw(rng);
        s.id = next_id++;
        s.octave = static_cast<uint8_t>(card / (kQuarters * kPopulateOneIn));
        s.bytes = SizeIn(s.octave, card / kPopulateOneIn % kQuarters, rng);
        s.populate = card % kPopulateOneIn == 0;
        lv.push_back(Live{s.id, false});
        break;
      }
      case Kind::kTouch: {
        const Live& r = lv[rng.NextBelow(lv.size())];
        s.id = r.id;
        s.write = !r.ro && rng.NextBool(0.5);
        for (uint16_t& t : s.touch) {
          t = static_cast<uint16_t>(rng.NextBelow(65536));
        }
        break;
      }
      case Kind::kMprotect: {
        Live& r = lv[rng.NextBelow(lv.size())];
        r.ro = !r.ro;
        s.id = r.id;
        s.ro = r.ro;
        break;
      }
      case Kind::kMunmap: {
        const size_t idx = rng.NextBelow(lv.size());
        s.id = lv[idx].id;
        lv.erase(lv.begin() + static_cast<std::ptrdiff_t>(idx));
        break;
      }
      case Kind::kCache: {
        const uint32_t card = cache_cards.Draw(rng);
        s.id = next_id++;
        s.octave = static_cast<uint8_t>(card / kQuarters);
        s.bytes = SizeIn(s.octave, card % kQuarters, rng);
        cache.push_back(s.id);
        if (cache.size() > kCacheFiles) {
          s.evict = cache.front();
          cache.pop_front();
        }
        break;
      }
      case Kind::kForkExit:
        s.id = any ? lv[rng.NextBelow(lv.size())].id : 0;
        break;
      case Kind::kPressure:
      case Kind::kRespawn:
        break;
    }
    out.push_back(s);
  }
  return out;
}

std::string CachePath(uint32_t id) { return "/cache/c" + std::to_string(id); }

struct Tag {
  uint64_t id;
  uint64_t magic;
};

struct Region {
  uint32_t id = 0;
  Vaddr vaddr = 0;
  uint64_t bytes = 0;
  bool tagged = false;
  int fd = -1;  // file-backed regions keep their descriptor open
  std::string path;
};

struct ProcState {
  Process* proc = nullptr;
  std::vector<Region> live;

  Region* Find(uint32_t id) {
    for (Region& r : live) {
      if (r.id == id) {
        return &r;
      }
    }
    return nullptr;
  }
};

// One mmap sample for the size-slope ratios (traced run).
struct MmapSample {
  uint64_t sim_cycles;
  uint64_t host_ns;
};

class Churn : public Workload {
 public:
  Churn(uint64_t seed, bool quick, Backend backend)
      : backend_(backend),
        magic_(seed * 0x9e3779b97f4a7c15ULL + 1),
        warmup_steps_(quick ? 256 : 4096),
        steps_(Generate(seed, warmup_steps_, quick ? 1536 : 32768)) {}

  RepResult Run(Tracer* tracer) override;

 private:
  enum class Outcome { kOk, kFailed, kSkipped };

  SystemConfig Config(bool traced) const {
    SystemConfig config = BenchMachine(traced);
    config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
    config.machine.smp.num_cpus = kCpus;
    config.machine.smp.batched_shootdowns = true;
    config.machine.smp.percpu_frame_cache = true;
    config.machine.smp.prezero_pool = true;
    return config;
  }

  Outcome Execute(System& sys, ProcState& ps, const Step& step, Tracer* tracer,
                  RepResult& result);
  Status Map(System& sys, ProcState& ps, const Step& step, Tracer* tracer);
  bool Unmap(System& sys, ProcState& ps, uint32_t id, Tracer* tracer, RepResult& result);
  // Closes and unlinks a file-backed region's file.
  static bool DropFile(System& sys, Process& proc, const Region& r, Tracer* tracer);
  bool CheckTag(System& sys, Process& proc, const Region& r, Tracer* tracer,
                RepResult& result);

  Backend backend_;
  uint64_t magic_;
  size_t warmup_steps_;  // the head of steps_, run untimed
  std::vector<Step> steps_;
  std::array<std::vector<MmapSample>, kMapOctaves> mmap_samples_;
};

bool Churn::CheckTag(System& sys, Process& proc, const Region& r, Tracer* tracer,
                     RepResult& result) {
  Tag tag{};
  Status s;
  {
    Span span(tracer, SpanName::kReadVirt);
    s = span.Mark(sys.machine().mmu().ReadVirt(
        proc.address_space(), r.vaddr,
        std::span<uint8_t>(reinterpret_cast<uint8_t*>(&tag), sizeof(tag))));
  }
  if (!s.ok()) {
    return false;
  }
  if (r.tagged && (tag.id != r.id || tag.magic != magic_)) {
    result.Fail("churn: region " + std::to_string(r.id) + " lost its tag");
  }
  return true;
}

Status Churn::Map(System& sys, ProcState& ps, const Step& step, Tracer* tracer) {
  Region r{.id = step.id, .bytes = step.bytes};
  MmapArgs args{.length = step.bytes, .populate = step.populate};
  if (step.kind == Kind::kMmapFile) {
    r.path = "/churn/f" + std::to_string(step.id);
    Result<int> fd = [&] {
      Span span(tracer, SpanName::kCreat);
      return span.Mark(sys.Creat(*ps.proc, sys.pmfs(), r.path, FileFlags{}));
    }();
    O1_RETURN_IF_ERROR(fd.status());
    r.fd = *fd;
    Status sized;
    {
      Span span(tracer, SpanName::kFtruncate);
      sized = span.Mark(sys.Ftruncate(*ps.proc, r.fd, step.bytes));
    }
    if (!sized.ok()) {
      DropFile(sys, *ps.proc, r, tracer);
      return sized;
    }
    args.fd = r.fd;
  }
  const uint64_t host0 = tracer != nullptr ? HostNowNs() : 0;
  const uint64_t sim0 = sys.ctx().now();
  Result<Vaddr> vaddr = [&] {
    Span span(tracer, SpanName::kMmap);
    return span.Mark(sys.Mmap(*ps.proc, args));
  }();
  if (tracer != nullptr) {
    mmap_samples_[step.octave].push_back(
        MmapSample{sys.ctx().now() - sim0, HostNowNs() - host0});
  }
  if (!vaddr.ok()) {
    if (r.fd >= 0) {
      DropFile(sys, *ps.proc, r, tracer);
    }
    return vaddr.status();
  }
  r.vaddr = *vaddr;
  ps.live.push_back(r);
  const Tag tag{step.id, magic_};
  Status s;
  {
    Span span(tracer, SpanName::kWriteVirt);
    s = span.Mark(sys.machine().mmu().WriteVirt(
        ps.proc->address_space(), r.vaddr,
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&tag), sizeof(tag))));
  }
  ps.live.back().tagged = s.ok();
  return s;
}

bool Churn::Unmap(System& sys, ProcState& ps, uint32_t id, Tracer* tracer, RepResult& result) {
  // The region leaves the live set whatever happens, as in the generator's
  // model; a region that failed to unmap shows in the occupancy check.
  Region* found = ps.Find(id);
  const Region r = *found;
  std::erase_if(ps.live, [id](const Region& x) { return x.id == id; });
  bool ok = CheckTag(sys, *ps.proc, r, tracer, result);
  {
    Span span(tracer, SpanName::kMunmap);
    ok = span.Mark(sys.Munmap(*ps.proc, r.vaddr, r.bytes)).ok() && ok;
  }
  if (r.fd >= 0) {
    ok = DropFile(sys, *ps.proc, r, tracer) && ok;
  }
  return ok;
}

bool Churn::DropFile(System& sys, Process& proc, const Region& r, Tracer* tracer) {
  bool ok = true;
  {
    Span span(tracer, SpanName::kClose);
    ok = span.Mark(sys.Close(proc, r.fd)).ok();
  }
  Span span(tracer, SpanName::kUnlink);
  return span.Mark(sys.Unlink(r.path)).ok() && ok;
}

Churn::Outcome Churn::Execute(System& sys, ProcState& ps, const Step& step, Tracer* tracer,
                              RepResult& result) {
  Mmu& mmu = sys.machine().mmu();
  Region* r = nullptr;
  if (step.kind == Kind::kTouch || step.kind == Kind::kMprotect || step.kind == Kind::kMunmap) {
    r = ps.Find(step.id);
    if (r == nullptr) {
      return Outcome::kSkipped;  // its mmap failed earlier
    }
  }
  bool ok = true;
  switch (step.kind) {
    case Kind::kMmapAnon:
    case Kind::kMmapFile:
      ok = Map(sys, ps, step, tracer).ok();
      break;
    case Kind::kTouch: {
      const uint64_t pages = r->bytes / kPageSize;
      for (uint16_t t : step.touch) {
        const Vaddr page = r->vaddr + ((pages * t) >> 16) * kPageSize;
        Span span(tracer, SpanName::kTouch);
        ok = span.Mark(mmu.Touch(ps.proc->address_space(), page, 8,
                                 step.write ? AccessType::kWrite : AccessType::kRead))
                 .ok() &&
             ok;
      }
      break;
    }
    case Kind::kMprotect: {
      Span span(tracer, SpanName::kMprotect);
      ok = span.Mark(sys.Mprotect(*ps.proc, r->vaddr, r->bytes,
                                  step.ro ? Prot::kRead : Prot::kReadWrite))
               .ok();
      break;
    }
    case Kind::kMunmap:
      ok = Unmap(sys, ps, r->id, tracer, result);
      break;
    case Kind::kCache: {
      Result<int> fd = [&] {
        Span span(tracer, SpanName::kCreat);
        return span.Mark(
            sys.Creat(*ps.proc, sys.pmfs(), CachePath(step.id), FileFlags{.discardable = true}));
      }();
      if (!fd.ok()) {
        ok = false;
        break;
      }
      {
        Span span(tracer, SpanName::kFtruncate);
        ok = span.Mark(sys.Ftruncate(*ps.proc, *fd, step.bytes)).ok();
      }
      {
        Span span(tracer, SpanName::kClose);
        ok = span.Mark(sys.Close(*ps.proc, *fd)).ok() && ok;
      }
      if (step.evict != 0) {
        // FOM's pressure step may have deleted the file already.
        Span span(tracer, SpanName::kUnlink);
        const Status evicted = span.Mark(sys.Unlink(CachePath(step.evict)));
        ok = (evicted.ok() || evicted.code() == StatusCode::kNotFound) && ok;
      }
      break;
    }
    case Kind::kForkExit: {
      Result<Process*> child = [&] {
        Span span(tracer, SpanName::kFork);
        return span.Mark(sys.Fork(*ps.proc));
      }();
      if (!child.ok()) {
        ok = false;
        break;
      }
      if (const Region* shared = ps.Find(step.id)) {
        ok = CheckTag(sys, **child, *shared, tracer, result);
      }
      Span span(tracer, SpanName::kExit);
      ok = span.Mark(sys.Exit(*child)).ok() && ok;
      break;
    }
    case Kind::kRespawn: {
      // Exit drops the mappings and descriptors; the files stay until
      // unlinked.
      const std::vector<Region> regions = std::move(ps.live);
      ps.live.clear();
      {
        Span span(tracer, SpanName::kExit);
        ok = span.Mark(sys.Exit(ps.proc)).ok();
      }
      for (const Region& dead : regions) {
        if (dead.fd >= 0) {
          Span span(tracer, SpanName::kUnlink);
          ok = span.Mark(sys.Unlink(dead.path)).ok() && ok;
        }
      }
      Result<Process*> proc = [&] {
        Span span(tracer, SpanName::kLaunch);
        return span.Mark(sys.Launch(backend_));
      }();
      O1_CHECK(proc.ok());
      ps.proc = *proc;
      break;
    }
    case Kind::kPressure: {
      Span span(tracer, SpanName::kReclaim);
      if (backend_ == Backend::kFom) {
        ok = span.Mark(sys.ReclaimFom(kPressureBytes)).ok();
      } else {
        ok = span.Mark(sys.ReclaimBaseline(*ps.proc, kPressureBytes / kPageSize,
                                           System::ReclaimPolicy::kClock))
                 .ok();
      }
      break;
    }
  }
  return ok ? Outcome::kOk : Outcome::kFailed;
}

RepResult Churn::Run(Tracer* tracer) {
  RepResult result;
  for (auto& samples : mmap_samples_) {
    samples.clear();
  }
  const uint64_t setup_start = HostNowNs();
  System sys(Config(tracer != nullptr));
  if (tracer != nullptr) {
    tracer->SetClock(&sys.ctx());
  }
  const TierOccupancy occupancy_start = sys.Occupancy();
  std::array<ProcState, kProcs> procs;
  for (ProcState& ps : procs) {
    auto proc = sys.Launch(backend_);
    O1_CHECK(proc.ok());
    ps.proc = *proc;
  }
  // Untimed warm-up: the head of the stream fills the processes' live sets,
  // the per-CPU frame caches and the pre-zeroed pool. Its failures are not
  // counted; its outputs are still checked.
  for (size_t i = 0; i < warmup_steps_; ++i) {
    sys.ctx().SetCurrentCpu(static_cast<int>(i % kCpus));
    (void)Execute(sys, procs[steps_[i].proc], steps_[i], nullptr, result);
  }
  result.host.setup_s = HostSecondsSince(setup_start);

  std::vector<uint64_t> latency;
  latency.reserve(steps_.size() - warmup_steps_);
  uint64_t failed = 0;
  const EventCounters counters_before = sys.ctx().counters();
  const uint64_t sim_start = sys.ctx().now();
  const uint64_t host_start = HostNowNs();
  for (size_t i = warmup_steps_; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    sys.ctx().SetCurrentCpu(static_cast<int>(i % kCpus));
    RequestScope request(tracer, i - warmup_steps_);
    const uint64_t t0 = sys.ctx().now();
    Outcome outcome;
    {
      Span span(tracer, SpanName::kChurnStep);
      outcome = Execute(sys, procs[step.proc], step, tracer, result);
    }
    if (outcome == Outcome::kSkipped) {
      continue;
    }
    latency.push_back(sys.ctx().now() - t0);
    failed += outcome == Outcome::kFailed ? 1 : 0;
  }
  sys.ctx().SetCurrentCpu(0);
  result.host.window_s = HostSecondsSince(host_start);
  const uint64_t units = latency.size();
  result.host.window_units = units;
  const uint64_t sim_window = sys.ctx().now() - sim_start;
  SimOutcome& sim = result.sim;
  AddCounterLayers(sys.ctx().counters().Delta(counters_before), units, sim.layer);

  // Teardown (untraced): every region's tag is checked on its way out, and
  // once every region, file and process is gone the machine must be back
  // at its starting DRAM and NVM use.
  for (ProcState& ps : procs) {
    while (!ps.live.empty()) {
      if (!Unmap(sys, ps, ps.live.back().id, nullptr, result)) {
        result.Fail("churn: teardown unmap failed");
      }
    }
    O1_CHECK(sys.Exit(ps.proc).ok());
  }
  for (const std::string& path : sys.pmfs().ListPaths()) {
    if (path.starts_with("/cache/") && !sys.Unlink(path).ok()) {
      result.Fail("churn: cannot unlink " + path);
    }
  }
  const TierOccupancy occupancy_end = sys.Occupancy();
  if (occupancy_end.dram_used_bytes != occupancy_start.dram_used_bytes ||
      occupancy_end.nvm_used_bytes != occupancy_start.nvm_used_bytes) {
    result.Fail("churn: occupancy did not return to its start (dram " +
                std::to_string(occupancy_start.dram_used_bytes) + " -> " +
                std::to_string(occupancy_end.dram_used_bytes) + ", nvm " +
                std::to_string(occupancy_start.nvm_used_bytes) + " -> " +
                std::to_string(occupancy_end.nvm_used_bytes) + ")");
  }

  sim.attempted = units;
  sim.failed = failed;
  sim.ops_per_sim_s = static_cast<double>(units) / (CyclesToUs(sim_window) * 1e-6);
  SetPercentiles(latency, sim);
  sim.RecordEnd(sys.ctx());
  if (tracer != nullptr) {
    // Median cost in the largest size class over the smallest (1.0 = O(1)).
    const auto median = [](std::vector<uint64_t> v) {
      std::sort(v.begin(), v.end());
      return v.empty() ? 0.0 : static_cast<double>(v[(v.size() - 1) / 2]);
    };
    const auto medians = [&](const std::vector<MmapSample>& samples) {
      std::vector<uint64_t> sim_cycles;
      std::vector<uint64_t> host_ns;
      for (const MmapSample& s : samples) {
        sim_cycles.push_back(s.sim_cycles);
        host_ns.push_back(s.host_ns);
      }
      return std::pair{median(sim_cycles), median(host_ns)};
    };
    const auto [small_sim, small_host] = medians(mmap_samples_.front());
    const auto [large_sim, large_host] = medians(mmap_samples_.back());
    sim.traced_layer["os.mmap.small_sim_us"] = small_sim / kCyclesPerUs;
    sim.traced_layer["os.mmap.sim_size_ratio"] = small_sim > 0 ? large_sim / small_sim : 0;
    result.host.layer["os.mmap.small_host_ns"] = small_host;
    result.host.layer["os.mmap.host_size_ratio"] = small_host > 0 ? large_host / small_host : 0;
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeChurn(uint64_t seed, bool quick, Backend backend) {
  return std::make_unique<Churn>(seed, quick, backend);
}

}  // namespace o1bench
