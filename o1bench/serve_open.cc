// serve_open: open-loop serving. A ShardedKvService with 4 shards on 4
// simulated CPUs and the full overload stack (OverloadConfig::Protected():
// admission, retry budget, breakers, brownout), no fault campaign, driven at
//   * one bursty operating point whose peaks exceed capacity (Poisson at
//     24/tick for 40 ticks, then silent for 40, against 16 slots/tick);
//   * fixed Poisson rates below, near and above capacity;
//   * a deterministic bisection for the highest Poisson rate that meets the
//     SLO (kSloFraction of arrivals served within kLatencyLimitCycles, with
//     no growing backlog).
// The chaos layer (admission, retry budget, breakers, brownout, tail
// accounting) does most of the host work. The service times each request
// from its arrival tick, which is when it was due; the simulated generator
// is never late.
#include "o1bench/bench.h"
#include "src/chaos/shard_service.h"

namespace o1bench {
namespace {

using namespace o1mem;

constexpr int kShards = 4;
// Requests within 2^13 - 1 cycles (~4 ticks): a bucket boundary of the
// service's log2 histogram, so the histogram counts it exactly.
constexpr int kLimitBucket = 13;
constexpr uint64_t kLatencyLimitCycles = (uint64_t{1} << kLimitBucket) - 1;
// The SLO: this fraction of arrivals served within the limit, and mean queue
// depth growing by at most this factor (plus one request) from the first
// measurement window to the second.
constexpr double kSloFraction = 0.99;
constexpr double kBacklogGrowth = 1.25;
constexpr double kSearchHi = 32.0;  // arrivals/tick; twice capacity
constexpr int kSearchSteps = 7;     // resolution kSearchHi / 2^7 = 0.25

struct RateSpec {
  const char* name;  // metric suffix
  double rate;       // Poisson arrivals per tick
};
// Below, near and above the 16 slots/tick capacity.
constexpr RateSpec kFixedRates[] = {{"8", 8.0}, {"14", 14.0}, {"20", 20.0}};

SystemConfig ServeConfig(bool traced) {
  SystemConfig config = BenchMachine(traced);
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  config.machine.smp.num_cpus = kShards;
  config.machine.smp.batched_shootdowns = true;
  config.machine.smp.percpu_frame_cache = true;
  config.machine.smp.prezero_pool = true;
  return config;
}

// Completed requests with latency <= kLatencyLimitCycles.
uint64_t WithinLimit(const LatencyHistogram& h) {
  uint64_t n = 0;
  for (int b = 0; b <= kLimitBucket; ++b) {
    n += h.bucket(b);
  }
  return n;
}

class ServeOpen : public Workload {
 public:
  ServeOpen(uint64_t seed, bool quick)
      : seed_(seed),
        burst_arrivals_(quick ? 12000 : 120000),
        rate_arrivals_(quick ? 4000 : 40000) {}

  RepResult Run(Tracer* tracer) override;

 private:
  // One service run on a fresh System; its end joins the determinism gate.
  // `sys` is left alive for the caller.
  struct ServiceRun {
    std::unique_ptr<System> sys;
    ShardServiceReport report;
  };
  ServiceRun Serve(const ArrivalConfig& arrival, uint64_t arrivals, Tracer* tracer,
                   RepResult& result, uint64_t request);
  bool MeetsSlo(const ShardServiceReport& r) const {
    const OverloadReport& ov = r.overload;
    return static_cast<double>(WithinLimit(r.all_latency)) >=
               kSloFraction * static_cast<double>(ov.arrivals) &&
           ov.queue_depth_window_b <= kBacklogGrowth * ov.queue_depth_window_a + 1.0;
  }

  uint64_t seed_;
  uint64_t burst_arrivals_;
  uint64_t rate_arrivals_;
};

ServeOpen::ServiceRun ServeOpen::Serve(const ArrivalConfig& arrival, uint64_t arrivals,
                                       Tracer* tracer, RepResult& result, uint64_t request) {
  ServiceRun run;
  ShardServiceConfig config;
  config.shards = kShards;
  config.ops = arrivals;
  config.workload_seed = seed_;
  config.arrival = arrival;
  config.overload = OverloadConfig::Protected();
  const uint64_t setup_start = HostNowNs();
  run.sys = std::make_unique<System>(ServeConfig(tracer != nullptr));
  ShardedKvService service(*run.sys, config);
  result.host.setup_s += HostSecondsSince(setup_start);
  if (tracer != nullptr) {
    tracer->SetClock(&run.sys->ctx());
  }
  const uint64_t host_start = HostNowNs();
  {
    RequestScope scope(tracer, request);
    Span span(tracer, SpanName::kChaosRun);
    run.report = service.Run();
  }
  result.host.window_s += HostSecondsSince(host_start);
  result.host.window_units += run.report.overload.arrivals;
  result.sim.RecordEnd(run.sys->ctx());
  if (run.report.ops_lost != 0 || run.report.verify_failures != 0) {
    result.Fail("serve_open: " + std::to_string(run.report.ops_lost) + " ops lost, " +
                std::to_string(run.report.verify_failures) + " verify failures");
  }
  return run;
}

RepResult ServeOpen::Run(Tracer* tracer) {
  RepResult result;
  SimOutcome& sim = result.sim;
  uint64_t request = 0;

  // The bursty operating point.
  ArrivalConfig burst{.enabled = true,
                      .kind = ArrivalConfig::Kind::kBurst,
                      .rate = 24.0,
                      .burst_ticks = 40};
  ServiceRun headline = Serve(burst, burst_arrivals_, tracer, result, request++);
  const ShardServiceReport& r = headline.report;
  const OverloadReport& ov = r.overload;
  const LatencyHistogram& h = r.all_latency;
  sim.p50_us = CyclesToUs(h.Percentile(50));
  sim.p99_us = CyclesToUs(h.Percentile(99));
  sim.p999_us = CyclesToUs(h.Percentile(99.9));
  sim.samples = h.count();
  sim.goodput_ratio = ov.goodput_per_tick / ov.capacity_per_tick;
  sim.attempted = ov.arrivals;
  sim.failed = ov.arrivals - ov.served_in_deadline;
  std::map<std::string, double>& layer = sim.layer;
  const auto per_arrival = [&ov](uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(ov.arrivals);
  };
  layer["chaos.arrivals"] = static_cast<double>(ov.arrivals);
  layer["chaos.shed_rate"] = per_arrival(ov.sheds);
  layer["chaos.retries_per_op"] = per_arrival(r.retries);
  uint64_t transitions = 0;
  uint64_t brownout_ticks = 0;  // shard-ticks above level 0
  for (const ShardOverloadStats& st : ov.per_shard) {
    transitions += st.breaker_transitions;
    for (size_t level = 1; level < st.brownout_ticks.size(); ++level) {
      brownout_ticks += st.brownout_ticks[level];
    }
  }
  layer["chaos.breaker_transitions"] = static_cast<double>(transitions);
  layer["chaos.brownout_ticks"] = static_cast<double>(brownout_ticks);
  layer["chaos.queue_depth_a"] = ov.queue_depth_window_a;
  layer["chaos.queue_growth"] =
      ov.queue_depth_window_a > 0 ? ov.queue_depth_window_b / ov.queue_depth_window_a : 0;
  layer["chaos.generator_late_us"] = 0;
  AddCounterLayers(headline.sys->ctx().counters(), ov.arrivals, layer);
  if (tracer != nullptr) {
    // Where arrivals spent their time: admission-queue waits, client retry
    // backoffs and service, summed from the observer's span histograms.
    double wait = 0;
    double backoff = 0;
    double serve = 0;
    headline.sys->machine().observer().hist()->ForEachNonEmpty(
        [&](TraceKind kind, SizeClass, const LatencyHistogram& hist) {
          const double total = hist.mean() * static_cast<double>(hist.count());
          wait += kind == TraceKind::kAdmissionWait ? total : 0;
          backoff += kind == TraceKind::kRetryWait ? total : 0;
          serve += kind == TraceKind::kServiceOp ? total : 0;
        });
    const double all = wait + backoff + serve;
    std::map<std::string, double>& blame = sim.traced_layer;
    blame["chaos.blame.total_us"] = all / kCyclesPerUs;
    blame["chaos.blame.wait_share"] = all > 0 ? wait / all : 0;
    blame["chaos.blame.backoff_share"] = all > 0 ? backoff / all : 0;
    blame["chaos.blame.serve_share"] = all > 0 ? serve / all : 0;
  }
  headline.sys.reset();

  // Fixed rates below, near and above capacity.
  for (const RateSpec& spec : kFixedRates) {
    const ArrivalConfig poisson{.enabled = true, .rate = spec.rate};
    const ServiceRun run = Serve(poisson, rate_arrivals_, tracer, result, request++);
    const std::string suffix = spec.name;
    layer["chaos.p99_us." + suffix] = CyclesToUs(run.report.all_latency.Percentile(99));
    layer["chaos.within_slo." + suffix] = static_cast<double>(WithinLimit(run.report.all_latency)) /
                                          static_cast<double>(run.report.overload.arrivals);
  }

  // Bisection for the highest Poisson rate that meets the SLO.
  double lo = 0;
  double hi = kSearchHi;
  for (int step = 0; step < kSearchSteps; ++step) {
    const double mid = (lo + hi) / 2;
    const ArrivalConfig poisson{.enabled = true, .rate = mid};
    const ServiceRun run = Serve(poisson, rate_arrivals_, tracer, result, request++);
    (MeetsSlo(run.report) ? lo : hi) = mid;
  }
  sim.max_rate_within_slo = lo;
  if (tracer != nullptr) {
    result.host.layer["chaos.run.host_ns_per_arrival"] =
        result.host.window_s * 1e9 / static_cast<double>(result.host.window_units);
  }
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeServeOpen(uint64_t seed, bool quick) {
  return std::make_unique<ServeOpen>(seed, quick);
}

}  // namespace o1bench
