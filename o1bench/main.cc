// o1bench: the o1mem benchmark binary.
//
//   o1bench --workload <kv_zipf|churn_fom|churn_baseline|serve_open>
//           [--seed N] [--seconds S] [--trace 0|1] [--quick] [--spans-out PATH]
//
// Inputs are generated from the seed before any timing. The workload then
// repeats, each repetition on a fresh System, until --seconds have passed
// (at least kMinReps times). Simulated (sim_*) values and counts must agree
// byte for byte across repetitions; host values are medians over all but the
// first, each scaled to the reference speed (TimeReferenceKernel).
//
// --trace 0 prints the end-to-end metrics of untraced repetitions
// (observability off). --trace 1 alternates untraced and traced
// repetitions: it prints the per-layer metrics of the traced ones, requires
// every System of the traced run to end with the untraced run's simulated
// clock and event counters, and writes the last traced repetition's
// retained span trees to --spans-out. --quick shrinks every workload for the
// self-test. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments, 3 the
// determinism gate failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "o1bench/bench.h"

namespace o1bench {
namespace {

// The seed runs use unless told otherwise, and the seed held out for
// checking a claimed gain on inputs it was not tuned on.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 20171;
// The first repetition warms the host's caches and heap; host values are
// medians over the repetitions after it. A traced run makes this many
// untraced + traced pairs.
constexpr size_t kMinReps = 3;

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"sim_p50_us", "sim_us"},
      {"sim_p99_us", "sim_us"},
      {"sim_p999_us", "sim_us"},
      {"sim_ops_per_s", "ops/sim_s"},
      {"goodput_ratio", "ratio"},
      {"max_rate_within_slo", "ops/sim_us"},
      {"restart_us", "sim_us"},
      {"error_rate", "fraction"},
      {"host_ops_per_s", "ops/s"},
      {"host_peak_rss_mib", "MiB"},
      {"setup_s", "s"},
      {"calib_max_rel_err", "fraction"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> m;
    const auto call_stats = [&m](const std::string& stem) {
      m.push_back({stem + ".calls", "count"});
      m.push_back({stem + ".host_ns", "ns"});
      m.push_back({stem + ".sim_us", "sim_us"});
      m.push_back({stem + ".fail", "count"});
    };
    m.push_back({"run.units", "count"});
    // sim
    call_stats("sim.read_virt");
    call_stats("sim.write_virt");
    call_stats("sim.touch");
    m.push_back({"sim.tlb_lookups", "count"});
    m.push_back({"sim.tlb_hit_rate", "fraction"});
    m.push_back({"sim.range_tlb_hit_rate", "fraction"});
    m.push_back({"sim.walks_per_op", "count/op"});
    m.push_back({"sim.ptes_written_per_step", "count/op"});
    m.push_back({"sim.shootdown_ipis_per_step", "count/op"});
    // tier
    m.push_back({"tier.note_access.calls", "count"});
    m.push_back({"tier.note_access.host_ns", "ns"});
    call_stats("tier.tick");
    m.push_back({"tier.dram_hit_rate", "fraction"});
    m.push_back({"tier.promotions", "count"});
    m.push_back({"tier.demotions", "count"});
    m.push_back({"tier.promoted_bytes_end", "bytes"});
    // os + fom + fs
    for (const char* call : {"mmap", "munmap", "mprotect", "fork", "exit", "creat", "ftruncate",
                             "unlink", "reclaim"}) {
      call_stats(std::string("os.") + call);
    }
    m.push_back({"os.mmap.small_sim_us", "sim_us"});
    m.push_back({"os.mmap.sim_size_ratio", "ratio"});
    m.push_back({"os.mmap.small_host_ns", "ns"});
    m.push_back({"os.mmap.host_size_ratio", "ratio"});
    // fom restart
    m.push_back({"os.crash.sim_us", "sim_us"});
    m.push_back({"os.launch.sim_us", "sim_us"});
    m.push_back({"fom.open_segment.sim_us", "sim_us"});
    m.push_back({"fom.map.sim_us", "sim_us"});
    // mm
    m.push_back({"mm.faults_per_step", "count/op"});
    m.push_back({"mm.frame_allocs", "count"});
    m.push_back({"mm.pcp_serve_rate", "fraction"});
    m.push_back({"mm.zeroed_allocs", "count"});
    m.push_back({"mm.prezero_hit_rate", "fraction"});
    m.push_back({"mm.pages_scanned", "count"});
    m.push_back({"mm.reclaim_yield", "fraction"});
    // chaos
    m.push_back({"chaos.run.host_ns_per_arrival", "ns"});
    m.push_back({"chaos.run.sim_us", "sim_us"});
    m.push_back({"chaos.arrivals", "count"});
    m.push_back({"chaos.shed_rate", "fraction"});
    m.push_back({"chaos.retries_per_op", "count/op"});
    m.push_back({"chaos.breaker_transitions", "count"});
    m.push_back({"chaos.brownout_ticks", "count"});
    m.push_back({"chaos.queue_depth_a", "count"});
    m.push_back({"chaos.queue_growth", "ratio"});
    m.push_back({"chaos.blame.total_us", "sim_us"});
    m.push_back({"chaos.blame.wait_share", "fraction"});
    m.push_back({"chaos.blame.backoff_share", "fraction"});
    m.push_back({"chaos.blame.serve_share", "fraction"});
    m.push_back({"chaos.generator_late_us", "sim_us"});
    for (const char* rate : {"8", "14", "20"}) {
      m.push_back({std::string("chaos.p99_us.") + rate, "sim_us"});
      m.push_back({std::string("chaos.within_slo.") + rate, "fraction"});
    }
    // obs
    m.push_back({"obs.trace_overhead", "ratio"});
    m.push_back({"obs.untraced_host_s", "s"});
    // host: the end-to-end host values before the reference-speed scaling
    m.push_back({"host.raw_ops_per_s", "ops/s"});
    m.push_back({"host.raw_setup_s", "s"});
    m.push_back({"host.reference_ms", "ms"});
    // calibration against the paper
    for (const char* anchor : {"tmpfs_mmap", "dax_mmap", "populate_per_page", "minor_fault"}) {
      m.push_back({std::string("calib.") + anchor + "_us", "sim_us"});
      m.push_back({std::string("calib.") + anchor + "_rel_err", "fraction"});
    }
    return m;
  }();
  return specs;
}

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string spans_out;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "o1bench: %s\nusage: o1bench --workload <kv_zipf|churn_fom|churn_baseline|"
               "serve_open> [--seed N (default %" PRIu64 ", held-out %" PRIu64
               ")] [--seconds S] [--trace 0|1] [--quick] [--spans-out PATH]\n",
               why, kDefaultSeed, kHeldOutSeed);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      o.quick = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        return false;
      }
    } else if (arg == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || !(o.seconds >= 0) || o.seconds > 3600) {
        return false;
      }
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") {
        return false;
      }
      o.trace = v == "1";
    } else if (arg == "--spans-out") {
      o.spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "kv_zipf") {
    return MakeKvZipf(o.seed, o.quick);
  }
  if (o.workload == "churn_fom") {
    return MakeChurn(o.seed, o.quick, o1mem::Backend::kFom);
  }
  if (o.workload == "churn_baseline") {
    return MakeChurn(o.seed, o.quick, o1mem::Backend::kBaseline);
  }
  if (o.workload == "serve_open") {
    return MakeServeOpen(o.seed, o.quick);
  }
  return nullptr;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Every simulated value and count of a repetition, printed exactly: the
// traced-only per-layer values too if `with_traced`.
std::string Fingerprint(const SimOutcome& s, bool with_traced) {
  std::string out;
  for (double v : {s.p50_us, s.p99_us, s.p999_us}) {
    out += Num(v) + " ";
  }
  for (const std::optional<double>& v :
       {s.ops_per_sim_s, s.goodput_ratio, s.max_rate_within_slo, s.restart_us}) {
    out += (v ? Num(*v) : "-") + " ";
  }
  out += std::to_string(s.samples) + " " + std::to_string(s.attempted) + " " +
         std::to_string(s.failed);
  for (const SimOutcome::End& end : s.ends) {
    out += " end@" + std::to_string(end.clock);
    end.counters.ForEachField([&out](const char* name, uint64_t value) {
      out += std::string(" ") + name + "=" + std::to_string(value);
    });
  }
  for (const auto& [name, value] : s.layer) {
    out += " " + name + "=" + Num(value);
  }
  if (with_traced) {
    for (const auto& [name, value] : s.traced_layer) {
      out += " " + name + "=" + Num(value);
    }
  }
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// How much slower than nominal the host ran around this repetition.
double Slowdown(const RepResult& r) { return r.host.reference_s / kReferenceNominalS; }

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Prints every metric of `specs`; one missing from `values` reads `unset`.
void PrintResult(bool correct, const SimOutcome& s, const std::vector<MetricSpec>& specs,
                 const std::map<std::string, double>& values, double unset) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(s.attempted) +
                     ", \"failed\": " + std::to_string(s.failed) + ", \"metrics\": {";
  bool comma = false;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? unset : it->second;
    json += (comma ? ", \"" : "\"") + spec.name + "\": {\"value\": " + Num(value) +
            ", \"unit\": \"" + spec.unit + "\"}";
    comma = true;
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, o)) {
    return Usage("bad arguments");
  }
  std::unique_ptr<Workload> workload = MakeWorkload(o);
  if (workload == nullptr) {
    return Usage("unknown workload");
  }
  // Simulated memory lives in 2 MiB calloc'd slabs that stay host-resident
  // only where written. Freeing one repetition's slabs would otherwise raise
  // glibc's dynamic mmap threshold, so later repetitions' slabs come from the
  // heap and calloc touches all 2 MiB: pin the threshold so every
  // repetition allocates like the first.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // The calibration anchors are costs of the Linux-like baseline.
  const std::optional<Calibration> calib =
      o.workload == "churn_baseline" ? std::optional(RunCalibration()) : std::nullopt;

  const auto run_rep = [&workload](Tracer* tracer) {
    const double reference_before = TimeReferenceKernel();
    RepResult r = workload->Run(tracer);
    r.host.reference_s = (reference_before + TimeReferenceKernel()) / 2;
    return r;
  };
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::unique_ptr<Tracer> last_tracer;
  const uint64_t start = HostNowNs();
  double rep_s = 0;  // longest repetition (or pair) so far
  while (untraced.size() < kMinReps || HostSecondsSince(start) + rep_s <= o.seconds) {
    const uint64_t rep_start = HostNowNs();
    untraced.push_back(run_rep(nullptr));
    if (o.trace) {
      last_tracer = std::make_unique<Tracer>();
      RepResult r = run_rep(last_tracer.get());
      AddSpanLayers(*last_tracer, r.sim.traced_layer, r.host.layer);
      traced.push_back(std::move(r));
    }
    rep_s = std::max(rep_s, HostSecondsSince(rep_start));
  }

  // Determinism gate: every repetition's simulated values and counts agree
  // byte for byte, and every System of the traced run ends where the
  // untraced one's does.
  const std::string expect = Fingerprint(untraced.front().sim, false);
  bool deterministic = true;
  for (const RepResult& r : untraced) {
    deterministic = deterministic && Fingerprint(r.sim, false) == expect;
  }
  for (const RepResult& r : traced) {
    deterministic = deterministic && Fingerprint(r.sim, false) == expect &&
                    Fingerprint(r.sim, true) == Fingerprint(traced.front().sim, true);
  }
  if (!deterministic) {
    std::fprintf(stderr, "o1bench: determinism gate failed: repetitions of seed %" PRIu64
                         " disagree on simulated values\n", o.seed);
    return 3;
  }
  bool correct = true;
  for (const std::vector<RepResult>* reps : {&untraced, &traced}) {
    for (const RepResult& r : *reps) {
      if (!r.correct) {
        std::fprintf(stderr, "o1bench: check failed: %s\n", r.error.c_str());
        correct = false;
      }
    }
  }

  // Host values at the reference speed: each repetition's time scaled by
  // the nominal over the reference kernel's time around it.
  std::vector<double> window_s;
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;
  std::vector<double> raw_setup_s;
  std::vector<double> raw_ops_per_s;
  std::vector<double> reference_s;
  for (const RepResult& r : std::span(untraced).subspan(1)) {
    const double slowdown = Slowdown(r);
    const double raw_rate = static_cast<double>(r.host.window_units) / r.host.window_s;
    window_s.push_back(r.host.window_s / slowdown);
    setup_s.push_back(r.host.setup_s / slowdown);
    ops_per_s.push_back(raw_rate * slowdown);
    raw_setup_s.push_back(r.host.setup_s);
    raw_ops_per_s.push_back(raw_rate);
    reference_s.push_back(r.host.reference_s);
  }
  std::fprintf(stderr, "o1bench: %s seed %" PRIu64 ": %zu untraced + %zu traced repetitions\n",
               o.workload.c_str(), o.seed, untraced.size(), traced.size());

  std::map<std::string, double> values;
  if (!o.trace) {
    const SimOutcome& s = untraced.front().sim;
    const auto put = [&values](const char* name, const std::optional<double>& v) {
      if (v) {
        values[name] = *v;
      }
    };
    values["sim_p50_us"] = s.p50_us;
    values["sim_p99_us"] = s.p99_us;
    values["sim_p999_us"] = s.p999_us;
    put("sim_ops_per_s", s.ops_per_sim_s);
    put("goodput_ratio", s.goodput_ratio);
    put("max_rate_within_slo", s.max_rate_within_slo);
    put("restart_us", s.restart_us);
    // Rule of succession: a failure-free run reads ~1/attempted, not 0.
    values["error_rate"] = static_cast<double>(s.failed + 1) / static_cast<double>(s.attempted + 2);
    values["host_ops_per_s"] = Median(ops_per_s);
    values["host_peak_rss_mib"] = PeakRssMib();
    values["setup_s"] = Median(setup_s);
    if (calib) {
      values["calib_max_rel_err"] = calib->max_rel_err();
    }
    if (s.samples < 10000) {
      std::fprintf(stderr, "o1bench: only %" PRIu64 " samples: sim_p999_us is not resolved\n",
                   s.samples);
    }
    // A metric the workload does not define reads 1, so that no printed
    // value is 0 and a spread relative to its median stays defined.
    PrintResult(correct, s, EndToEndMetrics(), values, 1.0);
    return correct ? 0 : 1;
  }

  values = traced.front().sim.layer;
  values.insert(traced.front().sim.traced_layer.begin(), traced.front().sim.traced_layer.end());
  // Host-valued layers: medians over the traced repetitions after the first.
  std::map<std::string, std::vector<double>> host_samples;
  std::vector<double> traced_window_s;
  for (const RepResult& r : std::span(traced).subspan(1)) {
    for (const auto& [name, value] : r.host.layer) {
      host_samples[name].push_back(value);
    }
    traced_window_s.push_back(r.host.window_s / Slowdown(r));
  }
  for (const auto& [name, samples] : host_samples) {
    values[name] = Median(samples);
  }
  values["obs.untraced_host_s"] = Median(window_s);
  values["obs.trace_overhead"] = Median(traced_window_s) / Median(window_s) - 1.0;
  values["host.raw_ops_per_s"] = Median(raw_ops_per_s);
  values["host.raw_setup_s"] = Median(raw_setup_s);
  values["host.reference_ms"] = Median(reference_s) * 1e3;
  if (calib) {
    for (const Calibration::Anchor& a : calib->anchors) {
      values[std::string("calib.") + a.name + "_us"] = a.measured_us;
      values[std::string("calib.") + a.name + "_rel_err"] = a.rel_err();
    }
  }
  if (!o.spans_out.empty()) {
    const std::string header = "\"workload\": \"" + o.workload + "\", \"seed\": " +
                               std::to_string(o.seed);
    if (!last_tracer->WriteJson(o.spans_out, header)) {
      std::fprintf(stderr, "o1bench: cannot write %s\n", o.spans_out.c_str());
    }
  }
  // A layer the workload leaves idle reads 0.
  PrintResult(correct, untraced.front().sim, PerLayerMetrics(), values, 0.0);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace o1bench

int main(int argc, char** argv) { return o1bench::Main(argc, argv); }
