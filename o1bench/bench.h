// Shared shapes of the o1mem benchmark: what one repetition of a workload
// returns, the machine every workload runs on, and the statistics helpers
// the workloads share. Workloads drive the simulator only through the
// public functions of src/ (System, Mmu, TierEngine, FomManager,
// ShardedKvService).
#ifndef O1BENCH_BENCH_H_
#define O1BENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "o1bench/trace.h"
#include "src/os/system.h"

namespace o1bench {

// Values on the simulated clock, plus every count. A function of the seed
// alone: two repetitions with one seed must agree byte for byte.
struct SimOutcome {
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t samples = 0;  // units behind the percentiles
  // End-to-end values that only some workloads define.
  std::optional<double> ops_per_sim_s;
  std::optional<double> goodput_ratio;
  std::optional<double> max_rate_within_slo;  // units per simulated us
  std::optional<double> restart_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Where each System the repetition ran ended.
  struct End {
    uint64_t clock;  // simulated cycles
    o1mem::EventCounters counters;
  };
  std::vector<End> ends;
  // Deterministic per-layer values (counts, ratios, sim_us). `layer` is
  // computed by every run, so traced and untraced runs must agree on it;
  // `traced_layer` needs the spans or the observer and only a traced run
  // has it.
  std::map<std::string, double> layer;
  std::map<std::string, double> traced_layer;

  void RecordEnd(const o1mem::SimContext& ctx) { ends.push_back({ctx.now(), ctx.counters()}); }
};

// Values on the host clock.
struct HostOutcome {
  double setup_s = 0;   // System construction, initial state, warm-up
  double window_s = 0;  // the timed window
  uint64_t window_units = 0;
  double reference_s = 0;  // TimeReferenceKernel() around the repetition
  // Host-valued per-layer values (host_ns ratios and the like).
  std::map<std::string, double> layer;
};

struct RepResult {
  SimOutcome sim;
  HostOutcome host;
  bool correct = true;
  std::string error;  // first failed correctness check

  void Fail(const std::string& what) {
    if (correct) {
      error = what;
    }
    correct = false;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One repetition on fresh Systems: set-up, timed window, checks.
  // `tracer` is null in the untraced run.
  virtual RepResult Run(Tracer* tracer) = 0;
};

std::unique_ptr<Workload> MakeKvZipf(uint64_t seed, bool quick);
std::unique_ptr<Workload> MakeChurn(uint64_t seed, bool quick, o1mem::Backend backend);
std::unique_ptr<Workload> MakeServeOpen(uint64_t seed, bool quick);

// The four calibration anchors of EXPERIMENTS.md, each measured on a fresh
// System, against the paper's values.
struct Calibration {
  struct Anchor {
    const char* name;  // metric stem: calib.<name>_us / calib.<name>_rel_err
    double measured_us;
    double paper_us;
    double rel_err() const;
  };
  std::vector<Anchor> anchors;
  double max_rel_err() const;
};
Calibration RunCalibration();

// The benchmark machine: 4 GiB DRAM + 16 GiB NVM at 2 GHz (EXPERIMENTS.md's
// machine), observability off. The traced run turns the latency histograms
// on; they charge no simulated cycles.
o1mem::SystemConfig BenchMachine(bool traced);

// Fills the percentile fields from per-unit latencies (cycles); sorts them.
void SetPercentiles(std::vector<uint64_t>& cycles, SimOutcome& out);

// Counter-derived per-layer values over a window of `units` units.
void AddCounterLayers(const o1mem::EventCounters& d, uint64_t units,
                      std::map<std::string, double>& layer);

// Span-derived per-layer values: <name>.{calls,fail,sim_us} into `sim_layer`
// and <name>.host_ns into `host_layer`.
void AddSpanLayers(const Tracer& tracer, std::map<std::string, double>& sim_layer,
                   std::map<std::string, double>& host_layer);

// Host-speed reference: a fixed integer and cache workload that shares no
// code with the simulator. On a shared VM the host's speed drifts by a
// quarter within minutes, and the simulator's host times drift with it;
// timed around each repetition, this kernel measures that drift. Host
// metrics are reported at the speed at which it takes kReferenceNominalS,
// a typical time of it on the 4-vCPU 2.1 GHz Xeon VM the bounds were set
// on, where it ranged from 22 to 34 ms.
double TimeReferenceKernel();
inline constexpr double kReferenceNominalS = 0.025;

inline constexpr double kCyclesPerUs = 2000.0;  // the 2 GHz machine
inline double CyclesToUs(uint64_t cycles) { return static_cast<double>(cycles) / kCyclesPerUs; }

// Host ns elapsed since `start_ns`, in seconds.
inline double HostSecondsSince(uint64_t start_ns) {
  return static_cast<double>(HostNowNs() - start_ns) * 1e-9;
}

}  // namespace o1bench

#endif  // O1BENCH_BENCH_H_
