// Shared helpers for the paper-figure benchmarks.
//
// Every bench binary follows the same pattern:
//   * measurement functions return *simulated* microseconds (the Machine's
//     cycle clock converted at the configured frequency) -- deterministic,
//     host-independent;
//   * a body `void Run(BenchJson&, const BenchArgs&)` prints the paper's
//     series as aligned tables via json.Emit(table), which also mirrors each
//     one into the --json file;
//   * main() is one call to BenchMain (below), which parses the flags, runs
//     the body and writes the artifacts.
#ifndef O1MEM_BENCH_COMMON_H_
#define O1MEM_BENCH_COMMON_H_

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/json_out.h"
#include "src/obs/exporters.h"
#include "src/os/malloc.h"
#include "src/os/system.h"
#include "src/support/table.h"

namespace o1mem {

// Smoke mode for CI: O1MEM_BENCH_SMALL=1 trims every sweep so the whole
// bench suite finishes in seconds (trend shapes survive; magnitudes shrink).
inline bool BenchSmall() { return std::getenv("O1MEM_BENCH_SMALL") != nullptr; }

// Large mode for the nightly sweep: O1MEM_BENCH_LARGE=1 scales op-count
// loops up (billion-op territory) so per-op host overheads dominate setup
// and host-throughput numbers are stable. Ignored when small mode is also
// set (small wins: CI smoke must stay fast).
inline bool BenchLarge() {
  return std::getenv("O1MEM_BENCH_LARGE") != nullptr && !BenchSmall();
}

// Applies small/large mode to an op count: /8 in small mode (floor 1),
// x16 in large mode.
inline uint64_t ScaleOps(uint64_t ops) {
  if (BenchSmall()) {
    return ops / 8 > 0 ? ops / 8 : 1;
  }
  return BenchLarge() ? ops * 16 : ops;
}

// Applies small mode to a size sweep: keeps entries up to 16 MiB (always at
// least one).
inline std::vector<uint64_t> MaybeShrink(std::vector<uint64_t> sizes) {
  if (!BenchSmall()) {
    return sizes;
  }
  std::vector<uint64_t> kept;
  for (uint64_t size : sizes) {
    if (size <= 16 * kMiB) {
      kept.push_back(size);
    }
  }
  if (kept.empty() && !sizes.empty()) {
    kept.push_back(sizes.front());
  }
  return kept;
}

// Observability collected across every System a bench builds (benches make
// one machine per measurement): histogram registries merge, trace rings
// drain into per-System Chrome pid groups. Recording never charges cycles
// (src/obs/observer.h), so enabling it cannot move any printed number.
struct BenchObsState {
  std::optional<std::string> trace_path;  // --trace=<path>, unset = no trace
  HistogramRegistry hist;                 // merged across all Systems
  std::vector<TraceGroup> groups;         // one Chrome pid per drained System
  uint64_t next_pid = 1;
  double cpu_ghz = 2.0;  // for cycle->us conversion in the trace file
};

inline BenchObsState& BenchObs() {
  static BenchObsState state;
  return state;
}

// Drains `sys`'s observer into the bench-wide state: histograms merge,
// trace events (if any) become one pid group. SimTimer calls this on
// destruction; helpers without a timer can call it directly before their
// System dies. Safe to call repeatedly (drain semantics, no double count).
inline void CaptureObs(System& sys) {
  BenchObsState& state = BenchObs();
  Observer& obs = sys.machine().observer();
  state.cpu_ghz = sys.ctx().cost().cpu_ghz;
  if (obs.hist() != nullptr) {
    state.hist.Merge(*obs.hist());
    obs.hist()->Reset();
  }
  const bool any_ring = obs.ring() != nullptr && obs.ring()->total_pushed() != 0;
  const bool any_exemplars = obs.exemplars() != nullptr && obs.exemplars()->kept_total() != 0;
  const bool any_metrics = obs.metrics() != nullptr && obs.metrics()->total_pushed() != 0;
  if (any_ring || any_exemplars || any_metrics) {
    TraceGroup group;
    group.pid = state.next_pid++;
    group.label = "sys" + std::to_string(group.pid);
    if (obs.ring() != nullptr) {
      group.dropped = obs.ring()->dropped();
      group.events = obs.ring()->Drain();
    }
    if (obs.exemplars() != nullptr) {
      group.exemplars = obs.exemplars()->Drain();
    }
    if (obs.metrics() != nullptr) {
      group.metrics = obs.metrics()->Drain();
    }
    state.groups.push_back(std::move(group));
  }
}

// Default bench machine: 4 GiB DRAM + 16 GiB NVM at 2 GHz. Histograms are
// always on (free: the observer never charges cycles); the trace ring only
// when --trace was passed.
inline SystemConfig BenchConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 4 * kGiB;
  config.machine.nvm_bytes = 16 * kGiB;
  config.tmpfs_quota_bytes = 3 * kGiB;
  config.machine.obs.histograms = true;
  // The trace ring brings the tail exemplars and the per-tick metrics ring
  // with it: one --trace flag arms the whole causal-tracing artifact. Still
  // zero simulated cycles either way.
  config.machine.obs.trace = BenchObs().trace_path.has_value();
  return config;
}

// The paper's file-size sweep (Figures 1/6 use 4 KB - 1 MB; we extend to
// 1 GiB to show where the trends go at "big memory" scale).
inline std::vector<uint64_t> FileSizeSweep() {
  return MaybeShrink({4 * kKiB,   16 * kKiB,  64 * kKiB,  256 * kKiB, 1 * kMiB,
                      4 * kMiB,   16 * kMiB,  64 * kMiB,  256 * kMiB, 1 * kGiB});
}

inline std::string SizeLabel(uint64_t bytes) {
  char buf[32];
  if (bytes < kKiB) {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  } else if (bytes >= kGiB) {
    std::snprintf(buf, sizeof(buf), "%lluG", static_cast<unsigned long long>(bytes / kGiB));
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%lluM", static_cast<unsigned long long>(bytes / kMiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluK", static_cast<unsigned long long>(bytes / kKiB));
  }
  return buf;
}

// Per-tier occupancy in every BENCH_*.json: the slot is stamped while a
// System is still alive (SimTimer does it automatically on destruction;
// helpers without a timer call CaptureOccupancy(sys) themselves -- last
// writer wins), and BenchMain records it after the body ran. Makes tier
// pressure visible in the artifacts next to the timing tables. Benches that
// drive a bare Machine report all-zero occupancy.
inline TierOccupancy& LastOccupancy() {
  static TierOccupancy occupancy;
  return occupancy;
}

inline void CaptureOccupancy(System& sys) { LastOccupancy() = sys.Occupancy(); }

// Mirrors the merged latency histograms as a table in the bench JSON (one
// row per non-empty (op, size class) slot). Column names carry "cycles" so
// tools/bench_diff.py gates the tail latencies like any other cost column.
inline void RecordLatency(BenchJson& json) {
  const BenchObsState& state = BenchObs();
  Table table("latency histograms (cycles)");
  table.AddRow({"op", "class", "count", "p50_cycles", "p99_cycles", "max_cycles"});
  state.hist.ForEachNonEmpty([&table](TraceKind kind, SizeClass size_class,
                                      const LatencyHistogram& h) {
    table.AddRow({TraceKindName(kind), SizeClassName(size_class),
                  std::to_string(h.count()), std::to_string(h.Percentile(50)),
                  std::to_string(h.Percentile(99)), std::to_string(h.max())});
  });
  json.AddTable(table);
}

// Writes the merged Chrome trace when --trace=<path> was passed. False when
// the file cannot be written.
inline bool WriteBenchTrace() {
  const BenchObsState& state = BenchObs();
  if (!state.trace_path.has_value()) {
    return true;
  }
  if (!WriteChromeTraceFile(*state.trace_path, state.groups, state.cpu_ghz)) {
    std::fprintf(stderr, "cannot write trace %s\n", state.trace_path->c_str());
    return false;
  }
  return true;
}

inline void RecordOccupancy(BenchJson& json) {
  const TierOccupancy& o = LastOccupancy();
  json.Metric("dram_total_bytes", static_cast<double>(o.dram_total_bytes));
  json.Metric("dram_used_bytes", static_cast<double>(o.dram_used_bytes));
  json.Metric("dram_free_bytes", static_cast<double>(o.dram_free_bytes));
  json.Metric("nvm_total_bytes", static_cast<double>(o.nvm_total_bytes));
  json.Metric("nvm_used_bytes", static_cast<double>(o.nvm_used_bytes));
  json.Metric("nvm_free_bytes", static_cast<double>(o.nvm_free_bytes));
  json.Metric("dram_cache_bytes", static_cast<double>(o.dram_cache_bytes));
  json.Metric("dram_cache_used_bytes", static_cast<double>(o.dram_cache_used_bytes));
  json.Metric("dram_cache_free_bytes", static_cast<double>(o.dram_cache_free_bytes));
  json.Metric("contig_area_bytes", static_cast<double>(o.contig_area_bytes));
  json.Metric("contig_claimed_bytes", static_cast<double>(o.contig_claimed_bytes));
  json.Metric("contig_lent_file_bytes", static_cast<double>(o.contig_lent_file_bytes));
  json.Metric("contig_lent_tier_bytes", static_cast<double>(o.contig_lent_tier_bytes));
  json.Metric("contig_free_bytes", static_cast<double>(o.contig_free_bytes));
}

// RAII stopwatch over the simulated clock.
class SimTimer {
 public:
  explicit SimTimer(System& sys) : sys_(sys), start_(sys.ctx().now()) {}
  // Leaves a final occupancy snapshot behind and drains the observer (the
  // System outlives the timer's scope), so every timed measurement feeds
  // RecordOccupancy/RecordLatency and the merged --trace file.
  ~SimTimer() {
    CaptureOccupancy(sys_);
    CaptureObs(sys_);
  }
  double ElapsedUs() const { return sys_.ctx().clock().CyclesToUs(sys_.ctx().now() - start_); }
  void Restart() { start_ = sys_.ctx().now(); }

 private:
  System& sys_;
  uint64_t start_;
};

// A flag one bench reads besides --json=<path> and --trace=<path>, which
// every bench takes.
struct BenchFlag {
  enum class Kind {
    kText,         // --name=<value>
    kWholeNumber,  // --name=<digits>
    kSwitch,       // bare --name
  };
  std::string name;
  Kind kind = Kind::kText;
  // kText only: when not empty, the only values the flag accepts.
  std::vector<std::string> choices;
};

inline std::optional<uint64_t> ParseWholeNumber(const std::string& text) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

// The flags one run passed, checked against the bench's declarations.
class BenchArgs {
 public:
  // Value of --name=<value>, if passed.
  std::optional<std::string> Text(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? std::nullopt : std::optional<std::string>(it->second);
  }
  // Value of a kWholeNumber flag, if passed.
  std::optional<uint64_t> Number(const std::string& name) const {
    const std::optional<std::string> text = Text(name);
    return text.has_value() ? ParseWholeNumber(*text) : std::nullopt;
  }
  // Whether the kSwitch flag --name was passed.
  bool Switch(const std::string& name) const { return values_.count(name) != 0; }

  // Parses argv[1..argc) against `flags`. On an argument none of them reads
  // -- unknown or repeated, a valued flag without =<value>, a switch with
  // one, a kWholeNumber value that is not all digits, a value outside the
  // flag's choices -- prints it and why, then the accepted flags, to stderr
  // and returns nullopt.
  static std::optional<BenchArgs> Parse(int argc, char** argv, const std::string& bench,
                                        const std::vector<BenchFlag>& flags) {
    BenchArgs args;
    bool ok = true;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      const bool has_value = eq != std::string::npos;
      const auto flag = std::find_if(flags.begin(), flags.end(), [&](const BenchFlag& f) {
        return arg.substr(0, eq) == "--" + f.name;
      });
      const char* error = nullptr;
      if (flag == flags.end()) {
        error = "unknown flag";
      } else if (args.values_.count(flag->name) != 0) {
        error = "flag given twice";
      } else if ((flag->kind == BenchFlag::Kind::kSwitch) == has_value) {
        error = has_value ? "switch takes no value" : "flag needs =<value>";
      } else if (flag->kind == BenchFlag::Kind::kWholeNumber &&
                 !ParseWholeNumber(arg.substr(eq + 1)).has_value()) {
        error = "value is not a whole number";
      } else if (!flag->choices.empty() &&
                 std::find(flag->choices.begin(), flag->choices.end(), arg.substr(eq + 1)) ==
                     flag->choices.end()) {
        error = "value is not one the flag accepts";
      }
      if (error != nullptr) {
        std::fprintf(stderr, "%s: %s: %s\n", bench.c_str(), error, arg.c_str());
        ok = false;
        continue;
      }
      args.values_[flag->name] = has_value ? arg.substr(eq + 1) : "";
    }
    if (!ok) {
      std::string usage;
      for (const BenchFlag& f : flags) {
        std::string value = f.choices.empty() ? "..." : f.choices.front();
        for (size_t i = 1; i < f.choices.size(); ++i) {
          value += "|" + f.choices[i];
        }
        usage += " [--" + f.name + (f.kind == BenchFlag::Kind::kSwitch ? "]" : "=" + value + "]");
      }
      std::fprintf(stderr, "usage: %s%s\n", bench.c_str(), usage.c_str());
      return std::nullopt;
    }
    return args;
  }

 private:
  std::map<std::string, std::string> values_;
};

// The whole main of a bench binary:
//
//   int main(int argc, char** argv) { return BenchMain(argc, argv, "name", {}, Run); }
//
// Parses --json, --trace and the bench's own `flags` before any System is
// built (BenchConfig() reads --trace) and exits 2 on an argument none of
// them reads, without running the body. Then runs `body`, records the
// occupancy metrics and the latency table, and writes the trace and the
// JSON; returns 1 when either file cannot be written.
inline int BenchMain(int argc, char** argv, const std::string& bench,
                     std::vector<BenchFlag> flags,
                     const std::function<void(BenchJson&, const BenchArgs&)>& body) {
  flags.insert(flags.begin(), {{"json"}, {"trace"}});
  const std::optional<BenchArgs> args = BenchArgs::Parse(argc, argv, bench, flags);
  if (!args.has_value()) {
    return 2;
  }
  BenchObs().trace_path = args->Text("trace");
  BenchJson json(bench, args->Text("json"));
  body(json, *args);
  RecordOccupancy(json);
  RecordLatency(json);
  const bool trace_written = WriteBenchTrace();
  const bool json_written = json.Write();
  return trace_written && json_written ? 0 : 1;
}

}  // namespace o1mem

#endif  // O1MEM_BENCH_COMMON_H_
