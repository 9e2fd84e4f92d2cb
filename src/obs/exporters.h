// Exporters: turn observer state into artifacts.
//
//   * Chrome `trace_event` JSON -- loadable in Perfetto / about:tracing and
//     parsed by tools/trace_report.py. Events carry args.bytes /
//     args.size_class / args.cycles so the O(1) verdict (flat p99 across
//     size classes) can be computed mechanically downstream.
//   * procfs-style histogram summary -- the `latency` section of
//     System::DumpProcSnapshot(), one row per non-empty (op, size class).
//
// Traces from several machines (benchmarks build one System per
// measurement) merge into one file: each group becomes a Chrome `pid` whose
// label names the group.
#ifndef O1MEM_SRC_OBS_EXPORTERS_H_
#define O1MEM_SRC_OBS_EXPORTERS_H_

#include <string>
#include <vector>

#include "src/obs/exemplar.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"

namespace o1mem {

// One machine's worth of events in a merged trace.
struct TraceGroup {
  uint64_t pid = 0;
  std::string label;  // shown as the Chrome/Perfetto process name
  uint64_t dropped = 0;  // ring overwrites: events older than the window
  std::vector<TraceEvent> events;
  // Retained tail span trees; serialized under the top-level "exemplars" key
  // (extra top-level keys are legal Chrome-trace JSON, Perfetto ignores them).
  std::vector<Exemplar> exemplars;
  // Per-tick service samples; serialized as ph:"C" counter events so Perfetto
  // plots queue depth / brownout / breaker state under the spans.
  std::vector<MetricSample> metrics;
};

// Chrome trace JSON for the groups; `cpu_ghz` converts cycle stamps to the
// microsecond ts/dur fields the format requires.
std::string ChromeTraceJson(const std::vector<TraceGroup>& groups, double cpu_ghz);

// Writes ChromeTraceJson to `path`; false on I/O failure.
bool WriteChromeTraceFile(const std::string& path, const std::vector<TraceGroup>& groups,
                          double cpu_ghz);

// Aligned text block: op, class, count, p50/p99/max cycles per non-empty
// histogram slot ("(none)" when everything is empty).
std::string HistogramSummaryText(const HistogramRegistry& hist);

}  // namespace o1mem

#endif  // O1MEM_SRC_OBS_EXPORTERS_H_
