#include "src/obs/exporters.h"

#include <cinttypes>
#include <cstdio>

namespace o1mem {

namespace {

void AppendEvent(std::string& out, const TraceEvent& e, uint64_t pid, double cycles_to_us) {
  char buf[512];
  const double ts = static_cast<double>(e.start_cycles) * cycles_to_us;
  // Causal-tracing triple, present only on request-scoped events. Trace ids
  // are full 64-bit values, so they go out as hex strings -- JSON numbers
  // lose integer precision past 2^53.
  char trace[96];
  trace[0] = '\0';
  if (e.trace_id != 0) {
    std::snprintf(trace, sizeof(trace), ",\"trace\":\"0x%" PRIx64 "\",\"span\":%u,\"parent\":%u",
                  e.trace_id, e.span_id, e.parent_span);
  }
  if (e.instant != 0) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"p\",\"ts\":%.3f,"
                  "\"pid\":%" PRIu64 ",\"tid\":%u,\"args\":{\"bytes\":%" PRIu64
                  ",\"size_class\":\"%s\"%s}}",
                  TraceKindName(e.kind), CategoryName(e.kind), ts, pid,
                  static_cast<unsigned>(e.cpu), e.operand_bytes, SizeClassName(e.size_class),
                  trace);
  } else {
    const double dur = static_cast<double>(e.duration_cycles) * cycles_to_us;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%" PRIu64 ",\"tid\":%u,\"args\":{\"bytes\":%" PRIu64
                  ",\"size_class\":\"%s\",\"cycles\":%" PRIu64 "%s}}",
                  TraceKindName(e.kind), CategoryName(e.kind), ts, dur, pid,
                  static_cast<unsigned>(e.cpu), e.operand_bytes, SizeClassName(e.size_class),
                  e.duration_cycles, trace);
  }
  out += buf;
}

void AppendMetricCounter(std::string& out, const MetricSample& m, uint64_t pid,
                         double cycles_to_us) {
  char buf[512];
  const double ts = static_cast<double>(m.cycles) * cycles_to_us;
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"service_metrics\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%" PRIu64
                ",\"args\":{\"tick\":%" PRIu64
                ",\"queue_depth\":%u,\"pending_retries\":%u,\"brownout_level\":%u,"
                "\"breakers_open\":%u,\"shards_down\":%u,\"arrivals\":%u,"
                "\"tier_promoted_mb\":%.3f}}",
                ts, pid, m.tick, m.queue_depth, m.pending_retries,
                static_cast<unsigned>(m.brownout_level), static_cast<unsigned>(m.breakers_open),
                static_cast<unsigned>(m.shards_down), static_cast<unsigned>(m.arrivals),
                static_cast<double>(m.tier_promoted_bytes) / (1024.0 * 1024.0));
  out += buf;
}

void AppendExemplar(std::string& out, const Exemplar& x, uint64_t pid, double cycles_to_us) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"pid\":%" PRIu64 ",\"trace\":\"0x%" PRIx64
                "\",\"op\":\"%s\",\"size_class\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f,"
                "\"cycles\":%" PRIu64 ",\"events_dropped\":%u,\"events\":[",
                pid, x.trace_id, TraceKindName(x.kind), SizeClassName(x.size_class),
                static_cast<double>(x.start_cycles) * cycles_to_us,
                static_cast<double>(x.duration_cycles) * cycles_to_us, x.duration_cycles,
                x.events_dropped);
  out += buf;
  bool first = true;
  for (const TraceEvent& e : x.events) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendEvent(out, e, pid, cycles_to_us);
  }
  out += "]}";
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceGroup>& groups, double cpu_ghz) {
  // One cycle = 1/ghz ns = 1/(ghz*1000) us.
  const double cycles_to_us = cpu_ghz > 0 ? 1.0 / (cpu_ghz * 1000.0) : 1.0;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const TraceGroup& g : groups) {
    // Process-name metadata record so Perfetto labels the group.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu64
                  ",\"args\":{\"name\":\"%s%s\"}}",
                  first ? "" : ",", g.pid, g.label.c_str(),
                  g.dropped != 0 ? " (ring wrapped: oldest events dropped)" : "");
    out += buf;
    first = false;
    // Machine-readable drop count: tools refuse to compute percentiles over
    // a silently truncated window (trace_report.py --strict).
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"trace_dropped\",\"ph\":\"M\",\"pid\":%" PRIu64
                  ",\"args\":{\"dropped\":%" PRIu64 "}}",
                  g.pid, g.dropped);
    out += buf;
    for (const TraceEvent& e : g.events) {
      out += ',';
      AppendEvent(out, e, g.pid, cycles_to_us);
    }
    for (const MetricSample& m : g.metrics) {
      out += ',';
      AppendMetricCounter(out, m, g.pid, cycles_to_us);
    }
  }
  out += "]";
  // Retained tail span trees ride along as an extra top-level key: legal
  // Chrome-trace JSON (viewers ignore unknown keys), structured enough for
  // tools/tail_explainer.py to rebuild each tree without scanning the ring.
  bool any_exemplars = false;
  for (const TraceGroup& g : groups) {
    any_exemplars = any_exemplars || !g.exemplars.empty();
  }
  if (any_exemplars) {
    out += ",\"exemplars\":[";
    first = true;
    for (const TraceGroup& g : groups) {
      for (const Exemplar& x : g.exemplars) {
        if (!first) {
          out += ',';
        }
        first = false;
        AppendExemplar(out, x, g.pid, cycles_to_us);
      }
    }
    out += "]";
  }
  out += "}\n";
  return out;
}

bool WriteChromeTraceFile(const std::string& path, const std::vector<TraceGroup>& groups,
                          double cpu_ghz) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ChromeTraceJson(groups, cpu_ghz);
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return n == json.size();
}

Table LatencyTable(const HistogramRegistry& hist) {
  Table table("latency histograms (cycles)");
  table.AddRow({"op", "class", "count", "p50_cycles", "p99_cycles", "max_cycles"});
  hist.ForEachNonEmpty([&table](TraceKind kind, SizeClass c, const LatencyHistogram& h) {
    table.AddRow({TraceKindName(kind), SizeClassName(c), Table::Int(h.count()),
                  Table::Int(h.Percentile(50)), Table::Int(h.Percentile(99)),
                  Table::Int(h.max())});
  });
  return table;
}

Table TailTable(const TailSnapshot& tail) {
  Table table("Tail blame: p999 + top component per shard (service-side accounting)");
  table.AddRow({"shard", "requests", "p999_us", "top_component", "share"});
  const auto top = [](const std::string& component) {
    return component.empty() ? std::string("-") : component;
  };
  table.AddRow({"all", Table::Int(tail.requests), Table::Num(tail.p999_us),
                top(tail.top_component), Table::Num(tail.top_share)});
  for (const TailShardStat& st : tail.shards) {
    table.AddRow({Table::Int(st.shard), Table::Int(st.requests), Table::Num(st.p999_us),
                  top(st.top_component), Table::Num(st.top_share)});
  }
  return table;
}

}  // namespace o1mem
