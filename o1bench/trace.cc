#include "o1bench/trace.h"

#include <algorithm>
#include <cstdio>

namespace o1bench {

const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[] = {
#define O1BENCH_SPAN_STRING(id, str) str,
      O1BENCH_SPAN_NAMES(O1BENCH_SPAN_STRING)
#undef O1BENCH_SPAN_STRING
  };
  return kNames[static_cast<size_t>(name)];
}

void Tracer::BeginRequest(uint64_t index) {
  O1_CHECK(stack_.empty());
  request_ = index;
  next_id_ = 1;
  current_.clear();
}

void Tracer::EndRequest() {
  O1_CHECK(stack_.empty());
  if (current_.empty()) {
    return;
  }
  // Children close first, so the last record closed at depth 0 is a root;
  // rank the request by the sum of its roots.
  uint64_t sim = 0;
  uint64_t host = 0;
  for (const SpanRecord& r : current_) {
    if (r.parent == 0) {
      sim += r.sim_end - r.sim_start;
      host += r.host_end_ns - r.host_start_ns;
    }
  }
  Retain(slowest_sim_, sim);
  Retain(slowest_host_, host);
}

void Tracer::Retain(std::vector<Kept>& kept, uint64_t key) {
  if (kept.size() < kKeep) {
    kept.push_back(Kept{key, current_});
    return;
  }
  auto smallest = std::min_element(kept.begin(), kept.end(),
                                   [](const Kept& a, const Kept& b) { return a.key < b.key; });
  if (key > smallest->key) {
    smallest->key = key;
    smallest->spans = current_;
  }
}

void Tracer::Open(SpanName name) {
  const uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(OpenSpan{.name = name,
                            .id = next_id_++,
                            .parent = parent,
                            .host_start = HostNowNs(),
                            .sim_start = ctx_->now()});
}

void Tracer::Close(bool ok) {
  O1_CHECK(!stack_.empty());
  const uint64_t host_end = HostNowNs();
  const uint64_t sim_end = ctx_->now();
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  const uint64_t host = host_end - open.host_start;
  const uint64_t sim = sim_end - open.sim_start;
  // A Crash() inside a span can only advance the clock, never rewind it,
  // so children never exceed their parent.
  const uint64_t self_host = host - std::min(host, open.child_host);
  const uint64_t self_sim = sim - std::min(sim, open.child_sim);
  SpanAgg& a = agg_[static_cast<size_t>(open.name)];
  a.calls++;
  a.fail += ok ? 0 : 1;
  a.host_ns += host;
  a.sim_cycles += sim;
  a.self_host_ns += self_host;
  a.self_sim_cycles += self_sim;
  if (!stack_.empty()) {
    stack_.back().child_host += host;
    stack_.back().child_sim += sim;
  }
  current_.push_back(SpanRecord{.name = open.name,
                                .ok = ok,
                                .id = open.id,
                                .parent = open.parent,
                                .request = request_,
                                .host_start_ns = open.host_start,
                                .host_end_ns = host_end,
                                .sim_start = open.sim_start,
                                .sim_end = sim_end,
                                .self_host_ns = self_host,
                                .self_sim_cycles = self_sim});
}

namespace {

void WriteKept(std::FILE* f, const char* key, std::vector<const std::vector<SpanRecord>*> reqs) {
  std::fprintf(f, ",\n\"%s\": [", key);
  for (size_t i = 0; i < reqs.size(); ++i) {
    std::fprintf(f, "%s\n [", i == 0 ? "" : ",");
    const std::vector<SpanRecord>& spans = *reqs[i];
    for (size_t j = 0; j < spans.size(); ++j) {
      const SpanRecord& s = spans[j];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"request\":%llu,\"id\":%u,\"parent\":%u,\"ok\":%s,"
                   "\"host_start_ns\":%llu,\"host_end_ns\":%llu,\"sim_start\":%llu,"
                   "\"sim_end\":%llu,\"self_host_ns\":%llu,\"self_sim_cycles\":%llu}",
                   j == 0 ? "" : ",", SpanNameString(s.name),
                   static_cast<unsigned long long>(s.request), s.id, s.parent,
                   s.ok ? "true" : "false", static_cast<unsigned long long>(s.host_start_ns),
                   static_cast<unsigned long long>(s.host_end_ns),
                   static_cast<unsigned long long>(s.sim_start),
                   static_cast<unsigned long long>(s.sim_end),
                   static_cast<unsigned long long>(s.self_host_ns),
                   static_cast<unsigned long long>(s.self_sim_cycles));
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "]");
}

std::vector<const std::vector<SpanRecord>*> SortedDesc(const auto& kept) {
  std::vector<const std::vector<SpanRecord>*> out;
  std::vector<size_t> order(kept.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&kept](size_t a, size_t b) { return kept[a].key > kept[b].key; });
  for (size_t i : order) {
    out.push_back(&kept[i].spans);
  }
  return out;
}

}  // namespace

bool Tracer::WriteJson(const std::string& path, const std::string& header_fields) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{%s,\n\"layers\": {", header_fields.c_str());
  bool first = true;
  for (size_t i = 0; i < kSpanNameCount; ++i) {
    const SpanAgg& a = agg_[i];
    if (a.calls == 0) {
      continue;
    }
    std::fprintf(f,
                 "%s\n \"%s\": {\"calls\":%llu,\"fail\":%llu,\"host_ns\":%llu,"
                 "\"sim_cycles\":%llu,\"self_host_ns\":%llu,\"self_sim_cycles\":%llu}",
                 first ? "" : ",", SpanNameString(static_cast<SpanName>(i)),
                 static_cast<unsigned long long>(a.calls),
                 static_cast<unsigned long long>(a.fail),
                 static_cast<unsigned long long>(a.host_ns),
                 static_cast<unsigned long long>(a.sim_cycles),
                 static_cast<unsigned long long>(a.self_host_ns),
                 static_cast<unsigned long long>(a.self_sim_cycles));
    first = false;
  }
  std::fprintf(f, "}");
  WriteKept(f, "slowest_by_sim", SortedDesc(slowest_sim_));
  WriteKept(f, "slowest_by_host", SortedDesc(slowest_host_));
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace o1bench
