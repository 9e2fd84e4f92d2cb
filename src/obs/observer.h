// Observer: the per-machine observability bundle -- one TraceRing plus one
// HistogramRegistry behind the ObsConfig switches, and (since the causal-
// tracing PR) the request-scoped state: the current TraceContext, the
// exemplar stager/reservoir, the per-tick metrics ring, and the service's
// published tail snapshot for procfs.
//
// Components reach it through SimContext::obs() (never null once a Machine
// exists); every hook first asks WantsSpan()/trace_enabled(), which is a
// branch or two when everything is off. The observer NEVER charges simulated
// cycles: with obs on or off, the machine's clock and counters are
// bit-identical (tests/obs/obs_system_test.cc asserts this), so observing
// the system cannot perturb the O(1) claims it exists to check.
#ifndef O1MEM_SRC_OBS_OBSERVER_H_
#define O1MEM_SRC_OBS_OBSERVER_H_

#include <memory>

#include "src/obs/exemplar.h"
#include "src/obs/latency_histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_config.h"
#include "src/obs/trace_context.h"
#include "src/obs/trace_ring.h"

namespace o1mem {

class Observer {
 public:
  explicit Observer(const ObsConfig& config) {
    if (config.trace) {
      ring_ = std::make_unique<TraceRing>(config.ring_capacity);
      stager_ = std::make_unique<TraceStager>(kExemplarStageSlots, kExemplarMaxEvents);
      exemplars_ = std::make_unique<ExemplarReservoir>(kExemplarsPerBucket, kExemplarMaxEvents);
      metrics_ = std::make_unique<MetricsRing>(kMetricsCapacity);
    }
    if (config.histograms) {
      hist_ = std::make_unique<HistogramRegistry>();
    }
  }

  bool trace_enabled() const { return ring_ != nullptr; }
  bool hist_enabled() const { return hist_ != nullptr; }

  // True when a span would be recorded anywhere (ring or histogram) -- the
  // one branch every disabled instrumentation site costs.
  bool WantsSpan() const { return hist_enabled() || trace_enabled(); }

  void Emit(const TraceEvent& e) {
    if (trace_enabled()) {
      ring_->Push(e);
    }
    // Request-scoped events also accumulate in their trace's stage slot so a
    // complete tree survives even after the ring wraps past it.
    if (stager_ != nullptr && e.trace_id != 0) {
      stager_->Append(e);
    }
  }

  // Records a completed span in both sinks (each subject to its switch).
  // The trailing triple is all-zero for spans outside any request scope.
  void RecordSpan(TraceKind kind, uint8_t cpu, uint64_t start_cycles, uint64_t duration_cycles,
                  uint64_t operand_bytes, uint64_t trace_id = 0, uint32_t span_id = 0,
                  uint32_t parent_span = 0) {
    const SizeClass size_class = SizeClassOf(operand_bytes);
    if (hist_ != nullptr) {
      hist_->Record(kind, size_class, duration_cycles);
    }
    Emit(TraceEvent{.start_cycles = start_cycles,
                    .duration_cycles = duration_cycles,
                    .operand_bytes = operand_bytes,
                    .trace_id = trace_id,
                    .span_id = span_id,
                    .parent_span = parent_span,
                    .kind = kind,
                    .cpu = cpu,
                    .instant = 0,
                    .size_class = size_class});
  }

  // --- request-scoped causal tracing ---------------------------------------

  const TraceContext& context() const { return context_; }
  void SetContext(const TraceContext& c) { context_ = c; }
  void SetParentSpan(uint32_t span) { context_.parent_span = span; }
  bool in_request() const { return context_.trace_id != 0; }
  // Allocates the next span id of the current trace.
  uint32_t AllocSpan() { return context_.next_span++; }

  // Claims a stage slot for an arriving request (no-op unless exemplars on).
  void BeginRequest(uint64_t trace_id) {
    if (stager_ != nullptr) {
      stager_->Begin(trace_id);
    }
  }

  // Abandons a request without a root span (shed before any service).
  void DropRequest(uint64_t trace_id) {
    if (stager_ != nullptr) {
      stager_->Release(trace_id);
    }
  }

  // Completes a request: records the root span (span id 1), then decides
  // whether the staged tree is a tail exemplar -- kept when the request ran
  // at or above the live p99 of its (op, size-class) bucket (always kept
  // while the bucket is still warming up; the ring overwrites early junk).
  void EndRequest(TraceKind kind, uint8_t cpu, uint64_t start_cycles, uint64_t duration_cycles,
                  uint64_t operand_bytes, uint64_t trace_id) {
    const SizeClass size_class = SizeClassOf(operand_bytes);
    if (hist_ != nullptr) {
      hist_->Record(kind, size_class, duration_cycles);
    }
    const TraceEvent root{.start_cycles = start_cycles,
                          .duration_cycles = duration_cycles,
                          .operand_bytes = operand_bytes,
                          .trace_id = trace_id,
                          .span_id = 1,
                          .parent_span = 0,
                          .kind = kind,
                          .cpu = cpu,
                          .instant = 0,
                          .size_class = size_class};
    Emit(root);  // also appends the root to the staged tree
    if (stager_ != nullptr) {
      if (const TraceStager::Slot* slot = stager_->Find(trace_id)) {
        bool keep = true;
        if (hist_ != nullptr) {
          const LatencyHistogram& h = hist_->At(kind, size_class);
          keep = h.count() <= 16 || duration_cycles >= h.Percentile(99.0);
        }
        if (keep) {
          exemplars_->Keep(root, *slot);
        }
        stager_->Release(trace_id);
      }
    }
  }

  // --- per-tick service metrics --------------------------------------------

  void PushMetric(const MetricSample& s) {
    if (metrics_ != nullptr) {
      metrics_->Push(s);
    }
  }

  // --- published tail snapshot (procfs `tailstat`) -------------------------

  void SetTailSnapshot(const TailSnapshot& t) { tail_ = t; }
  const TailSnapshot& tail() const { return tail_; }

  // Null when tracing is off.
  TraceRing* ring() { return ring_.get(); }
  const TraceRing* ring() const { return ring_.get(); }
  // Null when histograms are off.
  HistogramRegistry* hist() { return hist_.get(); }
  const HistogramRegistry* hist() const { return hist_.get(); }
  // Null when tracing is off (as are the stager and the metrics ring).
  ExemplarReservoir* exemplars() { return exemplars_.get(); }
  const ExemplarReservoir* exemplars() const { return exemplars_.get(); }
  const TraceStager* stager() const { return stager_.get(); }
  MetricsRing* metrics() { return metrics_.get(); }
  const MetricsRing* metrics() const { return metrics_.get(); }

 private:
  TraceContext context_;
  std::unique_ptr<TraceRing> ring_;
  std::unique_ptr<HistogramRegistry> hist_;
  std::unique_ptr<TraceStager> stager_;
  std::unique_ptr<ExemplarReservoir> exemplars_;
  std::unique_ptr<MetricsRing> metrics_;
  TailSnapshot tail_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_OBS_OBSERVER_H_
