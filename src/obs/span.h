// Scoped instrumentation helpers gluing the Observer to the SimContext.
//
// ObsSpan brackets one operation: it stamps the sim clock on entry and, on
// destruction, records a complete (begin + duration) event into the ring and
// the (kind, size-class) histogram. When the machine's observer wants
// neither (the default), construction is one pointer test + one branch and
// destruction is one branch -- and in every case zero simulated cycles.
//
// When the Observer is inside a request scope (TraceScope below), a live
// ObsSpan also joins the request's span tree: it allocates the next span id,
// parents itself under the current span, and makes itself the parent for any
// spans opened inside it -- plain RAII nesting yields the causal tree, with
// no per-layer plumbing: the ~40 existing ObsSpan sites in System, the
// pager, the MMU, the migration engine, and PMFS inherit request context
// automatically.
//
// Header-only on top of SimContext so any layer holding a SimContext* can
// instrument without new link dependencies.
#ifndef O1MEM_SRC_OBS_SPAN_H_
#define O1MEM_SRC_OBS_SPAN_H_

#include "src/obs/observer.h"
#include "src/sim/context.h"

namespace o1mem {

class ObsSpan {
 public:
  // `operand_bytes` is the length the operation acts on (0 = no byte
  // operand); it can be refined later via set_operand() once known.
  ObsSpan(SimContext& ctx, TraceKind kind, uint64_t operand_bytes = 0)
      : kind_(kind), operand_(operand_bytes) {
    Observer* obs = ctx.obs();
    if (obs != nullptr && obs->WantsSpan()) {
      ctx_ = &ctx;
      start_ = ctx.now();
      if (obs->in_request()) {
        trace_id_ = obs->context().trace_id;
        parent_ = obs->context().parent_span;
        span_ = obs->AllocSpan();
        obs->SetParentSpan(span_);
      }
    }
  }

  ~ObsSpan() {
    if (ctx_ != nullptr) {
      Observer* obs = ctx_->obs();
      if (trace_id_ != 0) {
        obs->SetParentSpan(parent_);
      }
      obs->RecordSpan(kind_, static_cast<uint8_t>(ctx_->current_cpu()), start_,
                      ctx_->now() - start_, operand_, trace_id_, span_, parent_);
    }
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  void set_operand(uint64_t operand_bytes) { operand_ = operand_bytes; }

 private:
  SimContext* ctx_ = nullptr;  // non-null only when the span is live
  TraceKind kind_;
  uint64_t operand_;
  uint64_t start_ = 0;
  uint64_t trace_id_ = 0;  // non-zero only when opened inside a request
  uint32_t span_ = 0;
  uint32_t parent_ = 0;
};

// Point event (no duration): fault-injector trigger, crash, ... Tagged with
// the current request context (own span id, parented under the enclosing
// span) so instants land in the tree too.
inline void ObsInstant(SimContext& ctx, TraceKind kind, uint64_t operand_bytes = 0) {
  Observer* obs = ctx.obs();
  if (obs != nullptr && obs->trace_enabled()) {
    const bool in_req = obs->in_request();
    obs->Emit(TraceEvent{.start_cycles = ctx.now(),
                         .duration_cycles = 0,
                         .operand_bytes = operand_bytes,
                         .trace_id = in_req ? obs->context().trace_id : 0,
                         .span_id = in_req ? obs->AllocSpan() : 0,
                         .parent_span = in_req ? obs->context().parent_span : 0,
                         .kind = kind,
                         .cpu = static_cast<uint8_t>(ctx.current_cpu()),
                         .instant = 1,
                         .size_class = SizeClassOf(operand_bytes)});
  }
}

// Establishes request scope: while alive, every ObsSpan/ObsInstant joins
// trace `trace_id` with new spans parented under `parent_span` (1 = the
// request's root). The request's span-id counter lives in the caller's
// request record (`next_span`) and is written back on exit, so a request
// served across several scopes -- queued, retried, resumed next tick --
// keeps allocating unique, deterministic span ids.
class TraceScope {
 public:
  TraceScope(Observer* obs, uint64_t trace_id, uint32_t* next_span, uint32_t parent_span = 1)
      : next_span_(next_span) {
    if (obs != nullptr && trace_id != 0) {
      obs_ = obs;
      saved_ = obs->context();
      obs->SetContext(TraceContext{trace_id, parent_span,
                                   *next_span < 2 ? 2 : *next_span});
    }
  }

  ~TraceScope() {
    if (obs_ != nullptr) {
      *next_span_ = obs_->context().next_span;
      obs_->SetContext(saved_);
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Observer* obs_ = nullptr;  // non-null only when the scope is live
  uint32_t* next_span_;
  TraceContext saved_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_OBS_SPAN_H_
