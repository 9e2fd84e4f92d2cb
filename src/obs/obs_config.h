// Observability knobs (MachineConfig::obs). Everything defaults OFF so a
// default-configured machine is cycle- and allocation-identical to the seed:
// the observer never charges simulated cycles (it is the measurement
// apparatus, not part of the machine being measured), and with both switches
// off every instrumentation site costs one pointer test + one branch.
//
// The two switches are independent:
//   * `trace`      -- typed events go into a fixed-capacity overwrite-oldest
//                     ring (TraceRing); memory is bounded by `ring_capacity`
//                     regardless of run length. It also keeps the exemplar
//                     reservoir of slow requests' span trees and the
//                     per-tick service metrics ring, both fixed-size.
//   * `histograms` -- per-(op kind, operand-size class) log2-bucket cycle
//                     histograms (HistogramRegistry); fixed-size arrays, so
//                     O(1) memory and O(1) per-sample cost.
#ifndef O1MEM_SRC_OBS_OBS_CONFIG_H_
#define O1MEM_SRC_OBS_OBS_CONFIG_H_

#include <cstdint>

namespace o1mem {

// Event categories, used as a bitmask: a disabled category is rejected with
// a single branch before any event is materialized.
enum TraceCategory : uint32_t {
  kCatSyscall = 1u << 0,    // System entry points (mmap, read, fork, ...)
  kCatFault = 1u << 1,      // demand-pager fault handling
  kCatShootdown = 1u << 2,  // batched TLB shootdown flushes
  kCatTier = 1u << 3,       // tier promotion / demotion / writeback / ticks
  kCatReclaim = 1u << 4,    // reclaim passes (baseline scan, FOM shed)
  kCatJournal = 1u << 5,    // PMFS journal commits and replays
  kCatInjector = 1u << 6,   // fault-injector triggers and crashes
  kCatService = 1u << 7,    // service-level overload events (shed, breaker, brownout)
  kCatAll = (1u << 8) - 1,
};

struct ObsConfig {
  // Master switch for the trace ring. Off: Emit() is one branch.
  bool trace = false;
  // Category enable bitmask (only consulted when `trace` is set).
  uint32_t categories = kCatAll;
  // Fixed event capacity of the ring; oldest events are overwritten.
  uint32_t ring_capacity = 1u << 16;
  // Master switch for the latency-histogram registry.
  bool histograms = false;
  // Exemplar reservoir (request-scoped causal tracing, kept with `trace`):
  // the full span trees of the slowest requests per (root op, size class),
  // overwrite-oldest, staged off the emit path. All memory is fixed at
  // construction: per_bucket * max_events trace slots per bucket plus
  // stage_slots * max_events staging slots.
  uint32_t exemplar_per_bucket = 4;     // K slowest trees kept per bucket
  uint32_t exemplar_max_events = 96;    // span-tree events retained per tree
  uint32_t exemplar_stage_slots = 1024; // in-flight requests staged at once
  // Per-tick service metrics ring (kept with `trace`: queue depth, brownout
  // level, breaker state, tier occupancy over time) -- same overwrite-oldest
  // discipline.
  uint32_t metrics_capacity = 1u << 14;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_OBS_OBS_CONFIG_H_
