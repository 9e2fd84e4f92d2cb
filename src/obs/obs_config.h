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
//                     per-tick service metrics ring, both fixed-size (the
//                     constants below).
//   * `histograms` -- per-(op kind, operand-size class) log2-bucket cycle
//                     histograms (HistogramRegistry); fixed-size arrays, so
//                     O(1) memory and O(1) per-sample cost.
#ifndef O1MEM_SRC_OBS_OBS_CONFIG_H_
#define O1MEM_SRC_OBS_OBS_CONFIG_H_

#include <cstdint>

namespace o1mem {

struct ObsConfig {
  // Master switch for the trace ring, the exemplar reservoir and the
  // metrics ring. Off: Emit() is one branch.
  bool trace = false;
  // Fixed event capacity of the ring; oldest events are overwritten.
  uint32_t ring_capacity = 1u << 16;
  // Master switch for the latency-histogram registry.
  bool histograms = false;
};

// Exemplar reservoir (request-scoped causal tracing, kept with `trace`): the
// full span trees of the slowest requests per (root op, size class),
// overwrite-oldest, staged off the emit path. All memory is fixed at
// construction: kExemplarsPerBucket * kExemplarMaxEvents trace slots per
// bucket plus kExemplarStageSlots * kExemplarMaxEvents staging slots.
inline constexpr uint32_t kExemplarsPerBucket = 4;     // K slowest trees kept per bucket
inline constexpr uint32_t kExemplarMaxEvents = 96;     // span-tree events retained per tree
inline constexpr uint32_t kExemplarStageSlots = 1024;  // in-flight requests staged at once
// Per-tick service metrics ring (kept with `trace`: queue depth, brownout
// level, breaker state, tier occupancy over time) -- same overwrite-oldest
// discipline.
inline constexpr uint32_t kMetricsCapacity = 1u << 14;

}  // namespace o1mem

#endif  // O1MEM_SRC_OBS_OBS_CONFIG_H_
