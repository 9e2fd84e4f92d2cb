// Event counters: everything the simulation counts besides time.
//
// Benchmarks snapshot these around a measured region to report fault counts,
// TLB behaviour, PTEs written, bytes zeroed, etc. (e.g. the page-fault-count
// plot that corroborates Figure 1b).
//
// The field list is a single X-macro so a new counter can never be silently
// dropped from Delta() or the procfs-style vmstat dump: adding a field
// anywhere but O1MEM_COUNTER_FIELDS breaks the static size check
// (tests/sim/counters_test.cc) at compile/test time.
#ifndef O1MEM_SRC_SIM_COUNTERS_H_
#define O1MEM_SRC_SIM_COUNTERS_H_

#include <cstddef>
#include <cstdint>

namespace o1mem {

// X(name) for every counter, grouped as the old hand-written struct was.
#define O1MEM_COUNTER_FIELDS(X)                                                          \
  /* Translation. */                                                                     \
  X(tlb_l1_hits)                                                                         \
  X(tlb_l2_hits)                                                                         \
  X(tlb_misses)                                                                          \
  X(range_tlb_hits)                                                                      \
  X(range_table_walks)                                                                   \
  X(page_walks)                                                                          \
  X(pwc_hits)                                                                            \
  X(tlb_shootdowns)                                                                      \
  /* Faults and syscalls. */                                                             \
  X(minor_faults)                                                                        \
  X(major_faults)                                                                        \
  X(segv_faults)                                                                         \
  X(syscalls)                                                                            \
  /* Mapping machinery. */                                                               \
  X(ptes_written)                                                                        \
  X(pt_nodes_allocated)                                                                  \
  X(subtree_splices)                                                                     \
  X(range_entries_installed)                                                             \
  /* Physical memory. */                                                                 \
  X(frames_allocated)                                                                    \
  X(frames_freed)                                                                        \
  X(bytes_zeroed)                                                                        \
  X(bytes_copied)                                                                        \
  /* Reclamation. */                                                                     \
  X(pages_scanned)                                                                       \
  X(pages_swapped_out)                                                                   \
  X(pages_swapped_in)                                                                    \
  X(files_reclaimed)                                                                     \
  /* SMP: shootdown traffic and per-CPU allocation fast paths. */                        \
  X(shootdown_ipis_sent)        /* remote CPUs actually interrupted */                   \
  X(shootdown_invals_batched)   /* invalidations queued instead of IPI'd */              \
  X(shootdown_translate_drains) /* lazy-queue drains forced by a translation */          \
  X(shootdown_cycles)           /* cycles charged to shootdown work (all paths) */       \
  X(frames_from_pcp)            /* allocs served by a per-CPU frame cache */             \
  X(frames_from_buddy)          /* allocs that took the shared buddy/pool path */        \
  X(prezero_hits)               /* zeroed allocs served without an inline Zero() */      \
  X(prezero_misses)             /* zeroed allocs that zeroed on the critical path */     \
  /* User-level allocator: per-CPU size-class bins over a shared buddy backend. */       \
  X(malloc_cache_refills)   /* per-CPU bin misses that pulled a batch from the backend */ \
  X(malloc_cache_flushes)   /* per-CPU bin overflows that returned a batch */             \
  X(malloc_buddy_splits)    /* buddy blocks split while serving a backend alloc */        \
  X(malloc_buddy_merges)    /* buddy pairs coalesced while absorbing a backend free */    \
  X(malloc_chunks_mapped)   /* 1 MiB chunks obtained from the kernel (mmap) */            \
  X(malloc_chunks_recycled) /* whole chunks coalesced back into the reuse pool */         \
  /* Tiering: DAMON-style monitoring and extent migration between NVM and                \
     the DRAM file cache. */                                                             \
  X(tier_region_splits)   /* monitoring regions split */                                 \
  X(tier_region_merges)   /* monitoring regions merged */                                \
  X(tier_promotions)      /* extents moved NVM -> DRAM cache */                          \
  X(tier_demotions)       /* extents restored to their NVM home */                       \
  X(tier_writeback_bytes) /* dirty cached bytes written back to NVM */                   \
  X(tier_hot_hits_dram)   /* user accesses served from a promoted extent */              \
  X(tier_migrated_bytes)  /* bytes moved by PhysicalMemory::Move */                      \
  /* Degraded mode: media poison caught during tier migration/writeback. */              \
  X(poison_quarantines)   /* extents fenced off after a media error */                   \
  X(degraded_reads)       /* reads served degraded from a quarantined extent's home */   \
  /* Overload robustness: admission control, circuit breakers, brownout. */              \
  X(admission_sheds)          /* shed at admission: deadline can't cover est. wait */    \
  X(admission_expired_drops)  /* dequeued past deadline (timeout in queue) */            \
  X(retry_budget_denials)     /* retries suppressed by an empty token bucket */          \
  X(breaker_fast_fails)       /* requests rejected by an open circuit breaker */         \
  X(breaker_transitions)      /* breaker state changes (closed/open/half-open) */        \
  X(brownout_transitions)     /* brownout level shifts (either direction) */             \
  X(brownout_shed_scans)      /* scan-class ops rejected while browned out */            \
  X(brownout_shed_writes)     /* write-class ops rejected while browned out */           \
  X(brownout_tier_pauses)     /* tier aggregation windows with migrations deferred */    \
  X(brownout_prezero_deferrals) /* pre-zero pool refills deferred to drain mode */     \
  /* Guaranteed-contiguous area (src/contig): first-class claims vs the                \
     second-class lenders they evict. */                                               \
  X(contig_allocs)      /* contiguous claims granted (GCMA or CMA baseline) */         \
  X(contig_fail)        /* claims refused (guarantee exhausted / compaction failed) */ \
  X(contig_lends)       /* second-class extents borrowed from the area */              \
  X(contig_returns)     /* borrowed extents returned voluntarily by their lender */    \
  X(lender_evictions)   /* lender extents revoked to satisfy a claim */                \
  X(discard_bytes)      /* discardable file bytes dropped by revocation */             \
  X(cma_migrated_pages) /* pages copied out one by one by the CMA baseline */

struct EventCounters {
#define O1MEM_DECLARE_COUNTER(name) uint64_t name = 0;
  O1MEM_COUNTER_FIELDS(O1MEM_DECLARE_COUNTER)
#undef O1MEM_DECLARE_COUNTER

  // Number of fields in the X-macro list. The struct is all-uint64_t with no
  // padding, so sizeof(EventCounters) == kFieldCount * 8 iff every field
  // went through the macro.
  static constexpr size_t kFieldCount = 0
#define O1MEM_COUNT_COUNTER(name) +1
      O1MEM_COUNTER_FIELDS(O1MEM_COUNT_COUNTER)
#undef O1MEM_COUNT_COUNTER
      ;

  EventCounters Delta(const EventCounters& since) const {
    EventCounters d;
#define O1MEM_DELTA_COUNTER(name) d.name = name - since.name;
    O1MEM_COUNTER_FIELDS(O1MEM_DELTA_COUNTER)
#undef O1MEM_DELTA_COUNTER
    return d;
  }

  // Visits fn("name", value) for every counter, in declaration order. The
  // vmstat section of System::DumpProcSnapshot() and o1bench's counter dump
  // go through this, so they always carry the full list.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define O1MEM_VISIT_COUNTER(name) fn(#name, name);
    O1MEM_COUNTER_FIELDS(O1MEM_VISIT_COUNTER)
#undef O1MEM_VISIT_COUNTER
  }
};

static_assert(sizeof(EventCounters) == EventCounters::kFieldCount * sizeof(uint64_t),
              "every EventCounters field must be declared via O1MEM_COUNTER_FIELDS");

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_COUNTERS_H_
