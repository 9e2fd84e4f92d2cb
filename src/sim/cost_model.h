// CostModel: every cycle count the simulation charges, in one place.
//
// Defaults are calibrated (see EXPERIMENTS.md, "Calibration") so that the
// *baseline* Linux-like paths land in the magnitude ranges the paper reports
// for real hardware circa 2017 at a 2 GHz clock:
//   - mmap(MAP_PRIVATE) on tmpfs  ~ 8 us   (paper Sec. 4.1 / report Fig. 3)
//   - mmap(MAP_PRIVATE) on DAX fs ~ 15 us
//   - MAP_POPULATE                ~ 1 us/page on top of the base cost
//   - minor page fault            ~ 2 us (trap + VMA lookup + alloc + zero + map)
//   - warm mapped access          ~ 40 ns with TLB miss, page-walk caches hot
// Only *shapes* (linear vs. constant, ratios, crossovers) are claimed as
// reproduction results; the knobs below let callers explore other points.
#ifndef O1MEM_SRC_SIM_COST_MODEL_H_
#define O1MEM_SRC_SIM_COST_MODEL_H_

#include <cstdint>

namespace o1mem {

struct CostModel {
  // --- Raw memory device costs (per access / per byte) -----------------
  uint64_t dram_access_cycles = 50;    // one demand cache-line fill from DRAM
  uint64_t nvm_read_cycles = 180;      // 3D XPoint-class read
  uint64_t nvm_write_cycles = 400;     // 3D XPoint-class write
  // Bulk copy/zero throughput, expressed as cycles per 64-byte cache line.
  uint64_t dram_line_copy_cycles = 8;
  uint64_t nvm_line_read_cycles = 12;
  uint64_t nvm_line_write_cycles = 24;

  // --- Address translation hardware ------------------------------------
  uint64_t tlb_l1_hit_cycles = 0;      // folded into the pipeline
  uint64_t tlb_l2_hit_cycles = 7;
  uint64_t pwc_hit_cycles = 2;         // page-walk cache hit, per level
  uint64_t pte_fetch_cycles = 40;      // PTE fetch that hits the data cache
  uint64_t pte_fetch_cold_cycles = 140;  // PTE fetch from DRAM, per level
  uint64_t range_tlb_hit_cycles = 1;
  uint64_t range_table_walk_cycles = 45;  // B-tree-ish lookup in memory
  uint64_t tlb_shootdown_cycles = 1100;   // IPI + remote invalidate (modeled flat)
  uint64_t tlb_insert_cycles = 1;

  // --- Kernel software path lengths ------------------------------------
  uint64_t syscall_cycles = 900;          // user->kernel->user round trip
  uint64_t fault_trap_cycles = 1800;      // exception entry/exit + fixup
  uint64_t fault_handler_base_cycles = 1500;  // find VMA, locks, rmap, bookkeeping
  uint64_t page_cache_insert_cycles = 600;    // radix-tree insert for file pages
  uint64_t page_cache_lookup_cycles = 90;     // radix-tree lookup for file pages
  uint64_t vma_lookup_cycles = 250;
  uint64_t vma_insert_cycles = 2200;      // find gap, rb-tree insert, merge checks
  uint64_t vma_remove_cycles = 1400;
  uint64_t file_lookup_cycles = 2600;     // path walk + inode in cache
  uint64_t dax_mapping_extra_cycles = 14000;  // DAX-fs mmap setup beyond tmpfs
  uint64_t mmap_base_cycles = 12000;      // tmpfs mmap fixed software cost
  uint64_t pte_write_cycles = 90;         // allocate-or-find PT node + store PTE
  uint64_t pt_node_alloc_cycles = 350;    // allocate + zero a page-table page
  uint64_t pt_subtree_splice_cycles = 120;  // store one upper-level entry (O(1) map)
  uint64_t range_entry_install_cycles = 140;  // insert one range-table entry
  uint64_t fom_map_base_cycles = 600;       // FOM whole-file map bookkeeping (O(1))
  uint64_t user_alloc_cycles = 25;          // user-level allocator fast path
  uint64_t malloc_refill_base_cycles = 120;  // per-CPU bin miss: shared-backend round trip
  uint64_t malloc_backend_op_cycles = 30;    // one buddy free-list push/pop in the backend

  // --- Physical allocation / metadata ----------------------------------
  uint64_t buddy_alloc_cycles = 260;      // one order-0 alloc incl. freelist ops
  uint64_t buddy_free_cycles = 220;
  uint64_t buddy_split_cycles = 60;       // per split/merge step
  uint64_t slab_alloc_cycles = 120;       // slab fast path
  uint64_t slab_free_cycles = 100;
  uint64_t page_meta_update_cycles = 55;  // touch struct-page flags/lru/refcount
  uint64_t lru_link_cycles = 45;          // add/remove on an LRU list
  uint64_t extent_alloc_cycles = 700;     // bitmap extent search + mark
  uint64_t extent_free_cycles = 420;
  uint64_t extent_tree_op_cycles = 210;   // insert/lookup in a file's extent tree
  uint64_t inode_update_cycles = 380;     // size/perm/flag update (+journal below)
  uint64_t journal_record_cycles = 900;   // PMFS metadata journal append (NVM)
  uint64_t refcount_op_cycles = 18;

  // --- SMP per-CPU paths (all are no-ops at num_cpus == 1 defaults) -----
  uint64_t shootdown_ipi_cycles = 1100;       // IPI + remote invalidate, per target CPU
  uint64_t tlb_local_invalidate_cycles = 50;  // invlpg-style local invalidate (batched mode)
  uint64_t shootdown_queue_cycles = 15;       // enqueue one lazy invalidation on a remote CPU
  uint64_t shootdown_drain_cycles = 40;       // apply one queued invalidation at drain time
  uint64_t zone_lock_contention_cycles = 60;  // per extra CPU, per buddy zone-lock round trip
  uint64_t pcp_op_cycles = 20;                // per-CPU frame-cache push/pop (lock-free)
  uint64_t pcp_refill_base_cycles = 150;      // shared-pool/zone lock round trip per batch
  uint64_t prezero_pop_cycles = 25;           // move one pre-zeroed frame out of the pool

  // --- Tiered-memory monitoring (no-ops while TierConfig.enabled = false) -
  uint64_t tier_sample_cycles = 80;      // check+clear one region's accessed bit
  uint64_t tier_region_op_cycles = 120;  // split or merge one monitoring region
  uint64_t tier_policy_cycles = 40;      // evaluate one region at aggregation time

  // --- Guaranteed-contiguous area (no-ops while ContigConfig.area_bytes
  //     is 0). The GCMA path charges a flat claim base plus a per-victim
  //     extent revoke; the CMA baseline charges per granule scanned and per
  //     page migrated, and a failed claim pays a full direct-compaction
  //     scan over the area. ---------------------------------------------
  uint64_t contig_lend_cycles = 180;          // borrow one second-class extent
  uint64_t contig_return_cycles = 120;        // lender returns an extent voluntarily
  uint64_t contig_claim_base_cycles = 4000;   // claim bookkeeping (window pick, index ops)
  uint64_t contig_revoke_extent_cycles = 300; // evict one overlapping lender extent
  uint64_t contig_release_cycles = 260;       // release a claim back to the area
  uint64_t cma_scan_granule_cycles = 35;      // examine one pageblock on the CMA scan
  uint64_t cma_migrate_page_cycles = 600;     // unmap+remap one page (copy charged separately)

  // --- Persistence barriers ---------------------------------------------
  uint64_t clwb_cycles = 60;     // flush one cache line to the NVM domain
  uint64_t sfence_cycles = 120;  // ordering fence after a flush burst

  // --- Reclamation / persistence ---------------------------------------
  uint64_t reclaim_scan_page_cycles = 80;     // examine one page on clock/2Q scan
  uint64_t swap_out_page_cycles = 220000;     // write 4K to swap (fast SSD)
  uint64_t swap_in_page_cycles = 200000;
  uint64_t file_delete_cycles = 3100;         // unlink + free extents (per extent extra)

  // Virtualized (nested EPT) page walks: a guest walk of depth d costs
  // d^2 + 2d memory references -- 24 for 4-level, 35 for 5-level, the figure
  // the paper quotes from Intel's 5-level paging white paper.
  bool virtualized_walks = false;

  double cpu_ghz = 2.0;

  // Memory references for one radix walk of `depth` levels.
  uint64_t WalkRefs(int depth) const {
    const auto d = static_cast<uint64_t>(depth);
    return virtualized_walks ? d * d + 2 * d : d;
  }

  // Cost to copy/zero `bytes` in a given tier.
  uint64_t DramBulkCycles(uint64_t bytes) const {
    return ((bytes + 63) / 64) * dram_line_copy_cycles;
  }
  uint64_t NvmReadBulkCycles(uint64_t bytes) const {
    return ((bytes + 63) / 64) * nvm_line_read_cycles;
  }
  uint64_t NvmWriteBulkCycles(uint64_t bytes) const {
    return ((bytes + 63) / 64) * nvm_line_write_cycles;
  }
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_COST_MODEL_H_
