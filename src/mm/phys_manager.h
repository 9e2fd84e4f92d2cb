// PhysManager: the baseline kernel's view of DRAM -- a buddy allocator plus
// the per-frame struct-page metadata array. One instance manages the DRAM
// tier of a Machine; the NVM tier is managed by the file systems (src/fs).
//
// SMP fast paths (both off by default; see SmpConfig):
//   * percpu_frame_cache: a Linux pcp-style cache of order-0 frames in front
//     of the buddy, one per simulated CPU. Single-frame alloc/free becomes a
//     push/pop (pcp_op_cycles); the buddy -- and its zone-lock contention
//     charge -- is only visited in batches of pcp_batch frames.
//   * prezero_pool: a shared pool of frames zeroed off the critical path
//     (charges diverted to background_zero_cycles via
//     SimContext::RedirectCharges, like Pmfs's background zeroing). A zeroed
//     alloc that hits the pool skips the inline Zero() entirely.
#ifndef O1MEM_SRC_MM_PHYS_MANAGER_H_
#define O1MEM_SRC_MM_PHYS_MANAGER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/contig/contig_allocator.h"
#include "src/mm/buddy_allocator.h"
#include "src/mm/page_meta.h"
#include "src/sim/machine.h"

namespace o1mem {

class PhysManager {
 public:
  explicit PhysManager(Machine* machine);

  PhysManager(const PhysManager&) = delete;
  PhysManager& operator=(const PhysManager&) = delete;

  // Allocates one DRAM frame; zeroes it when `zero` is set (the baseline
  // zeroes at fault time for anonymous memory; with prezero_pool a zeroed
  // frame usually comes pre-zeroed from the background pool instead).
  Result<Paddr> AllocFrame(bool zero);

  // Releases one frame back to the per-CPU cache (or the buddy directly when
  // the cache is disabled).
  Status FreeFrame(Paddr paddr);

  // Reference-counted release for frames shared across address spaces
  // (fork/COW): drops one reference and frees only at zero.
  Status ReleaseFrame(Paddr paddr);
  Status ReleaseContiguous(Paddr paddr, int order);

  // Allocates 2^order contiguous frames (no zeroing). Contiguous blocks
  // bypass the per-CPU caches: they exist for huge mappings, not the
  // single-frame hot path.
  Result<Paddr> AllocContiguous(int order) { return buddy_.AllocOrder(order); }

  // Tops the shared pre-zeroed pool up to SmpConfig::prezero_target_frames,
  // booking all cycles (buddy ops + the memset) to background_zero_cycles
  // instead of the simulated clock. Runs automatically whenever an alloc
  // finds the pool below half target, so callers rarely need it; exposed for
  // tests and benchmarks that want a warm pool up front. Never drains the
  // buddy below 25% of DRAM.
  void ReplenishPrezeroPool();

  // Brownout hook (overload shedding, DESIGN.md Sec. 12): while set, the
  // pool is drained without background refills -- zeroed allocs keep hitting
  // the pre-zeroed stock for free, but the replenish work (buddy batches +
  // memsets that compete with foreground service for the memory system) is
  // deferred until the brownout lifts. Correctness is unchanged: a dry pool
  // falls back to inline zeroing exactly as when the pool is disabled.
  void SetBrownout(bool on) { brownout_ = on; }
  bool brownout() const { return brownout_; }

  // --- DRAM file-cache zone (tiering) ------------------------------------
  // Carved out of the buddy at construction when MachineConfig.tier names a
  // nonzero dram_cache_bytes (best effort: a fragmented or small machine may
  // yield less). Promoted file extents are allocated first-fit from the
  // carve as physically contiguous runs; these frames never mix with the
  // buddy proper, so tier pressure cannot fragment the general allocator.
  Result<Paddr> AllocCache(uint64_t bytes);
  Status FreeCache(Paddr paddr, uint64_t bytes);
  uint64_t dram_cache_bytes() const { return cache_total_; }
  uint64_t dram_cache_free() const { return cache_free_bytes_; }
  uint64_t dram_cache_used() const { return cache_total_ - cache_free_bytes_; }

  // --- Guaranteed-contiguous area (src/contig) ---------------------------
  // Reserved off the top of DRAM before the buddy is seeded, when
  // MachineConfig.contig.area_bytes > 0: the buddy manages [0, dram - area)
  // and the ContigAllocator owns [dram - area, dram). Null without an area.
  ContigAllocator* contig() { return contig_.get(); }
  const ContigAllocator* contig() const { return contig_.get(); }

  BuddyAllocator& buddy() { return buddy_; }
  PageMetaArray& meta() { return meta_; }
  Machine& machine() { return *machine_; }

  // Free frames wherever they sit: buddy freelists, per-CPU caches, and the
  // pre-zeroed pool (all of those are allocatable).
  uint64_t free_bytes() const;

  // Cycles spent zeroing (and allocating) pool frames off the critical path.
  uint64_t background_zero_cycles() const { return background_zero_cycles_; }
  size_t prezero_pool_frames() const { return prezero_pool_.size(); }
  size_t cpu_cache_frames(int cpu) const;

 private:
  struct CpuCache {
    std::vector<Paddr> free;    // contents unknown (dirty)
    std::vector<Paddr> zeroed;  // known all-zero
  };

  CpuCache& cache();  // the current CPU's cache

  // Shared free path: per-CPU cache push + watermark drain, or straight to
  // the buddy when the cache is disabled.
  Status FreeOne(Paddr paddr);

  // Pulls up to pcp_batch pre-zeroed frames from the shared pool into the
  // current CPU's zeroed stock. Returns false if the pool was empty.
  bool RefillZeroedFromPool(CpuCache& c);

  Result<Paddr> InitFrame(Paddr paddr);

  // Pulls `bytes` of DRAM out of the buddy in large blocks and seeds the
  // cache-zone free list with them (coalesced).
  void CarveCacheZone(uint64_t bytes);
  void InsertCacheFree(Paddr base, uint64_t bytes);

  // Bytes reserved for the contiguous area (0 without one);
  // computed before the buddy is constructed so its range excludes the area.
  static uint64_t ContigCarveBytes(Machine* machine);

  Machine* machine_;
  BuddyAllocator buddy_;
  PageMetaArray meta_;
  std::unique_ptr<ContigAllocator> contig_;
  bool pcp_enabled_;
  bool prezero_enabled_;
  std::vector<CpuCache> caches_;
  std::vector<Paddr> prezero_pool_;
  uint64_t background_zero_cycles_ = 0;
  bool replenishing_ = false;
  bool brownout_ = false;

  // DRAM file-cache zone: free extents keyed by base, kept coalesced.
  std::map<Paddr, uint64_t> cache_free_;
  uint64_t cache_total_ = 0;
  uint64_t cache_free_bytes_ = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_MM_PHYS_MANAGER_H_
