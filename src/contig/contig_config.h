// ContigConfig: knobs for the guaranteed-contiguous physical area
// (src/contig/contig_allocator.h). Everything defaults off/zero so a seed
// machine is cycle-identical with or without this header compiled in.
//
// Header-only and dependency-free on purpose: MachineConfig embeds one by
// value (like TierConfig), so this must not pull in the simulator.
#ifndef O1MEM_SRC_CONTIG_CONTIG_CONFIG_H_
#define O1MEM_SRC_CONTIG_CONTIG_CONFIG_H_

#include <cstdint>

namespace o1mem {

struct ContigConfig {
  // Bytes reserved off the top of DRAM at boot (page-aligned up). The buddy
  // allocator never sees this range; the ContigAllocator owns it outright.
  // 0 (the default): no area is carved, PhysManager::contig() is null, and
  // every lending hook in tmpfs/tier is a dead branch.
  uint64_t area_bytes = 0;

  // Upper bound on total outstanding Claim() bytes. A claim that would push
  // the sum past this returns kOutOfMemory up front, before any lender is
  // evicted -- the declared guarantee is all-or-nothing. 0 means the whole
  // area is guaranteed.
  uint64_t guarantee_bytes = 0;

  // Baseline mode: run the same interface as a Linux-CMA/compaction-style
  // allocator instead (per-page migration, movable/unmovable pageblock
  // mixing, linear scans, allocation failures). For A/B benches only.
  bool cma_baseline = false;

  // CMA pageblock granule (the unit of the movable/unmovable state map).
  uint64_t cma_granule_bytes = 2ull * 1024 * 1024;

  // Per-granule probability (in permille) that boot-time kernel use pins a
  // granule unmovable. ~15/1000 matches one stuck pageblock every ~128 MiB,
  // enough that gigabyte runs are rarely clean.
  uint32_t cma_unmovable_permille = 15;

  // Seed for the unmovable-granule placement (deterministic per boot).
  uint64_t rng_seed = 0x67636d61u;  // "gcma"
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CONTIG_CONTIG_CONFIG_H_
