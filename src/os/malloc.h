// SizeClassAllocator: a constant-WCET user-level heap in the snmalloc /
// o1heap family, priced over either backend so the same user workload can be
// compared on baseline anonymous memory and on file-only memory (the
// comparison of Figure 2/7).
//
// Two layers:
//
//  * Frontend: per-CPU, per-size-class LIFO bins (15 classes, 16 B..256 KiB,
//    x2 steps). The common malloc/free is one bin push/pop -- O(1) with a
//    tiny constant. A bin miss pulls a fixed batch of kCacheBatch blocks
//    from the backend; a bin overflow returns a fixed batch. Batch sizes
//    are compile-time constants, so the worst-case op is bounded.
//
//  * Backend: a binary-buddy heap over pooled 1 MiB chunks obtained from
//    System::Mmap (FOM extents under Backend::kFom). Orders run 16 B..1 MiB;
//    alloc splits at most kMaxOrder times, free merges at most kMaxOrder
//    times, and per-order free lists are doubly linked for O(1) unlink of a
//    merged buddy -- every backend operation is constant-bounded, which is
//    the WCET argument (DESIGN.md section 13). A chunk whose blocks fully
//    coalesce returns to a chunk pool (still mapped) and is reused by later
//    refills instead of growing the mapping.
//
// Requests above kMaxClassBytes bypass the heap and map directly. Allocator
// metadata lives host-side (out of band): the simulated bytes belong to the
// application. Every malloc/free emits a kMalloc/kFree trace span whose
// operand is the byte count, feeding trace_report.py's O(1) verdict.
#ifndef O1MEM_SRC_OS_MALLOC_H_
#define O1MEM_SRC_OS_MALLOC_H_

#include <array>
#include <map>
#include <vector>

#include "src/os/system.h"

namespace o1mem {

struct MallocStats {
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t chunk_refills = 0;  // 1 MiB chunks obtained from the kernel
  uint64_t mmap_bytes = 0;     // address space obtained from the kernel
  uint64_t live_bytes = 0;     // bytes handed to the application
  // Per-CPU rebuild internals (monotonic, like the rest).
  uint64_t cache_refills = 0;    // bin misses -> backend batch pulls
  uint64_t cache_flushes = 0;    // bin overflows -> backend batch returns
  uint64_t chunks_recycled = 0;  // whole chunks coalesced back to the pool
  uint64_t pool_reuses = 0;      // chunk acquisitions served from the pool
};

class SizeClassAllocator {
 public:
  static constexpr uint64_t kChunkBytes = 1 * kMiB;
  static constexpr uint64_t kMaxClassBytes = 256 * kKiB;
  static constexpr int kClassCount = 15;  // 16B..256KiB, x2 steps
  // Blocks moved per bin refill/flush, and the bin's high-water mark. A
  // flush triggers at kCacheCap and returns the kCacheBatch *oldest*
  // entries, so the hot top-of-stack stays put (LIFO reuse).
  static constexpr int kCacheBatch = 8;
  static constexpr int kCacheCap = 2 * kCacheBatch;

  // `populate` selects eager backing for chunks (MAP_POPULATE); demand
  // paging otherwise. FOM-backed chunks are always fully backed.
  SizeClassAllocator(System* system, Process* proc, bool populate = false);

  SizeClassAllocator(const SizeClassAllocator&) = delete;
  SizeClassAllocator& operator=(const SizeClassAllocator&) = delete;

  Result<Vaddr> Malloc(uint64_t bytes);
  Status Free(Vaddr ptr);

  const MallocStats& stats() const { return stats_; }

  // Bytes of a given allocation (tests).
  Result<uint64_t> UsableSize(Vaddr ptr) const;

  static int ClassFor(uint64_t bytes);
  static uint64_t ClassBytes(int cls);

 private:
  // Hands out a mapped 1 MiB chunk: the pool of fully free chunks first, the
  // kernel second.
  Result<Vaddr> AcquireChunk();

  // Buddy layout: chunk offsets are tracked in 16-byte granules; a block of
  // order o spans (1 << o) granules, so order kMaxOrder is the whole chunk.
  static constexpr uint64_t kGranule = 16;
  static constexpr int kMaxOrder = 16;  // kGranule << 16 == kChunkBytes
  static constexpr uint32_t kGranules = kChunkBytes / kGranule;
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  enum BlockState : uint8_t { kFree = 0, kLive = 1, kCached = 2 };

  // Per-granule tag: 0 = interior (not a block start); else bit 7 set,
  // bits 5..6 the BlockState, bits 0..4 the order.
  static constexpr uint8_t Tag(BlockState s, int order) {
    return static_cast<uint8_t>(0x80u | (static_cast<uint32_t>(s) << 5) |
                                static_cast<uint32_t>(order));
  }

  // Host-side chunk metadata. Free-list links are granule-indexed arrays;
  // a list node handle packs (chunk index << 16) | granule.
  struct Chunk {
    Vaddr base = 0;
    bool active = false;
    std::vector<uint8_t> state;
    std::vector<uint32_t> next;
    std::vector<uint32_t> prev;
  };

  struct Located {
    uint32_t chunk;
    uint32_t granule;
    int order;
  };

  static constexpr uint32_t Handle(uint32_t chunk_idx, uint32_t granule) {
    return (chunk_idx << 16) | granule;
  }

  Result<Located> LocateLive(Vaddr ptr) const;

  void PushFree(uint32_t chunk_idx, uint32_t granule, int order);
  void Unlink(uint32_t handle, int order);
  // Allocates one block of `order` (split-bounded), tagged kCached.
  Result<uint32_t> BackendAlloc(int order);
  // Returns one block (merge-bounded); a fully coalesced chunk leaves the
  // buddy heap for the chunk pool.
  void BackendFree(uint32_t handle, int order);
  Result<uint32_t> RegisterChunk();

  Status Refill(int cls, std::vector<Vaddr>& bin);
  void Flush(int cls, std::vector<Vaddr>& bin);

  std::vector<Vaddr>& BinFor(int cls);

  System* system_;
  Process* proc_;
  bool populate_;

  std::vector<Chunk> chunks_;
  std::vector<uint32_t> free_slots_;         // recycled chunks_ indices
  std::map<Vaddr, uint32_t> chunk_by_base_;  // active chunks only
  std::array<uint32_t, kMaxOrder + 1> free_head_;
  std::vector<Vaddr> pool_;  // fully-free chunks, still mapped

  // bins_[cpu][cls]: LIFO stacks of kCached block addresses.
  std::vector<std::array<std::vector<Vaddr>, kClassCount>> bins_;

  std::map<Vaddr, uint64_t> live_big_;  // direct mmap -> requested bytes
  MallocStats stats_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_OS_MALLOC_H_
