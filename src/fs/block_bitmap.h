// BlockBitmap: free-space tracking for a block device / NVM region, one bit
// per 4 KiB block -- the structure the paper contrasts with struct page
// ("unused blocks are represented by a single bit in a bitmap, as compared
// to the complex per-page metadata memory").
//
// Extent allocation uses next-fit with a roving hint, which keeps typical
// allocations O(1)-ish when the device is far from full -- exactly the
// regime the paper says file systems are optimized for. The bits are packed
// into 64-bit words and every scan, mark and check runs a word at a time, so
// the host cost of an extent operation follows its word count, not its
// block count.
#ifndef O1MEM_SRC_FS_BLOCK_BITMAP_H_
#define O1MEM_SRC_FS_BLOCK_BITMAP_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/sim/context.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace o1mem {

// A run of blocks [start, start + count).
struct BlockExtent {
  uint64_t start = 0;
  uint64_t count = 0;
};

class BlockBitmap {
 public:
  BlockBitmap(SimContext* ctx, uint64_t block_count);

  BlockBitmap(const BlockBitmap&) = delete;
  BlockBitmap& operator=(const BlockBitmap&) = delete;

  // Allocates `count` contiguous blocks. Prefers the region after the last
  // allocation (next-fit); wraps once before giving up. If no contiguous
  // run exists, callers may retry with smaller counts (the file systems
  // build multi-extent files that way).
  Result<BlockExtent> AllocExtent(uint64_t count);

  // Allocates up to `count` blocks as a single extent, returning a shorter
  // run if that is the best contiguous fit (never shorter than `min_count`).
  Result<BlockExtent> AllocExtentAtMost(uint64_t count, uint64_t min_count);

  Status FreeExtent(BlockExtent extent);

  bool IsAllocated(uint64_t block) const;
  // True when every block of `extent` is allocated.
  bool AllAllocated(BlockExtent extent) const;

  // Crash recovery: replaces the whole bitmap with `words` (rebuilt from the
  // surviving extent trees), laid out like the bitmap itself: bit b of word
  // w covers block 64w+b, and bits past the last block are clear. Linear
  // scan cost charged.
  Status Reset(std::span<const uint64_t> words);
  uint64_t free_blocks() const { return free_blocks_; }
  uint64_t block_count() const { return block_count_; }

  // Longest free run (a full scan; diagnostics and fragmentation studies
  // only).
  uint64_t LargestFreeRun() const;

 private:
  // Scans [from, limit) for the lowest free run of `count`; returns its
  // start or nullopt.
  std::optional<uint64_t> FindRun(uint64_t from, uint64_t limit, uint64_t count) const;
  // Longest free run in [from, limit) (the lowest on ties), capped at `cap`.
  BlockExtent BestRun(uint64_t from, uint64_t limit, uint64_t cap) const;

  void Mark(BlockExtent extent, bool allocated);

  SimContext* ctx_;
  uint64_t block_count_;
  std::vector<uint64_t> words_;  // bit b of word w set = block 64w+b allocated
  uint64_t free_blocks_;
  uint64_t hint_ = 0;  // next-fit roving pointer
};

}  // namespace o1mem

#endif  // O1MEM_SRC_FS_BLOCK_BITMAP_H_
