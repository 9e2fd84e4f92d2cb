// Binary buddy allocator over a contiguous physical range, modeled on the
// Linux page allocator the paper's Section 2 describes ("the kernel's
// management of physical memory is ... designed around a scarce resource").
//
// Allocation granularity is one 4 KiB frame (order 0) up to order
// kMaxOrder-1 (512 MiB). Costs are charged per freelist operation and per
// split/merge step, which is what makes large allocations through the buddy
// path linear-ish in order while FOM's extent allocations are O(1).
#ifndef O1MEM_SRC_MM_BUDDY_ALLOCATOR_H_
#define O1MEM_SRC_MM_BUDDY_ALLOCATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/context.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace o1mem {

class BuddyAllocator {
 public:
  static constexpr int kMaxOrder = 18;  // 4 KiB << 17 = 512 MiB largest block

  // Manages [base, base + bytes); both must be page aligned and bytes must be
  // a multiple of the page size.
  BuddyAllocator(SimContext* ctx, Paddr base, uint64_t bytes);

  BuddyAllocator(const BuddyAllocator&) = delete;
  BuddyAllocator& operator=(const BuddyAllocator&) = delete;

  // Allocates 2^order frames, splitting larger blocks as needed.
  Result<Paddr> AllocOrder(int order);

  // Allocates one 4 KiB frame.
  Result<Paddr> AllocFrame() { return AllocOrder(0); }

  // Frees a block previously returned by AllocOrder(order). Buddies are
  // merged eagerly, as Linux does.
  Status FreeOrder(Paddr paddr, int order);
  Status FreeFrame(Paddr paddr) { return FreeOrder(paddr, 0); }

  // Batch variants for the per-CPU frame caches: the whole batch moves under
  // one zone-lock round trip, so the contention penalty of num_cpus > 1 is
  // paid once per batch instead of once per frame. AllocFrameBatch appends up
  // to `count` order-0 frames to `out` and stops early (Ok) if the allocator
  // runs dry after the first frame; it returns OutOfMemory only if it cannot
  // produce any.
  Status AllocFrameBatch(int count, std::vector<Paddr>* out);
  Status FreeFrameBatch(std::span<const Paddr> frames);

  uint64_t free_bytes() const { return free_bytes_; }
  uint64_t total_bytes() const { return bytes_; }
  Paddr base() const { return base_; }
  bool Owns(Paddr paddr) const { return paddr >= base_ && paddr < base_ + bytes_; }

  // Largest order with a free block (-1 if empty); a fragmentation signal.
  int LargestFreeOrder() const;

  // Count of free blocks at `order` (tests / fragmentation studies).
  size_t FreeBlocksAt(int order) const;

 private:
  // The free blocks of one order, as a three-level bitmap over the block
  // number (frame index >> order): one bit per block, one summary bit per
  // nonzero word, and one top bit per nonzero summary word (4096 words).
  // Insert, Erase, Contains and First touch one word per level and allocate
  // nothing; First is the lowest free block, as std::set::begin() was, so
  // allocation stays lowest-address-first and runs stay reproducible.
  class FreeBitmap {
   public:
    explicit FreeBitmap(uint64_t blocks);

    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    bool Contains(uint64_t block) const;
    void Insert(uint64_t block);
    void Erase(uint64_t block);
    uint64_t First() const;  // requires !empty()

   private:
    std::vector<uint64_t> words_;
    std::vector<uint64_t> summary_;
    std::vector<uint64_t> top_;
    size_t count_ = 0;
  };

  // Models the zone-lock round trip: with N simulated CPUs the lock costs
  // (N-1) * zone_lock_contention_cycles extra. Zero extra at N == 1, so the
  // single-CPU seed is unchanged.
  void ChargeZoneLock();

  // Freelist operations without the zone-lock charge (callers hold the
  // "lock" -- i.e. have already paid ChargeZoneLock once).
  Result<Paddr> AllocOrderLocked(int order);
  Status FreeOrderLocked(Paddr paddr, int order);

  uint64_t FrameIndex(Paddr paddr) const { return (paddr - base_) >> kPageShift; }
  Paddr FrameAddr(uint64_t index) const { return base_ + (index << kPageShift); }

  SimContext* ctx_;
  Paddr base_;
  uint64_t bytes_;
  uint64_t free_bytes_ = 0;
  // Free lists per order.
  std::vector<FreeBitmap> free_lists_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_MM_BUDDY_ALLOCATOR_H_
