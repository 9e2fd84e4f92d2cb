// SwapDevice: a backing store for evicted anonymous pages.
//
// The paper's position is that swapping disappears under file-only memory
// ("we assume there will generally be no swapping to disk"); the baseline
// keeps it so the abl_reclaim benchmark can price what FOM removes.
//
// Host representation: a slot holds its page's bytes behind a shared
// pointer, so the slots fork duplicates share one copy (nothing writes a
// slot's bytes after SwapOut), and a page that read as all zero holds none
// (reclaim mostly evicts pages populated and never written: 98% of o1bench
// churn_baseline's swap-outs). Every slot still counts against the capacity
// and is charged as before.
#ifndef O1MEM_SRC_MM_SWAP_H_
#define O1MEM_SRC_MM_SWAP_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/sim/context.h"
#include "src/sim/phys_mem.h"
#include "src/support/status.h"

namespace o1mem {

class SwapDevice {
 public:
  SwapDevice(SimContext* ctx, PhysicalMemory* phys, uint64_t capacity_pages)
      : ctx_(ctx), phys_(phys), capacity_pages_(capacity_pages) {}

  SwapDevice(const SwapDevice&) = delete;
  SwapDevice& operator=(const SwapDevice&) = delete;

  // Writes the 4 KiB page at `paddr` to a fresh swap slot; returns the slot.
  Result<uint64_t> SwapOut(Paddr paddr);

  // Reads slot contents into the frame at `paddr` and releases the slot.
  Status SwapIn(uint64_t slot, Paddr paddr);

  // Releases a slot without reading it (e.g. the owner exited).
  Status Discard(uint64_t slot);

  // Copies a slot (fork duplicating a swapped-out page's backing). Charged as
  // a device-side page copy; on the host the new slot shares the bytes.
  Result<uint64_t> DuplicateSlot(uint64_t slot);

  uint64_t used_slots() const { return slots_.size(); }
  uint64_t capacity_pages() const { return capacity_pages_; }

 private:
  SimContext* ctx_;
  PhysicalMemory* phys_;
  uint64_t capacity_pages_;
  uint64_t next_slot_ = 1;
  // Null for a page that read as all zero.
  using PageBytes = std::shared_ptr<const std::array<uint8_t, kPageSize>>;
  std::unordered_map<uint64_t, PageBytes> slots_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_MM_SWAP_H_
