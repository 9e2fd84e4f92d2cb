// Set-associative TLB model (used twice by the Mmu: a small L1 and a larger
// L2), plus the fully associative range TLB of Sec. 3.2 / 4.3.
//
// Entries are tagged with an address-space id (ASID), so switching processes
// does not flush; shootdowns invalidate explicitly, as on real hardware with
// PCIDs. Lookups must probe each supported page size because a VA's set
// index depends on the page size it was inserted under -- same as hardware
// with per-size TLB arrays.
#ifndef O1MEM_SRC_SIM_TLB_H_
#define O1MEM_SRC_SIM_TLB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/prot.h"
#include "src/support/units.h"

namespace o1mem {

using Asid = uint32_t;

struct TlbEntry {
  bool valid = false;
  Asid asid = 0;
  Vaddr vbase = 0;          // page-aligned virtual base
  Paddr pbase = 0;          // page-aligned physical base
  uint64_t page_bytes = 0;  // 4K / 2M / 1G
  Prot prot = Prot::kNone;
  uint64_t lru_tick = 0;
};

class Tlb {
 public:
  // `entries` total, organized as `ways`-way sets. entries % ways must be 0.
  Tlb(int entries, int ways);

  // Probes for a translation covering `vaddr` (any page size).
  std::optional<TlbEntry> Lookup(Asid asid, Vaddr vaddr);

  // `vbase` must be aligned to `page_bytes`.
  void Insert(Asid asid, Vaddr vbase, Paddr pbase, uint64_t page_bytes, Prot prot);

  // Invalidation (shootdown targets). InvalidateRange removes entries
  // overlapping the span and returns the number dropped. InvalidateRange and
  // InvalidateAsid return at once for an ASID holding no valid entry, so a
  // shootdown costs the host nothing on a TLB holding none of its entries.
  // A short range probes only the sets its pages of each size map to: one
  // 4 KiB page reads 3 sizes x `ways` slots, not the whole array.
  int InvalidateRange(Asid asid, Vaddr vaddr, uint64_t len);
  void InvalidateAsid(Asid asid);
  void InvalidateAll();

  int entries() const { return static_cast<int>(slots_.size()); }

 private:
  size_t SetBase(Vaddr vbase, uint64_t page_bytes) const;
  uint32_t ValidCount(Asid asid) const {
    return asid < valid_per_asid_.size() ? valid_per_asid_[asid] : 0;
  }

  int ways_;
  int sets_;
  uint64_t tick_ = 0;
  std::vector<TlbEntry> slots_;
  // Valid entries held per ASID, indexed by ASID (Machine hands ASIDs out
  // densely from 1). Kept exact by Insert, including when it evicts another
  // ASID's entry, and by every invalidation.
  std::vector<uint32_t> valid_per_asid_;
};

// Fully associative, LRU-replaced cache of range-table entries (the "range
// TLB" of the RMM hardware the paper builds on). One entry covers an entire
// extent, however large.
struct RangeTlbEntry {
  bool valid = false;
  Asid asid = 0;
  Vaddr vbase = 0;
  uint64_t bytes = 0;
  Paddr pbase = 0;
  Prot prot = Prot::kNone;
  uint64_t lru_tick = 0;
};

class RangeTlb {
 public:
  explicit RangeTlb(int entries);

  std::optional<RangeTlbEntry> Lookup(Asid asid, Vaddr vaddr);
  void Insert(Asid asid, Vaddr vbase, uint64_t bytes, Paddr pbase, Prot prot);

  // Removes entries overlapping [vaddr, vaddr+len); returns count dropped.
  int InvalidateRange(Asid asid, Vaddr vaddr, uint64_t len);
  void InvalidateAsid(Asid asid);
  void InvalidateAll();

 private:
  uint64_t tick_ = 0;
  std::vector<RangeTlbEntry> slots_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_TLB_H_
