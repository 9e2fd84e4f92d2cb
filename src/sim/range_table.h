// RangeTable: the per-address-space table of range translations from
// Figures 4/5/9 (after Gandhi et al., "Range translations for fast virtual
// memory"). Each entry maps an arbitrarily long contiguous virtual range to
// a contiguous physical range with BASE/LIMIT/OFFSET semantics:
//
//     paddr = vaddr + offset      for  base <= vaddr < limit
//
// Installing or removing an entry is O(log n) in the number of ranges (the
// table is a balanced tree, like the B-tree the RMM paper proposes), and --
// crucially for the paper's argument -- independent of the range's LENGTH.
// The hardware walk of this structure is charged by the Mmu.
#ifndef O1MEM_SRC_SIM_RANGE_TABLE_H_
#define O1MEM_SRC_SIM_RANGE_TABLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/sim/prot.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace o1mem {

struct RangeEntry {
  Vaddr vbase = 0;    // BASE
  uint64_t bytes = 0; // LIMIT - BASE
  Paddr pbase = 0;    // vaddr + OFFSET at vbase
  Prot prot = Prot::kNone;

  Vaddr vlimit() const { return vbase + bytes; }
  int64_t offset() const { return static_cast<int64_t>(pbase) - static_cast<int64_t>(vbase); }
};

class RangeTable {
 public:
  RangeTable() = default;

  // Installs a translation; rejects overlap with an existing range and an
  // entry whose vbase, bytes or pbase is not page-aligned.
  Status Insert(const RangeEntry& entry);

  // Removes the entry whose vbase is exactly `vbase`.
  Status Remove(Vaddr vbase);

  // Finds the entry containing `vaddr`, if any (structural; uncharged).
  std::optional<RangeEntry> Lookup(Vaddr vaddr) const;

  // Rewrites the protection of the entry based at `vbase` (whole-range
  // granularity, as FOM grants permission per file).
  Status Protect(Vaddr vbase, Prot prot);

  size_t size() const { return ranges_.size(); }
  std::vector<RangeEntry> Entries() const;

 private:
  std::map<Vaddr, RangeEntry> ranges_;  // keyed by vbase
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_RANGE_TABLE_H_
