// Pre-created page tables (Sec. 3.1): "as files are stored in memory, it is
// possible to pre-create page tables, so that mapping becomes changing a
// single pointer in a page table ... pre-created page tables can be stored
// persistently, so that even when mapping a file the first time, an existing
// page table can be re-used for O(1) operations."
//
// A file's pre-created tables are one level-1 (PT) node per 2 MiB window of
// the file, with 4 KiB leaf PTEs resolving through the file's extents.
// Two variants are kept -- read-only and read-write -- so whole-file
// permission changes are a splice swap, not a PTE rewrite (the "two sets of
// page tables to allow different permissions" of Sec. 4.2).
//
// Building is O(pages) and happens once (at file creation/resize); every
// subsequent map is O(windows) splices. When the file is persistent the
// nodes are charged as NVM writes and survive crashes.
#ifndef O1MEM_SRC_FOM_PRECREATED_TABLES_H_
#define O1MEM_SRC_FOM_PRECREATED_TABLES_H_

#include <span>
#include <vector>

#include "src/fs/file_system.h"
#include "src/sim/page_table.h"
#include "src/sim/phys_mem.h"

namespace o1mem {

struct PrecreatedTables {
  std::vector<NodeRef> read_only;   // one level-1 node per 2 MiB window
  std::vector<NodeRef> read_write;
  // Level-2 wrappers: one PD node per full GROUP of 512 level-1 nodes, so a
  // 1 GiB-aligned span of the file splices with ONE store ("2MB, 1GB" --
  // both natural granularities of Sec. 3.1). Files under 1 GiB have none.
  std::vector<NodeRef> read_only_l2;
  std::vector<NodeRef> read_write_l2;
  uint64_t file_bytes = 0;
  // The file's Pmfs extent generation when the set was built or loaded; a
  // set whose file has since changed extents is stale.
  uint64_t extent_generation = 0;

  size_t window_count() const { return read_write.size(); }
  uint64_t node_count() const {
    return 2 * (read_write.size() + read_write_l2.size());
  }

  const std::vector<NodeRef>& ForProt(Prot prot) const {
    return HasProt(prot, Prot::kWrite) ? read_write : read_only;
  }
  const std::vector<NodeRef>& ForProtL2(Prot prot) const {
    return HasProt(prot, Prot::kWrite) ? read_write_l2 : read_only_l2;
  }
};

// Builds both table sets for a file backed by `extents` (sorted by
// file_offset, covering [0, file_bytes) with no holes). When
// `persist_in_nvm` is set, each built node is additionally charged as a
// 4 KiB NVM write (the table is stored next to the file's data).
Result<PrecreatedTables> BuildPrecreatedTables(SimContext* ctx, PhysicalMemory* phys,
                                               std::span<const FileExtentView> extents,
                                               uint64_t file_bytes, bool persist_in_nvm);

// Rehydrates a table set from a validated NVM sidecar: one backing paddr per
// 4 KiB page of the file. The nodes already exist in NVM -- nothing is
// allocated or written in the model's accounting (no pt_node/pte charges),
// which is precisely the O(1)-after-reboot property; the caller pays only
// for reading the sidecar. `page_paddrs` must have ceil(file_bytes/4K)
// entries.
Result<PrecreatedTables> RehydratePrecreatedTables(std::span<const Paddr> page_paddrs,
                                                   uint64_t file_bytes);

}  // namespace o1mem

#endif  // O1MEM_SRC_FOM_PRECREATED_TABLES_H_
