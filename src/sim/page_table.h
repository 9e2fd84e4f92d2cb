// Radix page tables modeled on x86-64 4-level (optionally 5-level) paging.
//
// Nodes hold 512 entries of 9 bits of VA each; leaves may sit at level 1
// (4 KiB), level 2 (2 MiB) or level 3 (1 GiB), mirroring PTE/PDE/PDPTE
// mappings. Nodes are reference-counted (std::shared_ptr) specifically so
// that the paper's two O(1) mapping mechanisms are expressible:
//
//   * pre-created page tables: a file carries fully built subtrees; mapping
//     the file splices each subtree into a process's table with ONE upper-
//     level entry store (Sec. 3.1 "changing a single pointer in a page
//     table"), and
//   * shared mappings (Fig. 3): two processes' tables point at the same
//     interior node when the mapping is aligned on a node boundary.
//
// Structural reads (Lookup, LeafAt) are uncharged -- hardware walk costs are
// modeled in the Mmu, which knows about page-walk caches. Mutations (MapPage,
// UnmapPage, Splice...) charge kernel-software costs, because in a real
// kernel those are instructions executed on the CPU.
//
// A leaf names its owner's record (the baseline pager's, for an anonymous
// page), so the table is the pager's index.
#ifndef O1MEM_SRC_SIM_PAGE_TABLE_H_
#define O1MEM_SRC_SIM_PAGE_TABLE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/sim/context.h"
#include "src/sim/prot.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace o1mem {

// Levels are numbered from the leaves up: level 1 = PT (maps 4 KiB pages),
// level 2 = PD (2 MiB), level 3 = PDPT (1 GiB), level 4 = PML4, level 5 = PML5.
inline constexpr int kPtLevelBits = 9;
inline constexpr int kPtEntriesPerNode = 1 << kPtLevelBits;  // 512

// Bytes of VA covered by one entry at `level` (level 1 entry covers 4 KiB).
constexpr uint64_t BytesPerEntry(int level) {
  return kPageSize << (kPtLevelBits * (level - 1));
}
// Bytes of VA covered by a whole node at `level`.
constexpr uint64_t BytesPerNode(int level) { return BytesPerEntry(level) * kPtEntriesPerNode; }

class PageTableNode;
using NodeRef = std::shared_ptr<PageTableNode>;

// One entry of a page-table node: empty, a pointer to a lower-level node, or
// a leaf translation of the level's page size.
struct PtEntry {
  enum class Kind : uint8_t { kEmpty, kTable, kLeaf };
  Kind kind = Kind::kEmpty;
  Prot prot = Prot::kNone;  // leaf only
  // Leaf only: the owner's record plus one; 0 (none) keeps a fresh node all
  // zero bytes. MapPage over a leaf keeps it; clearing the entry drops it.
  uint32_t record = 0;
  Paddr paddr = 0;  // leaf only: physical base of the page
  NodeRef child;    // table only

  bool empty() const { return kind == Kind::kEmpty; }
};
static_assert(sizeof(PtEntry) == 32, "the record sits in what was padding");

class PageTableNode {
 public:
  PtEntry& at(int index) { return entries_.at(static_cast<size_t>(index)); }
  const PtEntry& at(int index) const { return entries_.at(static_cast<size_t>(index)); }

  // Number of non-empty entries (kept incrementally by PageTable).
  int live_entries = 0;

 private:
  std::array<PtEntry, kPtEntriesPerNode> entries_{};
};

// A present leaf, as PageTable::ForEachLeaf hands it to its callback.
struct PtLeaf {
  Vaddr vaddr = 0;          // first VA the leaf maps (aligned to page_bytes)
  uint64_t page_bytes = 0;  // 4K/2M/1G
  PtEntry* entry = nullptr;
  PageTableNode* node = nullptr;  // the node holding `entry`
};

// Result of a structural lookup.
struct PtTranslation {
  Paddr paddr = 0;       // physical address of the *byte* looked up
  Prot prot = Prot::kNone;
  uint64_t page_bytes = 0;  // size of the containing page (4K/2M/1G)
  int leaf_level = 0;       // level at which the leaf was found
  int levels_walked = 0;    // nodes touched on the way down
};

// A full per-address-space radix table.
class PageTable {
 public:
  // `depth` = 4 (x86-64 classic, 256 TiB VA) or 5 (57-bit VA).
  explicit PageTable(SimContext* ctx, int depth = 4);

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  int depth() const { return depth_; }

  // Maps one page of `page_bytes` (4K/2M/1G) at `vaddr` -> `paddr` and
  // returns the leaf it wrote. Charges pt-node allocations and a PTE store;
  // per-page cost by design -- this is the baseline the paper criticizes.
  Result<PtEntry*> MapPage(Vaddr vaddr, Paddr paddr, uint64_t page_bytes, Prot prot);

  // Unmaps one page. Intermediate nodes stay even when they empty; a later
  // MapPage under them reuses them without a pt_node_alloc charge.
  Status UnmapPage(Vaddr vaddr, uint64_t page_bytes);

  // Calls `fn(const PtLeaf&)`, which returns Status, on every present leaf
  // overlapping [start, end) in ascending VA order, and stops at the first
  // error. Empty entries and nodes without live entries are skipped at every
  // level, so the host work follows the leaves present, not the length of
  // the range. Uncharged: `fn` charges what it does to each leaf. It may
  // rewrite the leaf's prot or clear it with UnmapLeaf, and must not map
  // into this table.
  template <typename Fn>
  Status ForEachLeaf(Vaddr start, Vaddr end, Fn&& fn);

  // Clears a leaf ForEachLeaf handed out; charged like UnmapPage.
  void UnmapLeaf(const PtLeaf& leaf);

  // Structural, uncharged lookup used by the Mmu's walk model and by tests.
  std::optional<PtTranslation> Lookup(Vaddr vaddr) const;

  // The leaf of the page, of any size, that starts exactly at `page_base`,
  // or nullptr. Uncharged, like Lookup.
  const PtEntry* LeafAt(Vaddr page_base) const;

  // O(1) mechanisms -----------------------------------------------------

  // Splices `subtree` (a node at `level`) so it serves the node-aligned VA
  // range starting at `vaddr`. One upper-level entry store, O(1).
  Status SpliceSubtree(Vaddr vaddr, int level, NodeRef subtree);

  // Removes a previously spliced subtree entry. O(1) (plus TLB shootdown,
  // charged by the caller, which owns TLB policy).
  Status UnspliceSubtree(Vaddr vaddr, int level);

  // Returns the interior node at `level` covering `vaddr`, or nullptr if the
  // path is not built. Used to share subtrees between processes (Fig. 3).
  NodeRef GetSubtree(Vaddr vaddr, int level) const;

  // Builds (uncharged walk, charged allocations) a standalone subtree at
  // `level` mapping the contiguous physical extent [paddr, paddr+bytes) with
  // 4 KiB leaves. `bytes` need not fill the node. This is the "pre-created
  // page table" a FOM file stores alongside its data.
  static NodeRef BuildExtentSubtree(SimContext* ctx, int level, Paddr paddr, uint64_t bytes,
                                    Prot prot);

  // Walks a standalone subtree the way Lookup walks a root.
  static std::optional<PtTranslation> LookupInSubtree(const NodeRef& subtree, int level,
                                                      uint64_t offset_in_node);

  // Rewrites the protection bits of every present leaf overlapping
  // [vaddr, vaddr+len), one PTE store each; the per-page mprotect.
  Status ProtectRange(Vaddr vaddr, uint64_t len, Prot prot);

  // Metadata-footprint metrics (abl_metadata): nodes currently allocated
  // across the tree, counting shared nodes once.
  uint64_t CountNodes() const;

  const NodeRef& root() const { return root_; }

  // Maximum VA representable with this depth.
  uint64_t va_limit() const { return BytesPerNode(depth_); }

 private:
  // Index of `vaddr` within the node at `level`.
  static int IndexAt(Vaddr vaddr, int level) {
    const uint64_t shift = kPageShift + static_cast<uint64_t>(kPtLevelBits) *
                                            static_cast<uint64_t>(level - 1);
    return static_cast<int>((vaddr >> shift) & (kPtEntriesPerNode - 1));
  }
  static int LevelForPageBytes(uint64_t page_bytes);

  // Descends to the node at `target_level` covering vaddr, allocating
  // missing interior nodes (charged) when `create` is set.
  PageTableNode* Descend(Vaddr vaddr, int target_level, bool create);
  // The leaf or empty entry a walk to `vaddr` (< va_limit()) ends at, and
  // its level.
  const PtEntry& WalkTo(Vaddr vaddr, int* level) const;

  // ForEachLeaf below `node`, the node at `level` whose first VA is `base`;
  // [start, end) overlaps the node.
  template <typename Fn>
  static Status VisitLeaves(PageTableNode* node, int level, Vaddr base, Vaddr start, Vaddr end,
                            Fn& fn);

  SimContext* ctx_;
  int depth_;
  NodeRef root_;
};

template <typename Fn>
Status PageTable::ForEachLeaf(Vaddr start, Vaddr end, Fn&& fn) {
  end = std::min(end, va_limit());
  if (start >= end) {
    return OkStatus();
  }
  return VisitLeaves(root_.get(), depth_, 0, start, end, fn);
}

template <typename Fn>
Status PageTable::VisitLeaves(PageTableNode* node, int level, Vaddr base, Vaddr start, Vaddr end,
                              Fn& fn) {
  const uint64_t entry_bytes = BytesPerEntry(level);
  const int first = start > base ? static_cast<int>((start - base) / entry_bytes) : 0;
  const int last = static_cast<int>(
      std::min<uint64_t>((end - 1 - base) / entry_bytes, kPtEntriesPerNode - 1));
  // The node holds live_entries non-empty entries, so the walk may stop
  // once it has seen that many.
  int unseen = node->live_entries;
  for (int i = first; i <= last && unseen > 0; ++i) {
    PtEntry& e = node->at(i);
    if (e.kind == PtEntry::Kind::kEmpty) {
      continue;
    }
    --unseen;
    const Vaddr vaddr = base + static_cast<uint64_t>(i) * entry_bytes;
    if (e.kind == PtEntry::Kind::kTable) {
      O1_RETURN_IF_ERROR(VisitLeaves(e.child.get(), level - 1, vaddr, start, end, fn));
      continue;
    }
    O1_RETURN_IF_ERROR(
        fn(PtLeaf{.vaddr = vaddr, .page_bytes = entry_bytes, .entry = &e, .node = node}));
  }
  return OkStatus();
}

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_PAGE_TABLE_H_
