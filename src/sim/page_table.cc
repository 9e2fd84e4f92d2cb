#include "src/sim/page_table.h"

#include <algorithm>
#include <unordered_set>

namespace o1mem {

namespace {

// Recursively counts distinct nodes (shared subtrees counted once).
void CollectNodes(const NodeRef& node, std::unordered_set<const PageTableNode*>* seen) {
  if (node == nullptr || !seen->insert(node.get()).second) {
    return;
  }
  for (int i = 0; i < kPtEntriesPerNode; ++i) {
    const PtEntry& e = node->at(i);
    if (e.kind == PtEntry::Kind::kTable) {
      CollectNodes(e.child, seen);
    }
  }
}

}  // namespace

PageTable::PageTable(SimContext* ctx, int depth) : ctx_(ctx), depth_(depth) {
  O1_CHECK(ctx != nullptr);
  O1_CHECK(depth == 4 || depth == 5);
  root_ = std::make_shared<PageTableNode>();
}

int PageTable::LevelForPageBytes(uint64_t page_bytes) {
  switch (page_bytes) {
    case kPageSize:
      return 1;
    case kLargePageSize:
      return 2;
    case kHugePageSize:
      return 3;
    default:
      return 0;  // invalid
  }
}

PageTableNode* PageTable::Descend(Vaddr vaddr, int target_level, bool create) {
  PageTableNode* node = root_.get();
  for (int level = depth_; level > target_level; --level) {
    PtEntry& e = node->at(IndexAt(vaddr, level));
    if (e.kind == PtEntry::Kind::kLeaf) {
      return nullptr;  // a larger page already maps this range
    }
    if (e.kind == PtEntry::Kind::kEmpty) {
      if (!create) {
        return nullptr;
      }
      e.kind = PtEntry::Kind::kTable;
      e.child = std::make_shared<PageTableNode>();
      node->live_entries++;
      ctx_->Charge(ctx_->cost().pt_node_alloc_cycles);
      ctx_->counters().pt_nodes_allocated++;
    }
    node = e.child.get();
  }
  return node;
}

const PtEntry& PageTable::WalkTo(Vaddr vaddr, int* level) const {
  const PageTableNode* node = root_.get();
  for (int l = depth_;; --l) {  // level-1 entries are never tables
    const PtEntry& e = node->at(IndexAt(vaddr, l));
    if (e.kind != PtEntry::Kind::kTable) {
      *level = l;
      return e;
    }
    node = e.child.get();
  }
}

Result<PtEntry*> PageTable::MapPage(Vaddr vaddr, Paddr paddr, uint64_t page_bytes, Prot prot) {
  const int level = LevelForPageBytes(page_bytes);
  if (level == 0) {
    return InvalidArgument("unsupported page size");
  }
  if (!IsAligned(vaddr, page_bytes) || !IsAligned(paddr, page_bytes)) {
    return InvalidArgument("page mapping not aligned to page size");
  }
  if (vaddr + page_bytes > va_limit()) {
    return InvalidArgument("vaddr beyond VA limit");
  }
  PageTableNode* node = Descend(vaddr, level, /*create=*/true);
  if (node == nullptr) {
    return InvalidArgument("range already covered by a larger page");
  }
  PtEntry& e = node->at(IndexAt(vaddr, level));
  if (e.kind == PtEntry::Kind::kTable) {
    return InvalidArgument("smaller pages already map inside this range");
  }
  if (e.kind == PtEntry::Kind::kEmpty) {
    node->live_entries++;
  }
  e.kind = PtEntry::Kind::kLeaf;
  e.paddr = paddr;
  e.prot = prot;
  ctx_->Charge(ctx_->cost().pte_write_cycles);
  ctx_->counters().ptes_written++;
  return &e;
}

Status PageTable::UnmapPage(Vaddr vaddr, uint64_t page_bytes) {
  const int level = LevelForPageBytes(page_bytes);
  if (level == 0 || !IsAligned(vaddr, page_bytes)) {
    return InvalidArgument("bad unmap geometry");
  }
  PageTableNode* node = Descend(vaddr, level, /*create=*/false);
  if (node == nullptr) {
    return NotFound("no mapping at vaddr");
  }
  PtEntry& e = node->at(IndexAt(vaddr, level));
  if (e.kind != PtEntry::Kind::kLeaf) {
    return NotFound("no leaf at vaddr");
  }
  e = PtEntry{};
  node->live_entries--;
  ctx_->Charge(ctx_->cost().pte_write_cycles);
  return OkStatus();
}

void PageTable::UnmapLeaf(const PtLeaf& leaf) {
  O1_CHECK(leaf.entry->kind == PtEntry::Kind::kLeaf);
  *leaf.entry = PtEntry{};
  leaf.node->live_entries--;
  ctx_->Charge(ctx_->cost().pte_write_cycles);
}

std::optional<PtTranslation> PageTable::Lookup(Vaddr vaddr) const {
  if (vaddr >= va_limit()) {
    return std::nullopt;
  }
  int level = 0;
  const PtEntry& e = WalkTo(vaddr, &level);
  if (e.kind != PtEntry::Kind::kLeaf) {
    return std::nullopt;
  }
  const uint64_t page_bytes = BytesPerEntry(level);
  PtTranslation t;
  t.page_bytes = page_bytes;
  t.paddr = e.paddr + (vaddr & (page_bytes - 1));
  t.prot = e.prot;
  t.leaf_level = level;
  t.levels_walked = depth_ - level + 1;
  return t;
}

const PtEntry* PageTable::LeafAt(Vaddr page_base) const {
  if (page_base >= va_limit()) {
    return nullptr;
  }
  int level = 0;
  const PtEntry& e = WalkTo(page_base, &level);
  const bool starts_here = IsAligned(page_base, BytesPerEntry(level));
  return e.kind == PtEntry::Kind::kLeaf && starts_here ? &e : nullptr;
}

Status PageTable::SpliceSubtree(Vaddr vaddr, int level, NodeRef subtree) {
  if (subtree == nullptr) {
    return InvalidArgument("null subtree");
  }
  if (level < 1 || level >= depth_) {
    return InvalidArgument("bad splice level");
  }
  if (!IsAligned(vaddr, BytesPerNode(level))) {
    return InvalidArgument("splice vaddr not aligned to node boundary");
  }
  if (vaddr + BytesPerNode(level) > va_limit()) {
    return InvalidArgument("splice beyond VA limit");
  }
  // The subtree becomes the child of the entry one level up.
  PageTableNode* parent = Descend(vaddr, level + 1, /*create=*/true);
  if (parent == nullptr) {
    return InvalidArgument("splice range covered by a larger page");
  }
  PtEntry& e = parent->at(IndexAt(vaddr, level + 1));
  if (!e.empty()) {
    return AlreadyExists("entry already populated at splice point");
  }
  e.kind = PtEntry::Kind::kTable;
  e.child = std::move(subtree);
  parent->live_entries++;
  ctx_->Charge(ctx_->cost().pt_subtree_splice_cycles);
  ctx_->counters().subtree_splices++;
  return OkStatus();
}

Status PageTable::UnspliceSubtree(Vaddr vaddr, int level) {
  if (level < 1 || level >= depth_ || !IsAligned(vaddr, BytesPerNode(level))) {
    return InvalidArgument("bad unsplice geometry");
  }
  PageTableNode* parent = Descend(vaddr, level + 1, /*create=*/false);
  if (parent == nullptr) {
    return NotFound("no table above unsplice point");
  }
  PtEntry& e = parent->at(IndexAt(vaddr, level + 1));
  if (e.kind != PtEntry::Kind::kTable) {
    return NotFound("no subtree spliced at vaddr");
  }
  e = PtEntry{};
  parent->live_entries--;
  ctx_->Charge(ctx_->cost().pt_subtree_splice_cycles);
  return OkStatus();
}

NodeRef PageTable::GetSubtree(Vaddr vaddr, int level) const {
  if (level < 1 || level > depth_) {
    return nullptr;
  }
  if (level == depth_) {
    return root_;
  }
  const PageTableNode* node = root_.get();
  for (int l = depth_; l > level + 1; --l) {
    const PtEntry& e = node->at(IndexAt(vaddr, l));
    if (e.kind != PtEntry::Kind::kTable) {
      return nullptr;
    }
    node = e.child.get();
  }
  const PtEntry& e = node->at(IndexAt(vaddr, level + 1));
  return e.kind == PtEntry::Kind::kTable ? e.child : nullptr;
}

NodeRef PageTable::BuildExtentSubtree(SimContext* ctx, int level, Paddr paddr, uint64_t bytes,
                                      Prot prot) {
  O1_CHECK(ctx != nullptr);
  O1_CHECK(level >= 1 && level <= 3);
  O1_CHECK(bytes > 0 && bytes <= BytesPerNode(level));
  O1_CHECK(IsAligned(paddr, kPageSize));
  auto node = std::make_shared<PageTableNode>();
  ctx->Charge(ctx->cost().pt_node_alloc_cycles);
  ctx->counters().pt_nodes_allocated++;
  const uint64_t entry_bytes = BytesPerEntry(level);
  uint64_t off = 0;
  int index = 0;
  while (off < bytes) {
    PtEntry& e = node->at(index);
    if (level == 1) {
      e.kind = PtEntry::Kind::kLeaf;
      e.paddr = paddr + off;
      e.prot = prot;
      ctx->Charge(ctx->cost().pte_write_cycles);
      ctx->counters().ptes_written++;
    } else {
      const uint64_t child_bytes = std::min(entry_bytes, bytes - off);
      e.kind = PtEntry::Kind::kTable;
      e.child = BuildExtentSubtree(ctx, level - 1, paddr + off, child_bytes, prot);
    }
    node->live_entries++;
    off += entry_bytes;
    ++index;
  }
  return node;
}

std::optional<PtTranslation> PageTable::LookupInSubtree(const NodeRef& subtree, int level,
                                                        uint64_t offset_in_node) {
  const PageTableNode* node = subtree.get();
  if (node == nullptr || offset_in_node >= BytesPerNode(level)) {
    return std::nullopt;
  }
  int walked = 1;
  for (int l = level; l >= 1; --l) {
    const uint64_t entry_bytes = BytesPerEntry(l);
    const int index = static_cast<int>(offset_in_node / entry_bytes);
    const PtEntry& e = node->at(index);
    offset_in_node -= static_cast<uint64_t>(index) * entry_bytes;
    if (e.kind == PtEntry::Kind::kEmpty) {
      return std::nullopt;
    }
    if (e.kind == PtEntry::Kind::kLeaf) {
      PtTranslation t;
      t.page_bytes = entry_bytes;
      t.paddr = e.paddr + offset_in_node;
      t.prot = e.prot;
      t.leaf_level = l;
      t.levels_walked = walked;
      return t;
    }
    node = e.child.get();
    ++walked;
  }
  return std::nullopt;
}

Status PageTable::ProtectRange(Vaddr vaddr, uint64_t len, Prot prot) {
  if (!IsAligned(vaddr, kPageSize) || !IsAligned(len, kPageSize)) {
    return InvalidArgument("mprotect range not page aligned");
  }
  return ForEachLeaf(vaddr, vaddr + len, [&](const PtLeaf& leaf) {
    leaf.entry->prot = prot;
    ctx_->Charge(ctx_->cost().pte_write_cycles);
    return OkStatus();
  });
}

uint64_t PageTable::CountNodes() const {
  std::unordered_set<const PageTableNode*> seen;
  CollectNodes(root_, &seen);
  return seen.size();
}

}  // namespace o1mem
