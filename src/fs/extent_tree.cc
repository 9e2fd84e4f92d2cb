#include "src/fs/extent_tree.h"

namespace o1mem {

Status ExtentTree::Insert(uint64_t file_offset, Paddr paddr, uint64_t bytes) {
  if (bytes == 0) {
    return InvalidArgument("empty extent");
  }
  ctx_->Charge(ctx_->cost().extent_tree_op_cycles);
  auto next = extents_.lower_bound(file_offset);
  if (next != extents_.end() && next->first < file_offset + bytes) {
    return AlreadyExists("extent overlaps higher mapping");
  }
  if (next != extents_.begin()) {
    auto prev = std::prev(next);
    if (prev->second.file_offset + prev->second.bytes > file_offset) {
      return AlreadyExists("extent overlaps lower mapping");
    }
  }
  FileExtent merged{.file_offset = file_offset, .paddr = paddr, .bytes = bytes};
  // Merge with the predecessor when logically AND physically contiguous.
  if (next != extents_.begin()) {
    auto prev = std::prev(next);
    const FileExtent& p = prev->second;
    if (p.file_offset + p.bytes == file_offset && p.paddr + p.bytes == paddr) {
      merged.file_offset = p.file_offset;
      merged.paddr = p.paddr;
      merged.bytes += p.bytes;
      extents_.erase(prev);
    }
  }
  // Merge with the successor.
  if (next != extents_.end()) {
    const FileExtent& n = next->second;
    if (merged.file_offset + merged.bytes == n.file_offset &&
        merged.paddr + merged.bytes == n.paddr) {
      merged.bytes += n.bytes;
      extents_.erase(next);
    }
  }
  extents_.emplace(merged.file_offset, merged);
  mapped_bytes_ += bytes;
  ++generation_;
  return OkStatus();
}

std::optional<FileExtent> ExtentTree::Lookup(uint64_t file_offset) const {
  ctx_->Charge(ctx_->cost().extent_tree_op_cycles);
  auto it = extents_.upper_bound(file_offset);
  if (it == extents_.begin()) {
    return std::nullopt;
  }
  --it;
  const FileExtent& e = it->second;
  if (file_offset >= e.file_offset && file_offset < e.file_offset + e.bytes) {
    return e;
  }
  return std::nullopt;
}

std::vector<FileExtent> ExtentTree::TruncateFrom(uint64_t file_offset) {
  ctx_->Charge(ctx_->cost().extent_tree_op_cycles);
  std::vector<FileExtent> released;
  auto it = extents_.upper_bound(file_offset);
  // A partially covered predecessor gets split.
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    FileExtent& p = prev->second;
    if (p.file_offset + p.bytes > file_offset) {
      const uint64_t keep = file_offset - p.file_offset;
      released.push_back(FileExtent{.file_offset = file_offset,
                                    .paddr = p.paddr + keep,
                                    .bytes = p.bytes - keep});
      mapped_bytes_ -= p.bytes - keep;
      p.bytes = keep;
      if (p.bytes == 0) {
        extents_.erase(prev);
      }
    }
  }
  while (it != extents_.end()) {
    released.push_back(it->second);
    mapped_bytes_ -= it->second.bytes;
    it = extents_.erase(it);
  }
  if (!released.empty()) {
    ++generation_;
  }
  return released;
}

std::vector<FileExtent> ExtentTree::Extents() const {
  std::vector<FileExtent> out;
  out.reserve(extents_.size());
  for (const auto& [off, e] : extents_) {
    out.push_back(e);
  }
  return out;
}

}  // namespace o1mem
