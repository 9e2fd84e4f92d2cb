// ExtentTree: a file's logical-offset -> physical-extent map, in the style
// of ext4's extent tree ("Modern file systems, when possible, translate
// addresses in long extents ... rather than individual blocks").
//
// Keys are byte offsets within the file; values are contiguous physical
// runs. Adjacent entries that are physically contiguous merge on insert, so
// a well-allocated file stays at one entry no matter its size -- the
// property that lets FOM map a file with one range-table entry.
#ifndef O1MEM_SRC_FS_EXTENT_TREE_H_
#define O1MEM_SRC_FS_EXTENT_TREE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/fs/types.h"
#include "src/sim/context.h"
#include "src/support/status.h"

namespace o1mem {

// A mapped run: file bytes [file_offset, file_offset+bytes) live at
// [paddr, paddr+bytes).
struct FileExtent {
  uint64_t file_offset = 0;
  Paddr paddr = 0;
  uint64_t bytes = 0;
};

class ExtentTree {
 public:
  explicit ExtentTree(SimContext* ctx) : ctx_(ctx) {}

  ExtentTree(const ExtentTree&) = delete;
  ExtentTree& operator=(const ExtentTree&) = delete;
  ExtentTree(ExtentTree&&) = default;
  ExtentTree& operator=(ExtentTree&&) = default;

  // Maps [file_offset, file_offset+bytes) -> paddr. Rejects overlap with an
  // existing mapping. Merges with physically contiguous neighbours.
  Status Insert(uint64_t file_offset, Paddr paddr, uint64_t bytes);

  // Finds the extent containing `file_offset`, if mapped.
  std::optional<FileExtent> Lookup(uint64_t file_offset) const;

  // Removes everything at or above `file_offset` (truncate), returning the
  // physical runs that were released so the caller can free blocks.
  std::vector<FileExtent> TruncateFrom(uint64_t file_offset);

  // All extents in file order.
  std::vector<FileExtent> Extents() const;

  size_t extent_count() const { return extents_.size(); }
  uint64_t mapped_bytes() const { return mapped_bytes_; }
  // Bumped by every change to the mapping: an Insert, or a TruncateFrom
  // that releases something.
  uint64_t generation() const { return generation_; }

 private:
  SimContext* ctx_;
  std::map<uint64_t, FileExtent> extents_;  // keyed by file_offset
  uint64_t mapped_bytes_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_FS_EXTENT_TREE_H_
