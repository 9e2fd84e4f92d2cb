// ObjectArena: a region allocator for language runtimes over file-only
// memory.
//
// The paper's closing argument is that O(1) thinking should reach "up to
// language runtimes and applications". An arena is the cleanest example:
// allocation is a bump (O(1)), and instead of freeing objects one by one,
// the whole region is dropped or reset in O(1) -- the space-for-time trade
// the paper advocates. Backed by a FOM segment, the arena's capacity is
// reserved at creation (cheap under ample memory) and Reset() never touches
// the pages at all: recycled bytes are cleaned by the file system's
// zero-on-free machinery when the segment is eventually deleted.
#ifndef O1MEM_SRC_RUNTIME_ARENA_H_
#define O1MEM_SRC_RUNTIME_ARENA_H_

#include <string>

#include "src/os/system.h"

namespace o1mem {

class ObjectArena {
 public:
  // Creates the backing segment (volatile by default) and maps it.
  static Result<ObjectArena> Create(System* sys, Process* proc, std::string path,
                                    uint64_t capacity_bytes,
                                    const FileFlags& flags = FileFlags{});

  ObjectArena(ObjectArena&&) = default;
  ObjectArena& operator=(ObjectArena&&) = default;
  ObjectArena(const ObjectArena&) = delete;
  ObjectArena& operator=(const ObjectArena&) = delete;

  // Bump allocation; O(1). `align` must be a power of two.
  Result<Vaddr> Allocate(uint64_t bytes, uint64_t align = 16);

  // Drops every object at once; O(1). Previously handed-out addresses become
  // logically dead (the memory stays readable -- arenas trust their users).
  Status Reset();

  // Unmaps and deletes the backing segment; O(extents).
  Status Destroy();

  uint64_t used_bytes() const { return cursor_; }
  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t allocation_count() const { return allocations_; }
  Vaddr base() const { return base_; }
  Process& process() { return *proc_; }

 private:
  ObjectArena(System* sys, Process* proc, std::string path, InodeId inode, Vaddr base,
              uint64_t capacity)
      : sys_(sys), proc_(proc), path_(std::move(path)), inode_(inode), base_(base),
        capacity_(capacity) {}

  System* sys_;
  Process* proc_;
  std::string path_;
  InodeId inode_;
  Vaddr base_;
  uint64_t capacity_;
  uint64_t cursor_ = 0;
  uint64_t allocations_ = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_RUNTIME_ARENA_H_
