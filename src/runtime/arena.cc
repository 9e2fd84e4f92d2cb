#include "src/runtime/arena.h"

namespace o1mem {

Result<ObjectArena> ObjectArena::Create(System* sys, Process* proc, std::string path,
                                        uint64_t capacity_bytes, const FileFlags& flags) {
  O1_CHECK(sys != nullptr && proc != nullptr);
  if (capacity_bytes == 0) {
    return InvalidArgument("zero-capacity arena");
  }
  if (proc->backend() != Backend::kFom) {
    return Unsupported("arenas are backed by FOM segments");
  }
  auto inode = sys->fom().CreateSegment(path, capacity_bytes, SegmentOptions{.flags = flags});
  if (!inode.ok()) {
    return inode.status();
  }
  auto base = sys->fom().Map(proc->fom(), *inode, Prot::kReadWrite);
  if (!base.ok()) {
    (void)sys->fom().DeleteSegment(path);
    return base.status();
  }
  return ObjectArena(sys, proc, std::move(path), *inode, *base, capacity_bytes);
}

Result<Vaddr> ObjectArena::Allocate(uint64_t bytes, uint64_t align) {
  if (bytes == 0 || !IsPowerOfTwo(align)) {
    return InvalidArgument("bad arena allocation");
  }
  sys_->ctx().Charge(sys_->ctx().cost().user_alloc_cycles);
  const uint64_t start = AlignUp(cursor_, align);
  if (start + bytes > capacity_ || start + bytes < start) {
    return OutOfMemory("arena exhausted");
  }
  cursor_ = start + bytes;
  ++allocations_;
  return base_ + start;
}

Status ObjectArena::Reset() {
  // The O(1) drop: no sweep, no per-object work, no page work.
  sys_->ctx().Charge(sys_->ctx().cost().user_alloc_cycles);
  cursor_ = 0;
  allocations_ = 0;
  return OkStatus();
}

Status ObjectArena::Destroy() {
  O1_RETURN_IF_ERROR(sys_->fom().Unmap(proc_->fom(), base_));
  // The segment may already be unlinked if the path was reused; ignore a
  // missing path but propagate real failures.
  Status s = sys_->fom().DeleteSegment(path_);
  if (!s.ok() && s.code() != StatusCode::kNotFound) {
    return s;
  }
  cursor_ = 0;
  capacity_ = 0;
  return OkStatus();
}

}  // namespace o1mem
