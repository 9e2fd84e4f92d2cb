#include "src/os/malloc.h"

#include <bit>

#include "src/obs/span.h"

namespace o1mem {

SizeClassAllocator::SizeClassAllocator(System* system, Process* proc, bool populate)
    : system_(system), proc_(proc), populate_(populate) {
  O1_CHECK(system != nullptr && proc != nullptr);
  free_head_.fill(kNil);
  bins_.resize(static_cast<size_t>(system->ctx().num_cpus()));
}

int SizeClassAllocator::ClassFor(uint64_t bytes) {
  if (bytes <= kGranule) {
    return 0;
  }
  // Smallest class whose 16 << cls covers `bytes`; constant-time.
  const int cls = std::bit_width(bytes - 1) - 4;
  return cls > kClassCount ? kClassCount : cls;
}

uint64_t SizeClassAllocator::ClassBytes(int cls) {
  O1_CHECK(cls >= 0 && cls < kClassCount);
  return kGranule << cls;
}

std::vector<Vaddr>& SizeClassAllocator::BinFor(int cls) {
  return bins_[static_cast<size_t>(system_->ctx().current_cpu())][static_cast<size_t>(cls)];
}

// --- Chunk pool -----------------------------------------------------------

Result<Vaddr> SizeClassAllocator::AcquireChunk() {
  if (!pool_.empty()) {
    const Vaddr base = pool_.back();
    pool_.pop_back();
    stats_.pool_reuses++;
    return base;
  }
  auto chunk = system_->Mmap(*proc_, MmapArgs{.length = kChunkBytes,
                                              .prot = Prot::kReadWrite,
                                              .populate = populate_});
  if (!chunk.ok()) {
    return chunk.status();
  }
  stats_.chunk_refills++;
  stats_.mmap_bytes += kChunkBytes;
  system_->ctx().counters().malloc_chunks_mapped++;
  return *chunk;
}

// --- Buddy backend --------------------------------------------------------

void SizeClassAllocator::PushFree(uint32_t chunk_idx, uint32_t granule, int order) {
  Chunk& c = chunks_[chunk_idx];
  c.state[granule] = Tag(kFree, order);
  const uint32_t h = Handle(chunk_idx, granule);
  const uint32_t head = free_head_[static_cast<size_t>(order)];
  c.next[granule] = head;
  c.prev[granule] = kNil;
  if (head != kNil) {
    chunks_[head >> 16].prev[head & 0xFFFF] = h;
  }
  free_head_[static_cast<size_t>(order)] = h;
}

void SizeClassAllocator::Unlink(uint32_t handle, int order) {
  Chunk& c = chunks_[handle >> 16];
  const uint32_t g = handle & 0xFFFF;
  const uint32_t nx = c.next[g];
  const uint32_t pv = c.prev[g];
  if (pv == kNil) {
    free_head_[static_cast<size_t>(order)] = nx;
  } else {
    chunks_[pv >> 16].next[pv & 0xFFFF] = nx;
  }
  if (nx != kNil) {
    chunks_[nx >> 16].prev[nx & 0xFFFF] = pv;
  }
}

Result<uint32_t> SizeClassAllocator::RegisterChunk() {
  auto base = AcquireChunk();
  if (!base.ok()) {
    return base.status();
  }
  uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<uint32_t>(chunks_.size());
    O1_CHECK(idx < 0x10000u);  // handle packs the index into 16 bits (64 GiB heap)
    chunks_.emplace_back();
  }
  Chunk& c = chunks_[idx];
  c.base = *base;
  c.active = true;
  c.state.assign(kGranules, 0);
  c.next.assign(kGranules, kNil);
  c.prev.assign(kGranules, kNil);
  chunk_by_base_.emplace(*base, idx);
  PushFree(idx, 0, kMaxOrder);
  return idx;
}

Result<uint32_t> SizeClassAllocator::BackendAlloc(int order) {
  SimContext& ctx = system_->ctx();
  int ord = order;
  while (ord <= kMaxOrder && free_head_[static_cast<size_t>(ord)] == kNil) {
    ++ord;
  }
  if (ord > kMaxOrder) {
    O1_RETURN_IF_ERROR(RegisterChunk().status());
    ord = kMaxOrder;
  }
  const uint32_t handle = free_head_[static_cast<size_t>(ord)];
  Unlink(handle, ord);
  const uint32_t chunk_idx = handle >> 16;
  const uint32_t granule = handle & 0xFFFF;
  // Split down to the requested order; at most kMaxOrder steps.
  while (ord > order) {
    --ord;
    ctx.Charge(ctx.cost().buddy_split_cycles);
    ctx.counters().malloc_buddy_splits++;
    PushFree(chunk_idx, granule + (1u << ord), ord);
  }
  chunks_[chunk_idx].state[granule] = Tag(kCached, order);
  return handle;
}

void SizeClassAllocator::BackendFree(uint32_t handle, int order) {
  SimContext& ctx = system_->ctx();
  uint32_t chunk_idx = handle >> 16;
  uint32_t granule = handle & 0xFFFF;
  Chunk& c = chunks_[chunk_idx];
  c.state[granule] = 0;
  // Coalesce with the buddy while it is free at the same order; at most
  // kMaxOrder steps.
  while (order < kMaxOrder) {
    const uint32_t buddy = granule ^ (1u << order);
    if (c.state[buddy] != Tag(kFree, order)) {
      break;
    }
    ctx.Charge(ctx.cost().buddy_split_cycles);
    ctx.counters().malloc_buddy_merges++;
    Unlink(Handle(chunk_idx, buddy), order);
    c.state[buddy] = 0;
    granule = granule < buddy ? granule : buddy;
    ++order;
  }
  if (order == kMaxOrder) {
    // The whole chunk coalesced: hand it back to the pool for reuse and
    // drop its buddy metadata.
    stats_.chunks_recycled++;
    ctx.counters().malloc_chunks_recycled++;
    chunk_by_base_.erase(c.base);
    const Vaddr base = c.base;
    c = Chunk{};
    free_slots_.push_back(chunk_idx);
    pool_.push_back(base);
    return;
  }
  PushFree(chunk_idx, granule, order);
}

Result<SizeClassAllocator::Located> SizeClassAllocator::LocateLive(Vaddr ptr) const {
  auto it = chunk_by_base_.upper_bound(ptr);
  if (it == chunk_by_base_.begin()) {
    return NotFound("unknown pointer");
  }
  --it;
  if (ptr - it->first >= kChunkBytes) {
    return NotFound("unknown pointer");
  }
  const uint64_t off = ptr - it->first;
  if (off % kGranule != 0) {
    return InvalidArgument("pointer is not a block start");
  }
  const Chunk& c = chunks_[it->second];
  const uint8_t tag = c.state[off / kGranule];
  if ((tag & 0x80u) == 0 || ((tag >> 5) & 0x3u) != kLive) {
    return InvalidArgument("pointer is not a live block");
  }
  return Located{it->second, static_cast<uint32_t>(off / kGranule), tag & 0x1F};
}

// --- Frontend -------------------------------------------------------------

Status SizeClassAllocator::Refill(int cls, std::vector<Vaddr>& bin) {
  SimContext& ctx = system_->ctx();
  ctx.Charge(ctx.cost().malloc_refill_base_cycles);
  ctx.counters().malloc_cache_refills++;
  stats_.cache_refills++;
  for (int i = 0; i < kCacheBatch; ++i) {
    ctx.Charge(ctx.cost().malloc_backend_op_cycles);
    auto handle = BackendAlloc(cls);
    if (!handle.ok()) {
      if (bin.empty()) {
        return handle.status();
      }
      break;  // partial refill under memory pressure still serves the caller
    }
    bin.push_back(chunks_[*handle >> 16].base + static_cast<uint64_t>(*handle & 0xFFFF) * kGranule);
  }
  return OkStatus();
}

void SizeClassAllocator::Flush(int cls, std::vector<Vaddr>& bin) {
  SimContext& ctx = system_->ctx();
  ctx.Charge(ctx.cost().malloc_refill_base_cycles);
  ctx.counters().malloc_cache_flushes++;
  stats_.cache_flushes++;
  // Return the oldest kCacheBatch entries; the hot stack top stays.
  for (int i = 0; i < kCacheBatch; ++i) {
    const Vaddr ptr = bin[static_cast<size_t>(i)];
    ctx.Charge(ctx.cost().malloc_backend_op_cycles);
    const auto it = chunk_by_base_.upper_bound(ptr);
    O1_CHECK(it != chunk_by_base_.begin());
    const uint32_t chunk_idx = std::prev(it)->second;
    const uint32_t granule =
        static_cast<uint32_t>((ptr - std::prev(it)->first) / kGranule);
    BackendFree(Handle(chunk_idx, granule), cls);
  }
  bin.erase(bin.begin(), bin.begin() + kCacheBatch);
}

Result<Vaddr> SizeClassAllocator::Malloc(uint64_t bytes) {
  if (bytes == 0) {
    return InvalidArgument("malloc(0)");
  }
  SimContext& ctx = system_->ctx();
  ObsSpan span(ctx, TraceKind::kMalloc, bytes);
  ctx.Charge(ctx.cost().user_alloc_cycles);
  stats_.allocations++;
  const int cls = ClassFor(bytes);
  if (cls >= kClassCount) {
    auto region = system_->Mmap(*proc_, MmapArgs{.length = bytes,
                                                 .prot = Prot::kReadWrite,
                                                 .populate = populate_});
    if (!region.ok()) {
      return region;
    }
    stats_.mmap_bytes += AlignUp(bytes, kPageSize);
    stats_.live_bytes += AlignUp(bytes, kPageSize);
    live_big_.emplace(*region, bytes);
    return region;
  }
  std::vector<Vaddr>& bin = BinFor(cls);
  if (bin.empty()) {
    O1_RETURN_IF_ERROR(Refill(cls, bin));
  }
  const Vaddr ptr = bin.back();
  bin.pop_back();
  const auto chunk_it = std::prev(chunk_by_base_.upper_bound(ptr));
  chunks_[chunk_it->second].state[(ptr - chunk_it->first) / kGranule] = Tag(kLive, cls);
  stats_.live_bytes += ClassBytes(cls);
  return ptr;
}

Status SizeClassAllocator::Free(Vaddr ptr) {
  SimContext& ctx = system_->ctx();
  ObsSpan span(ctx, TraceKind::kFree);
  ctx.Charge(ctx.cost().user_alloc_cycles);
  if (auto big = live_big_.find(ptr); big != live_big_.end()) {
    span.set_operand(big->second);
    stats_.frees++;
    stats_.live_bytes -= AlignUp(big->second, kPageSize);
    O1_RETURN_IF_ERROR(system_->Munmap(*proc_, ptr, big->second));
    live_big_.erase(big);
    return OkStatus();
  }
  auto located = LocateLive(ptr);
  if (!located.ok()) {
    return located.status();
  }
  const int cls = located->order;
  span.set_operand(ClassBytes(cls));
  stats_.frees++;
  stats_.live_bytes -= ClassBytes(cls);
  chunks_[located->chunk].state[located->granule] = Tag(kCached, cls);
  std::vector<Vaddr>& bin = BinFor(cls);
  if (bin.size() >= static_cast<size_t>(kCacheCap)) {
    Flush(cls, bin);
  }
  bin.push_back(ptr);
  return OkStatus();
}

Result<uint64_t> SizeClassAllocator::UsableSize(Vaddr ptr) const {
  if (auto big = live_big_.find(ptr); big != live_big_.end()) {
    return big->second;
  }
  auto located = LocateLive(ptr);
  if (!located.ok()) {
    return NotFound("unknown pointer");
  }
  return ClassBytes(located->order);
}

}  // namespace o1mem
