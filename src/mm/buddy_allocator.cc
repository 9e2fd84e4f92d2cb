#include "src/mm/buddy_allocator.h"

#include <bit>

namespace o1mem {

namespace {

uint64_t WordsFor(uint64_t bits) { return (bits + 63) / 64; }
uint64_t Bit(uint64_t i) { return uint64_t{1} << (i & 63); }

}  // namespace

BuddyAllocator::FreeBitmap::FreeBitmap(uint64_t blocks)
    : words_(WordsFor(blocks)),
      summary_(WordsFor(words_.size())),
      top_(WordsFor(summary_.size())) {}

bool BuddyAllocator::FreeBitmap::Contains(uint64_t block) const {
  // The buddy of the last block may lie past the end.
  return block / 64 < words_.size() && (words_[block / 64] & Bit(block)) != 0;
}

void BuddyAllocator::FreeBitmap::Insert(uint64_t block) {
  uint64_t& word = words_[block / 64];
  if ((word & Bit(block)) != 0) {
    return;
  }
  ++count_;
  if (word == 0) {
    const uint64_t w = block / 64;
    if (summary_[w / 64] == 0) {
      top_[w / 4096] |= Bit(w / 64);
    }
    summary_[w / 64] |= Bit(w);
  }
  word |= Bit(block);
}

void BuddyAllocator::FreeBitmap::Erase(uint64_t block) {
  uint64_t& word = words_[block / 64];
  if ((word & Bit(block)) == 0) {
    return;
  }
  --count_;
  word &= ~Bit(block);
  if (word == 0) {
    const uint64_t w = block / 64;
    summary_[w / 64] &= ~Bit(w);
    if (summary_[w / 64] == 0) {
      top_[w / 4096] &= ~Bit(w / 64);
    }
  }
}

uint64_t BuddyAllocator::FreeBitmap::First() const {
  O1_CHECK(count_ > 0);
  uint64_t t = 0;
  while (top_[t] == 0) {
    ++t;
  }
  const uint64_t s = t * 64 + static_cast<uint64_t>(std::countr_zero(top_[t]));
  const uint64_t w = s * 64 + static_cast<uint64_t>(std::countr_zero(summary_[s]));
  return w * 64 + static_cast<uint64_t>(std::countr_zero(words_[w]));
}

BuddyAllocator::BuddyAllocator(SimContext* ctx, Paddr base, uint64_t bytes)
    : ctx_(ctx), base_(base), bytes_(bytes) {
  O1_CHECK(ctx != nullptr);
  O1_CHECK(IsAligned(base, kPageSize));
  O1_CHECK(IsAligned(bytes, kPageSize));
  const uint64_t frames = bytes >> kPageShift;
  // Block numbers at `order` stay below (frames >> order) + 1.
  free_lists_.reserve(kMaxOrder);
  for (int order = 0; order < kMaxOrder; ++order) {
    free_lists_.emplace_back((frames >> order) + 1);
  }
  // Seed free lists greedily with the largest aligned blocks that fit.
  uint64_t index = 0;
  while (index < frames) {
    int order = kMaxOrder - 1;
    while (order > 0 && (index % (uint64_t{1} << order) != 0 ||
                         index + (uint64_t{1} << order) > frames)) {
      --order;
    }
    free_lists_[static_cast<size_t>(order)].Insert(index >> order);
    index += uint64_t{1} << order;
  }
  free_bytes_ = bytes;
}

void BuddyAllocator::ChargeZoneLock() {
  const int remote = ctx_->num_cpus() - 1;
  if (remote > 0) {
    ctx_->Charge(static_cast<uint64_t>(remote) * ctx_->cost().zone_lock_contention_cycles);
  }
}

Result<Paddr> BuddyAllocator::AllocOrder(int order) {
  ChargeZoneLock();
  return AllocOrderLocked(order);
}

Result<Paddr> BuddyAllocator::AllocOrderLocked(int order) {
  if (order < 0 || order >= kMaxOrder) {
    return InvalidArgument("buddy order out of range");
  }
  ctx_->Charge(ctx_->cost().buddy_alloc_cycles);
  // Find the smallest order >= requested with a free block.
  int have = order;
  while (have < kMaxOrder && free_lists_[static_cast<size_t>(have)].empty()) {
    ++have;
  }
  if (have == kMaxOrder) {
    return OutOfMemory("buddy allocator exhausted");
  }
  FreeBitmap& list = free_lists_[static_cast<size_t>(have)];
  const uint64_t block = list.First();
  list.Erase(block);
  const uint64_t index = block << have;
  // Split down to the requested order, returning the upper halves.
  while (have > order) {
    --have;
    ctx_->Charge(ctx_->cost().buddy_split_cycles);
    free_lists_[static_cast<size_t>(have)].Insert((index >> have) + 1);
  }
  free_bytes_ -= kPageSize << order;
  ctx_->counters().frames_allocated += uint64_t{1} << order;
  return FrameAddr(index);
}

Status BuddyAllocator::FreeOrder(Paddr paddr, int order) {
  ChargeZoneLock();
  return FreeOrderLocked(paddr, order);
}

Status BuddyAllocator::FreeOrderLocked(Paddr paddr, int order) {
  if (order < 0 || order >= kMaxOrder) {
    return InvalidArgument("buddy order out of range");
  }
  if (!Owns(paddr) || !IsAligned(paddr - base_, kPageSize << order)) {
    return InvalidArgument("free of block not from this allocator");
  }
  ctx_->Charge(ctx_->cost().buddy_free_cycles);
  uint64_t index = FrameIndex(paddr);
  ctx_->counters().frames_freed += uint64_t{1} << order;
  free_bytes_ += kPageSize << order;
  // Merge with the buddy while possible.
  while (order < kMaxOrder - 1) {
    FreeBitmap& list = free_lists_[static_cast<size_t>(order)];
    const uint64_t buddy = (index >> order) ^ 1;
    if (!list.Contains(buddy)) {
      break;
    }
    list.Erase(buddy);
    ctx_->Charge(ctx_->cost().buddy_split_cycles);
    index &= ~(uint64_t{1} << order);
    ++order;
  }
  free_lists_[static_cast<size_t>(order)].Insert(index >> order);
  return OkStatus();
}

Status BuddyAllocator::AllocFrameBatch(int count, std::vector<Paddr>* out) {
  if (count <= 0 || out == nullptr) {
    return InvalidArgument("bad frame batch request");
  }
  ChargeZoneLock();
  for (int i = 0; i < count; ++i) {
    auto frame = AllocOrderLocked(0);
    if (!frame.ok()) {
      if (i == 0) {
        return frame.status();
      }
      break;  // partial batch: the caller works with what it got
    }
    out->push_back(frame.value());
  }
  return OkStatus();
}

Status BuddyAllocator::FreeFrameBatch(std::span<const Paddr> frames) {
  if (frames.empty()) {
    return OkStatus();
  }
  ChargeZoneLock();
  for (Paddr paddr : frames) {
    O1_RETURN_IF_ERROR(FreeOrderLocked(paddr, 0));
  }
  return OkStatus();
}

int BuddyAllocator::LargestFreeOrder() const {
  for (int order = kMaxOrder - 1; order >= 0; --order) {
    if (!free_lists_[static_cast<size_t>(order)].empty()) {
      return order;
    }
  }
  return -1;
}

size_t BuddyAllocator::FreeBlocksAt(int order) const {
  O1_CHECK(order >= 0 && order < kMaxOrder);
  return free_lists_[static_cast<size_t>(order)].size();
}

}  // namespace o1mem
