#include "src/fs/block_bitmap.h"

#include <algorithm>
#include <bit>

#include "src/support/bits.h"

namespace o1mem {

BlockBitmap::BlockBitmap(SimContext* ctx, uint64_t block_count)
    : ctx_(ctx), block_count_(block_count), words_((block_count + 63) / 64, 0),
      free_blocks_(block_count) {
  O1_CHECK(ctx != nullptr);
  O1_CHECK(block_count > 0);
}

std::optional<uint64_t> BlockBitmap::FindRun(uint64_t from, uint64_t limit,
                                             uint64_t count) const {
  // Only a free run's first block can start the lowest fit inside it, and
  // checking it stops at start + count.
  for (uint64_t start = FindBit(words_, from, limit, false); limit - start >= count;) {
    const uint64_t end = FindBit(words_, start, start + count, true);
    if (end == start + count) {
      return start;
    }
    start = FindBit(words_, end, limit, false);
  }
  return std::nullopt;
}

BlockExtent BlockBitmap::BestRun(uint64_t from, uint64_t limit, uint64_t cap) const {
  BlockExtent best;
  for (uint64_t start = FindBit(words_, from, limit, false); start < limit;) {
    const uint64_t end = FindBit(words_, start, limit - start > cap ? start + cap : limit, true);
    if (end - start > best.count) {
      best = BlockExtent{.start = start, .count = end - start};
      if (best.count == cap) {
        break;
      }
    }
    start = FindBit(words_, end, limit, false);
  }
  return best;
}

void BlockBitmap::Mark(BlockExtent extent, bool allocated) {
  const uint64_t end = extent.start + extent.count;
  O1_CHECK_MSG(FindBit(words_, extent.start, end, allocated) == end, "bitmap double alloc/free");
  AssignBits(words_, extent.start, extent.count, allocated);
  if (allocated) {
    free_blocks_ -= extent.count;
  } else {
    free_blocks_ += extent.count;
  }
}

Result<BlockExtent> BlockBitmap::AllocExtent(uint64_t count) {
  if (count == 0) {
    return InvalidArgument("bad extent size");
  }
  ctx_->Charge(ctx_->cost().extent_alloc_cycles);
  if (count > block_count_) {
    return OutOfMemory("request exceeds device size");
  }
  if (count > free_blocks_) {
    return OutOfMemory("not enough free blocks");
  }
  auto start = FindRun(hint_, block_count_, count);
  if (!start.has_value()) {
    start = FindRun(0, std::min(hint_ + count, block_count_), count);
  }
  if (!start.has_value()) {
    return OutOfMemory("no contiguous run of requested size (fragmented)");
  }
  const BlockExtent extent{.start = *start, .count = count};
  Mark(extent, true);
  hint_ = (*start + count) % block_count_;
  return extent;
}

Result<BlockExtent> BlockBitmap::AllocExtentAtMost(uint64_t count, uint64_t min_count) {
  if (count == 0 || min_count == 0 || min_count > count) {
    return InvalidArgument("bad extent bounds");
  }
  auto exact = AllocExtent(count);
  if (exact.ok()) {
    return exact;
  }
  if (exact.status().code() != StatusCode::kOutOfMemory) {
    return exact.status();
  }
  // Fall back to the longest run available anywhere.
  ctx_->Charge(ctx_->cost().extent_alloc_cycles);
  BlockExtent best = BestRun(0, block_count_, count);
  if (best.count < min_count) {
    return OutOfMemory("no run of at least min_count blocks");
  }
  Mark(best, true);
  hint_ = (best.start + best.count) % block_count_;
  return best;
}

Status BlockBitmap::FreeExtent(BlockExtent extent) {
  if (extent.count == 0 || extent.start + extent.count > block_count_) {
    return InvalidArgument("extent out of range");
  }
  const uint64_t end = extent.start + extent.count;
  if (FindBit(words_, extent.start, end, false) != end) {
    return InvalidArgument("double free in bitmap");
  }
  ctx_->Charge(ctx_->cost().extent_free_cycles);
  Mark(extent, false);
  return OkStatus();
}

Status BlockBitmap::Reset(std::span<const uint64_t> words) {
  if (words.size() != words_.size()) {
    return InvalidArgument("bitmap reset size mismatch");
  }
  // One pass over the bitmap words, charged at DRAM streaming rate for the
  // bit array (1 bit per block).
  ctx_->Charge(ctx_->cost().DramBulkCycles(block_count_ / 8 + 1));
  std::copy(words.begin(), words.end(), words_.begin());
  free_blocks_ = block_count_;
  for (const uint64_t word : words_) {
    free_blocks_ -= static_cast<uint64_t>(std::popcount(word));
  }
  hint_ = 0;
  return OkStatus();
}

bool BlockBitmap::IsAllocated(uint64_t block) const {
  O1_CHECK(block < block_count_);
  return ((words_[block >> 6] >> (block & 63)) & 1) != 0;
}

bool BlockBitmap::AllAllocated(BlockExtent extent) const {
  const uint64_t end = extent.start + extent.count;
  O1_CHECK(end <= block_count_);
  return FindBit(words_, extent.start, end, false) == end;
}

uint64_t BlockBitmap::LargestFreeRun() const {
  uint64_t best = 0;
  for (uint64_t start = FindBit(words_, 0, block_count_, false); start < block_count_;) {
    const uint64_t end = FindBit(words_, start, block_count_, true);
    best = std::max(best, end - start);
    start = FindBit(words_, end, block_count_, false);
  }
  return best;
}

}  // namespace o1mem
