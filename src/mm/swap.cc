#include "src/mm/swap.h"

#include "src/support/units.h"

namespace o1mem {

namespace {
constexpr std::array<uint8_t, kPageSize> kZeroPage{};
}  // namespace

Result<uint64_t> SwapDevice::SwapOut(Paddr paddr) {
  if (slots_.size() >= capacity_pages_) {
    return OutOfMemory("swap device full");
  }
  std::array<uint8_t, kPageSize> data{};
  O1_RETURN_IF_ERROR(phys_->ReadUncharged(paddr, data));
  ctx_->Charge(ctx_->cost().swap_out_page_cycles);
  ctx_->counters().pages_swapped_out++;
  const uint64_t slot = next_slot_++;
  PageBytes bytes;
  if (data != kZeroPage) {
    bytes = std::make_shared<std::array<uint8_t, kPageSize>>(data);
  }
  slots_.emplace(slot, std::move(bytes));
  return slot;
}

Status SwapDevice::SwapIn(uint64_t slot, Paddr paddr) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFound("no such swap slot");
  }
  ctx_->Charge(ctx_->cost().swap_in_page_cycles);
  ctx_->counters().pages_swapped_in++;
  O1_RETURN_IF_ERROR(phys_->WriteUncharged(paddr, it->second ? *it->second : kZeroPage));
  slots_.erase(it);
  return OkStatus();
}

Result<uint64_t> SwapDevice::DuplicateSlot(uint64_t slot) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFound("no such swap slot");
  }
  if (slots_.size() >= capacity_pages_) {
    return OutOfMemory("swap device full");
  }
  // Device-side copy: one page write.
  ctx_->Charge(ctx_->cost().swap_out_page_cycles);
  const uint64_t dup = next_slot_++;
  slots_.emplace(dup, it->second);
  return dup;
}

Status SwapDevice::Discard(uint64_t slot) {
  if (slots_.erase(slot) == 0) {
    return NotFound("no such swap slot");
  }
  return OkStatus();
}

}  // namespace o1mem
