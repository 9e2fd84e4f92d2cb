#include "src/sim/phys_mem.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/sim/fault_injector.h"
#include "src/support/bits.h"

namespace o1mem {

PhysicalMemory::PhysicalMemory(SimContext* ctx, uint64_t dram_bytes, uint64_t nvm_bytes,
                               PersistenceModel persistence)
    : ctx_(ctx), dram_bytes_(dram_bytes), nvm_bytes_(nvm_bytes), persistence_(persistence) {
  O1_CHECK(ctx != nullptr);
  O1_CHECK(IsAligned(dram_bytes, kPageSize));
  O1_CHECK(IsAligned(nvm_bytes, kPageSize));
  const uint64_t frames = total_bytes() >> kPageShift;
  dir_.resize((frames + kDirFanout - 1) >> kDirShift);
}

void PhysicalMemory::AttachFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  if (injector != nullptr) {
    injector->AttachPhys(this);
  }
}

bool PhysicalMemory::NoteNvmWrite(Paddr paddr, uint64_t len) {
  if (injector_ == nullptr || len == 0) {
    return false;
  }
  // Overwrites heal transient poison in either tier: a rewritten DRAM line
  // re-latches clean ECC just like a rewritten NVM line. Sticky poison stays.
  injector_->NoteWriteForPoison(paddr, len);
  if (paddr + len <= dram_bytes_) {
    return false;  // pure DRAM write: no NVM durability events
  }
  const Paddr nvm_start = std::max(paddr, dram_bytes_);
  const uint64_t nvm_len = paddr + len - nvm_start;
  const uint64_t lines =
      (AlignDown(nvm_start + nvm_len - 1, 64) - AlignDown(nvm_start, 64)) / 64 + 1;
  return injector_->NoteNvmLineWrites(lines);
}

void PhysicalMemory::ShadowBeforeWrite(Paddr paddr, uint64_t len, bool post_trigger) {
  const bool track = post_trigger || persistence_ == PersistenceModel::kExplicitFlush;
  if (!track || len == 0 || paddr + len <= dram_bytes_) {
    return;
  }
  const Paddr first = std::max(AlignDown(paddr, 64), AlignDown(dram_bytes_, 64));
  const Paddr last = AlignDown(paddr + len - 1, 64);
  for (Paddr line = first; line <= last; line += 64) {
    if (line < dram_bytes_) {
      continue;
    }
    if (post_trigger) {
      injector_->MarkPostTriggerLine(line);
    }
    if (line_shadow_.contains(line)) {
      continue;
    }
    auto& shadow = line_shadow_[line];
    const uint8_t* page = FindPage(line);
    if (page == nullptr) {
      shadow.fill(0);
    } else {
      std::memcpy(shadow.data(), page + (line & (kPageSize - 1)), 64);
    }
  }
}

uint64_t PhysicalMemory::FlushLinesUncharged(Paddr paddr, uint64_t len) {
  if (persistence_ == PersistenceModel::kAutoDurable || len == 0) {
    return 0;
  }
  // Past an armed crash point nothing reaches media: the flush is issued
  // (and charged by the caller) but commits no lines.
  const bool suppress = injector_ != nullptr && injector_->suppress_durability();
  const Paddr first = AlignDown(paddr, 64);
  const Paddr last = AlignDown(paddr + len - 1, 64);
  uint64_t lines = 0;
  for (Paddr line = first; line <= last; line += 64) {
    if (!suppress) {
      line_shadow_.erase(line);  // now durable
    }
    ++lines;
  }
  return lines;
}

Status PhysicalMemory::FlushLines(Paddr paddr, uint64_t len) {
  if (!Contains(paddr, len)) {
    return InvalidArgument("flush out of range");
  }
  if (injector_ != nullptr && len > 0 && paddr + len > dram_bytes_) {
    (void)injector_->NoteFlush();
  }
  const CostModel& c = ctx_->cost();
  if (persistence_ == PersistenceModel::kAutoDurable) {
    ctx_->Charge(c.sfence_cycles);  // eADR platform: ordering only
    return OkStatus();
  }
  const uint64_t lines = len == 0 ? 0 : (AlignDown(paddr + len - 1, 64) - AlignDown(paddr, 64)) / 64 + 1;
  (void)FlushLinesUncharged(paddr, len);
  ctx_->Charge(lines * c.clwb_cycles + c.sfence_cycles);
  return OkStatus();
}

void PhysicalMemory::SlabFree::operator()(uint8_t* p) const { std::free(p); }

PhysicalMemory::DirNode& PhysicalMemory::EnsureNode(uint64_t node_idx) {
  std::unique_ptr<DirNode>& node = dir_[node_idx];
  if (node == nullptr) {
    node = std::make_unique<DirNode>();
    // calloc: the host kernel demand-zeroes the slab, so untouched frames
    // stay non-resident and satisfy the zero-read invariant for free.
    node->data.reset(static_cast<uint8_t*>(std::calloc(kDirFanout, kPageSize)));
    O1_CHECK(node->data != nullptr);
  }
  return *node;
}

void PhysicalMemory::MaterializeFrames(DirNode& node, uint64_t first, uint64_t count) {
  materialized_ += AssignBits(node.live, first, count, true);
}

const uint8_t* PhysicalMemory::FindPage(Paddr paddr) const {
  const uint64_t frame = paddr >> kPageShift;
  const DirNode* node = dir_[frame >> kDirShift].get();
  if (node == nullptr) {
    return nullptr;
  }
  const uint64_t in_node = frame & (kDirFanout - 1);
  if ((node->live[in_node >> 6] & (uint64_t{1} << (in_node & 63))) == 0) {
    return nullptr;
  }
  return node->data.get() + (in_node << kPageShift);
}

uint8_t* PhysicalMemory::FindPageMut(Paddr paddr) {
  return const_cast<uint8_t*>(std::as_const(*this).FindPage(paddr));
}

uint8_t* PhysicalMemory::EnsurePage(Paddr paddr) {
  const uint64_t frame = paddr >> kPageShift;
  DirNode& node = EnsureNode(frame >> kDirShift);
  const uint64_t in_node = frame & (kDirFanout - 1);
  MaterializeFrames(node, in_node, 1);
  return node.data.get() + (in_node << kPageShift);
}

void PhysicalMemory::ChargeBulk(Paddr paddr, uint64_t len, bool is_write) {
  // Split the charge at the tier boundary if the run straddles it.
  const uint64_t dram_part = paddr >= dram_bytes_ ? 0 : std::min(len, dram_bytes_ - paddr);
  const uint64_t nvm_part = len - dram_part;
  const CostModel& c = ctx_->cost();
  uint64_t cycles = 0;
  if (dram_part > 0) {
    cycles += c.DramBulkCycles(dram_part);
  }
  if (nvm_part > 0) {
    cycles += is_write ? c.NvmWriteBulkCycles(nvm_part) : c.NvmReadBulkCycles(nvm_part);
  }
  ctx_->Charge(cycles);
}

Status PhysicalMemory::Read(Paddr paddr, std::span<uint8_t> out) {
  if (!Contains(paddr, out.size())) {
    return InvalidArgument("physical read out of range");
  }
  ChargeBulk(paddr, out.size(), /*is_write=*/false);
  return ReadUncharged(paddr, out);
}

Status PhysicalMemory::ReadUncharged(Paddr paddr, std::span<uint8_t> out) {
  if (!Contains(paddr, out.size())) {
    return InvalidArgument("physical read out of range");
  }
  if (injector_ != nullptr && injector_->has_poison()) {
    O1_RETURN_IF_ERROR(injector_->CheckRead(paddr, out.size()));
  }
  // One copy per 2 MiB node: unwritten frames in a live slab are zero by
  // invariant, so the memcpy can run straight through them.
  uint64_t done = 0;
  while (done < out.size()) {
    const Paddr cur = paddr + done;
    const uint64_t run = std::min<uint64_t>(kNodeBytes - (cur & (kNodeBytes - 1)),
                                            out.size() - done);
    const DirNode* node = dir_[cur >> kPageShift >> kDirShift].get();
    if (node == nullptr) {
      std::memset(out.data() + done, 0, run);
    } else {
      std::memcpy(out.data() + done, node->data.get() + (cur & (kNodeBytes - 1)), run);
    }
    done += run;
  }
  return OkStatus();
}

Status PhysicalMemory::Write(Paddr paddr, std::span<const uint8_t> data) {
  if (!Contains(paddr, data.size())) {
    return InvalidArgument("physical write out of range");
  }
  ChargeBulk(paddr, data.size(), /*is_write=*/true);
  return WriteUncharged(paddr, data);
}

Status PhysicalMemory::WriteUncharged(Paddr paddr, std::span<const uint8_t> data) {
  if (!Contains(paddr, data.size())) {
    return InvalidArgument("physical write out of range");
  }
  ShadowBeforeWrite(paddr, data.size(), NoteNvmWrite(paddr, data.size()));
  uint64_t done = 0;
  while (done < data.size()) {
    const Paddr cur = paddr + done;
    const uint64_t run = std::min<uint64_t>(kNodeBytes - (cur & (kNodeBytes - 1)),
                                            data.size() - done);
    DirNode& node = EnsureNode(cur >> kPageShift >> kDirShift);
    std::memcpy(node.data.get() + (cur & (kNodeBytes - 1)), data.data() + done, run);
    const uint64_t first = (cur >> kPageShift) & (kDirFanout - 1);
    const uint64_t last = ((cur + run - 1) >> kPageShift) & (kDirFanout - 1);
    MaterializeFrames(node, first, last - first + 1);
    done += run;
  }
  return OkStatus();
}

Status PhysicalMemory::Zero(Paddr paddr, uint64_t len) {
  if (!Contains(paddr, len)) {
    return InvalidArgument("physical zero out of range");
  }
  ChargeBulk(paddr, len, /*is_write=*/true);
  return ZeroUncharged(paddr, len);
}

Status PhysicalMemory::ZeroUncharged(Paddr paddr, uint64_t len) {
  if (!Contains(paddr, len)) {
    return InvalidArgument("physical zero out of range");
  }
  ShadowBeforeWrite(paddr, len, NoteNvmWrite(paddr, len));
  ctx_->counters().bytes_zeroed += len;
  // Partially covered pages materialize (the slab bytes are already zero by
  // invariant); existing ones are cleared in place.
  auto zero_partial = [this](Paddr at, uint64_t bytes) {
    if (bytes == 0) {
      return;
    }
    if (uint8_t* page = FindPageMut(at); page != nullptr) {
      std::memset(page + (at & (kPageSize - 1)), 0, bytes);
    } else {
      (void)EnsurePage(at);
    }
  };
  const Paddr end = paddr + len;
  const Paddr whole_begin = std::min(AlignUp(paddr, kPageSize), end);
  const Paddr whole_end = std::max(AlignDown(end, kPageSize), whole_begin);
  zero_partial(paddr, whole_begin - paddr);
  zero_partial(whole_end, end - whole_end);
  // Whole never-materialized pages can stay unmaterialized: they already
  // read as zero. So each node's live words pick out the runs of frames to
  // clear, and absent nodes are skipped outright.
  const uint64_t last = whole_end >> kPageShift;
  for (uint64_t frame = whole_begin >> kPageShift; frame < last;) {
    const uint64_t node_first = AlignDown(frame, kDirFanout);
    const uint64_t node_end = std::min(node_first + kDirFanout, last);
    if (DirNode* node = dir_[frame >> kDirShift].get(); node != nullptr) {
      const uint64_t limit = node_end - node_first;
      for (uint64_t f = FindBit(node->live, frame - node_first, limit, true); f < limit;) {
        const uint64_t run_end = FindBit(node->live, f, limit, false);
        std::memset(node->data.get() + (f << kPageShift), 0, (run_end - f) << kPageShift);
        f = FindBit(node->live, run_end, limit, true);
      }
    }
    frame = node_end;
  }
  return OkStatus();
}

Status PhysicalMemory::Copy(Paddr dst, Paddr src, uint64_t len) {
  if (!Contains(dst, len) || !Contains(src, len)) {
    return InvalidArgument("physical copy out of range");
  }
  ChargeBulk(src, len, /*is_write=*/false);
  ChargeBulk(dst, len, /*is_write=*/true);
  if (injector_ != nullptr && injector_->has_poison()) {
    O1_RETURN_IF_ERROR(injector_->CheckRead(src, len));
  }
  ShadowBeforeWrite(dst, len, NoteNvmWrite(dst, len));
  ctx_->counters().bytes_copied += len;
  // Move bytes without further charging (charges above cover the transfer).
  uint64_t done = 0;
  while (done < len) {
    const Paddr s = src + done;
    const Paddr d = dst + done;
    const uint64_t chunk = std::min({kPageSize - (s & (kPageSize - 1)),
                                     kPageSize - (d & (kPageSize - 1)), len - done});
    const uint8_t* spage = FindPage(s);
    if (spage == nullptr) {
      uint8_t* dpage = FindPageMut(d);
      if (dpage != nullptr) {
        std::memset(dpage + (d & (kPageSize - 1)), 0, chunk);
      }
    } else {
      uint8_t* dpage = EnsurePage(d);
      std::memmove(dpage + (d & (kPageSize - 1)), spage + (s & (kPageSize - 1)), chunk);
    }
    done += chunk;
  }
  return OkStatus();
}

Status PhysicalMemory::Move(Paddr dst, Paddr src, uint64_t len) {
  if (!Contains(dst, len) || !Contains(src, len)) {
    return InvalidArgument("physical move out of range");
  }
  ctx_->counters().tier_migrated_bytes += len;
  return Copy(dst, src, len);
}

uint8_t PhysicalMemory::PeekByte(Paddr paddr) const {
  O1_CHECK(Contains(paddr, 1));
  const uint8_t* page = FindPage(paddr);
  return page == nullptr ? 0 : page[paddr & (kPageSize - 1)];
}

void PhysicalMemory::PokeByte(Paddr paddr, uint8_t value) {
  O1_CHECK(Contains(paddr, 1));
  ShadowBeforeWrite(paddr, 1, NoteNvmWrite(paddr, 1));
  EnsurePage(paddr)[paddr & (kPageSize - 1)] = value;
}

void PhysicalMemory::CorruptBit(Paddr paddr, int bit) {
  O1_CHECK(Contains(paddr, 1));
  O1_CHECK(bit >= 0 && bit < 8);
  const uint8_t mask = static_cast<uint8_t>(1u << bit);
  EnsurePage(paddr)[paddr & (kPageSize - 1)] ^= mask;
  auto it = line_shadow_.find(AlignDown(paddr, 64));
  if (it != line_shadow_.end()) {
    it->second[paddr & 63] ^= mask;
  }
}

std::optional<Paddr> PhysicalMemory::FindUnreadableLineUncharged(Paddr paddr,
                                                                 uint64_t len) const {
  if (injector_ == nullptr) {
    return std::nullopt;
  }
  return injector_->FindUnreadableLine(paddr, len);
}

void PhysicalMemory::DropVolatile() {
  const uint64_t dram_frames = dram_bytes_ >> kPageShift;
  for (uint64_t node_idx = 0; node_idx * kDirFanout < dram_frames; ++node_idx) {
    std::unique_ptr<DirNode>& node = dir_[node_idx];
    if (node == nullptr) {
      continue;
    }
    const uint64_t first = node_idx * kDirFanout;
    if (first + kDirFanout <= dram_frames) {
      // Whole node is DRAM: drop the slab outright (absent node reads zero).
      for (const uint64_t word : node->live) {
        materialized_ -= static_cast<uint64_t>(std::popcount(word));
      }
      node.reset();
      continue;
    }
    // Node straddles the DRAM/NVM boundary: re-zero and unmaterialize just
    // the DRAM frames, preserving the zero-read invariant for the slab.
    for (uint64_t frame = first; frame < dram_frames; ++frame) {
      const uint64_t in_node = frame - first;
      uint64_t& word = node->live[in_node >> 6];
      const uint64_t bit = uint64_t{1} << (in_node & 63);
      if ((word & bit) != 0) {
        std::memset(node->data.get() + (in_node << kPageShift), 0, kPageSize);
        word &= ~bit;
        --materialized_;
      }
    }
  }
  // Unflushed NVM lines were only in the (volatile) cache hierarchy; revert
  // them to their last durable contents. The injector can override per line:
  // post-crash-point lines always revert, and torn-persist mode lets some
  // pre-crash-point dirty lines reach media instead.
  for (const auto& [line, shadow] : line_shadow_) {
    if (injector_ != nullptr && !injector_->ShouldRevertOnCrash(line)) {
      continue;  // this line escaped the cache before power died
    }
    std::memcpy(EnsurePage(line) + (line & (kPageSize - 1)), shadow.data(), 64);
  }
  line_shadow_.clear();
}

}  // namespace o1mem
