#include "src/sim/phys_mem.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/sim/fault_injector.h"
#include "src/support/bits.h"

namespace o1mem {

PhysicalMemory::PhysicalMemory(SimContext* ctx, uint64_t dram_bytes, uint64_t nvm_bytes,
                               PersistenceModel persistence)
    : ctx_(ctx), dram_bytes_(dram_bytes), nvm_bytes_(nvm_bytes), persistence_(persistence) {
  O1_CHECK(ctx != nullptr);
  O1_CHECK(IsAligned(dram_bytes, kPageSize));
  O1_CHECK(IsAligned(nvm_bytes, kPageSize));
  // MAP_NORESERVE: the reservation takes no commit charge up front, so a
  // machine of terabytes fits on a small host. A host that refuses it (for
  // example one with vm.overcommit_memory=2) cannot run the simulator.
  void* base = mmap(nullptr, total_bytes(), PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    std::fprintf(stderr, "PhysicalMemory: cannot reserve %llu bytes of host address space: %s\n",
                 static_cast<unsigned long long>(total_bytes()), std::strerror(errno));
    O1_CHECK_MSG(false, "host reservation for simulated physical memory failed");
  }
  base_ = static_cast<uint8_t*>(base);
  live_.resize((total_bytes() + kNodeBytes - 1) >> kNodeShift);
}

PhysicalMemory::~PhysicalMemory() { O1_CHECK(munmap(base_, total_bytes()) == 0); }

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
    if (IsLive(line >> kPageShift)) {
      std::memcpy(shadow.data(), base_ + line, 64);
    } else {
      shadow.fill(0);
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

void PhysicalMemory::AssignLive(uint64_t frame, uint64_t count, bool live) {
  const uint64_t end = frame + count;
  while (frame < end) {
    const uint64_t node_end = std::min(AlignDown(frame, kDirFanout) + kDirFanout, end);
    std::unique_ptr<LiveBits>& bits = live_[frame >> kDirShift];
    if (bits == nullptr && live) {
      bits = std::make_unique<LiveBits>();
    }
    if (bits != nullptr) {
      const uint64_t changed = AssignBits(*bits, frame & (kDirFanout - 1), node_end - frame, live);
      materialized_ = live ? materialized_ + changed : materialized_ - changed;
    }
    frame = node_end;
  }
}

template <typename Fn>
void PhysicalMemory::ForEachRun(Paddr paddr, uint64_t len, Fn&& fn) const {
  const Paddr end = paddr + len;
  for (Paddr at = paddr; at < end;) {
    const Paddr node_base = AlignDown(at, kNodeBytes);
    const Paddr node_end = std::min(node_base + kNodeBytes, end);
    const LiveBits* bits = live_[at >> kNodeShift].get();
    if (bits == nullptr) {
      fn(at, node_end - at, false);
      at = node_end;
      continue;
    }
    // Node-relative frames [f, limit) cover the rest of the span in this node.
    const uint64_t limit = ((node_end - 1 - node_base) >> kPageShift) + 1;
    for (uint64_t f = (at - node_base) >> kPageShift; f < limit;) {
      const bool live = (((*bits)[f >> 6] >> (f & 63)) & 1) != 0;
      const uint64_t run_end = FindBit(*bits, f, limit, !live);
      const Paddr stop = std::min(node_base + (run_end << kPageShift), node_end);
      fn(at, stop - at, live);
      at = stop;
      f = run_end;
    }
  }
}

uint8_t* PhysicalMemory::EnsureLive(Paddr paddr) {
  AssignLive(paddr >> kPageShift, 1, true);
  return base_ + paddr;
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
  // Live runs are copied; the rest read as zero and are zero-filled without
  // touching the reservation, so the host faults no page in for them.
  ForEachRun(paddr, out.size(), [&](Paddr at, uint64_t bytes, bool live) {
    uint8_t* to = out.data() + (at - paddr);
    if (live) {
      std::memcpy(to, base_ + at, bytes);
    } else {
      std::memset(to, 0, bytes);
    }
  });
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
  if (data.empty()) {
    return OkStatus();
  }
  std::memcpy(base_ + paddr, data.data(), data.size());
  const uint64_t first = paddr >> kPageShift;
  AssignLive(first, ((paddr + data.size() - 1) >> kPageShift) - first + 1, true);
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
  // Frames that are not live already read as zero and stay untouched. Each
  // live run is cleared with one memset, and the whole frames in it leave the
  // live set; a partly cleared frame keeps its other bytes and stays live.
  ForEachRun(paddr, len, [this](Paddr at, uint64_t bytes, bool live) {
    if (!live) {
      return;
    }
    std::memset(base_ + at, 0, bytes);
    const uint64_t first = AlignUp(at, kPageSize) >> kPageShift;
    const uint64_t last = AlignDown(at + bytes, kPageSize) >> kPageShift;
    if (last > first) {
      AssignLive(first, last - first, false);
    }
  });
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
    if (IsLive(s >> kPageShift)) {
      std::memmove(EnsureLive(d), base_ + s, chunk);
    } else if (IsLive(d >> kPageShift)) {
      std::memset(base_ + d, 0, chunk);
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
  return IsLive(paddr >> kPageShift) ? base_[paddr] : 0;
}

void PhysicalMemory::PokeByte(Paddr paddr, uint8_t value) {
  O1_CHECK(Contains(paddr, 1));
  ShadowBeforeWrite(paddr, 1, NoteNvmWrite(paddr, 1));
  *EnsureLive(paddr) = value;
}

void PhysicalMemory::CorruptBit(Paddr paddr, int bit) {
  O1_CHECK(Contains(paddr, 1));
  O1_CHECK(bit >= 0 && bit < 8);
  const uint8_t mask = static_cast<uint8_t>(1u << bit);
  *EnsureLive(paddr) ^= mask;
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
  // DRAM contents vanish: the host drops DRAM's pages, which read back as
  // zero-filled, and DRAM's frames leave the live set. On a host whose pages
  // are larger than a frame, the host page DRAM shares with NVM is cleared
  // by hand instead.
  const uint64_t dropped = AlignDown(dram_bytes_, static_cast<uint64_t>(sysconf(_SC_PAGESIZE)));
  O1_CHECK(madvise(base_, dropped, MADV_DONTNEED) == 0);
  std::memset(base_ + dropped, 0, dram_bytes_ - dropped);
  AssignLive(0, dram_bytes_ >> kPageShift, false);
  // Unflushed NVM lines were only in the (volatile) cache hierarchy; revert
  // them to their last durable contents. The injector can override per line:
  // post-crash-point lines always revert, and torn-persist mode lets some
  // pre-crash-point dirty lines reach media instead.
  for (const auto& [line, shadow] : line_shadow_) {
    if (injector_ != nullptr && !injector_->ShouldRevertOnCrash(line)) {
      continue;  // this line escaped the cache before power died
    }
    std::memcpy(EnsureLive(line), shadow.data(), 64);
  }
  line_shadow_.clear();
}

}  // namespace o1mem
