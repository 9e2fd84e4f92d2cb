#include "src/sim/phys_mem.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <type_traits>
#include <utility>

#include "src/sim/fault_injector.h"

namespace o1mem {

namespace {

// Per-frame copies and clears call the library routines out of line. Inline,
// GCC bounds their length by a frame and expands them into `rep movsq` /
// `rep stosq`, which is slower on the simulator's hot paths.
[[gnu::noipa]] void CopyBytes(uint8_t* to, const uint8_t* from, uint64_t bytes) {
  std::memcpy(to, from, bytes);
}
[[gnu::noipa]] void ClearBytes(uint8_t* to, uint64_t bytes) { std::memset(to, 0, bytes); }

// The reservation the last PhysicalMemory left behind, all zero, for the next
// one to take. Trivially destructible, so it is still usable while other
// statics are destroyed.
struct ParkedReservation {
  std::mutex mu;
  void* base = nullptr;
  uint64_t bytes = 0;
};
static_assert(std::is_trivially_destructible_v<ParkedReservation>);
constinit ParkedReservation parked;

}  // namespace

PhysicalMemory::PhysicalMemory(SimContext* ctx, uint64_t dram_bytes, uint64_t nvm_bytes,
                               PersistenceModel persistence)
    : ctx_(ctx), dram_bytes_(dram_bytes), nvm_bytes_(nvm_bytes), persistence_(persistence) {
  O1_CHECK(ctx != nullptr);
  O1_CHECK(IsAligned(dram_bytes, kPageSize));
  O1_CHECK(IsAligned(nvm_bytes, kPageSize));
  {
    std::lock_guard<std::mutex> lock(parked.mu);
    if (parked.base != nullptr && parked.bytes >= total_bytes()) {
      pool_ = static_cast<uint8_t*>(std::exchange(parked.base, nullptr));
      reserved_bytes_ = std::exchange(parked.bytes, 0);
    }
  }
  if (pool_ == nullptr) {
    // MAP_NORESERVE: the reservation takes no commit charge up front, so a
    // machine of terabytes fits on a small host. A host that refuses it (for
    // example one with vm.overcommit_memory=2) cannot run the simulator.
    void* pool = mmap(nullptr, total_bytes(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (pool == MAP_FAILED) {
      std::fprintf(stderr, "PhysicalMemory: cannot reserve %llu bytes of host address space: %s\n",
                   static_cast<unsigned long long>(total_bytes()), std::strerror(errno));
      O1_CHECK_MSG(false, "host reservation for simulated physical memory failed");
    }
    pool_ = static_cast<uint8_t*>(pool);
    reserved_bytes_ = total_bytes();
  }
  O1_CHECK_MSG((total_bytes() >> kPageShift) <= std::numeric_limits<HostPage>::max(),
               "simulated physical memory over 16 TiB: pool page numbers are 32 bits");
  nodes_.resize((total_bytes() + kNodeBytes - 1) >> kNodeShift);
}

PhysicalMemory::~PhysicalMemory() {
  // Every pool page that backs no frame already holds zeros; clearing the
  // live frames makes the whole reservation zero, so the next instance can
  // take it as if freshly mapped, its pages already resident.
  ClearLive(0, total_bytes());
  void* older = nullptr;
  uint64_t older_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(parked.mu);
    older = std::exchange(parked.base, pool_);
    older_bytes = std::exchange(parked.bytes, reserved_bytes_);
  }
  if (older != nullptr) {
    O1_CHECK(munmap(older, older_bytes) == 0);
  }
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
    if (const uint8_t* host = HostAddr(line)) {
      std::memcpy(shadow.data(), host, 64);
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

uint8_t* PhysicalMemory::EnsureLive(Paddr paddr) {
  if (uint8_t* host = HostAddr(paddr)) {
    return host;
  }
  HostPage page;
  if (free_pages_.empty()) {
    page = ++pool_used_;
  } else {
    page = free_pages_.back();
    free_pages_.pop_back();
  }
  std::unique_ptr<Node>& node = nodes_[paddr >> kNodeShift];
  if (node == nullptr) {
    if (spare_nodes_.empty()) {
      node = std::make_unique<Node>();
    } else {
      node = std::move(spare_nodes_.back());
      spare_nodes_.pop_back();
    }
  }
  node->page[(paddr >> kPageShift) & (kDirFanout - 1)] = page;
  ++node->live;
  ++materialized_;
  return PageAddr(page) + (paddr & (kPageSize - 1));
}

void PhysicalMemory::ReleaseLive(uint64_t frame) {
  std::unique_ptr<Node>& node = nodes_[frame >> kDirShift];
  HostPage& page = node->page[frame & (kDirFanout - 1)];
  free_pages_.push_back(page);
  page = 0;
  --materialized_;
  if (--node->live == 0) {
    spare_nodes_.push_back(std::move(node));
  }
}

template <typename Fn>
void PhysicalMemory::ForEachRun(Paddr paddr, uint64_t len, Fn&& fn) const {
  const Paddr end = paddr + len;
  for (Paddr at = paddr; at < end;) {
    const Paddr node_end = std::min(AlignDown(at, kNodeBytes) + kNodeBytes, end);
    // Read afresh on each piece: `fn` takes the table away when it releases
    // the node's last live frame.
    const Node* node = nodes_[at >> kNodeShift].get();
    if (node == nullptr) {
      fn(at, node_end - at, nullptr);
      at = node_end;
      continue;
    }
    const auto page_of = [node](Paddr p) {
      return node->page[(p >> kPageShift) & (kDirFanout - 1)];
    };
    Paddr stop = std::min(AlignDown(at, kPageSize) + kPageSize, node_end);
    if (const HostPage page = page_of(at); page != 0) {
      fn(at, stop - at, PageAddr(page) + (at & (kPageSize - 1)));
    } else {
      while (stop < node_end && page_of(stop) == 0) {
        stop = std::min(stop + kPageSize, node_end);
      }
      fn(at, stop - at, nullptr);
    }
    at = stop;
  }
}

void PhysicalMemory::ClearLive(Paddr paddr, uint64_t len) {
  ForEachRun(paddr, len, [this](Paddr at, uint64_t bytes, uint8_t* host) {
    if (host == nullptr) {
      return;
    }
    ClearBytes(host, bytes);
    if (bytes == kPageSize) {
      ReleaseLive(at >> kPageShift);
    }
  });
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
  // Live frames are copied; the rest read as zero and are zero-filled
  // without touching the pool, so they take no host page.
  ForEachRun(paddr, out.size(), [&](Paddr at, uint64_t bytes, const uint8_t* host) {
    uint8_t* to = out.data() + (at - paddr);
    if (host != nullptr) {
      CopyBytes(to, host, bytes);
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
  for (uint64_t done = 0; done < data.size();) {
    const Paddr at = paddr + done;
    const uint64_t bytes = std::min(kPageSize - (at & (kPageSize - 1)), data.size() - done);
    CopyBytes(EnsureLive(at), data.data() + done, bytes);
    done += bytes;
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
  // Frames that are not live already read as zero and stay untouched. A
  // whole frame cleared leaves the live set; a partly cleared frame keeps its
  // other bytes and stays live.
  ClearLive(paddr, len);
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
  // First each maximal destination run whose source is not live is cleared
  // as ZeroUncharged clears it, so a frame it covers whole gives its page
  // back; only then do live source pieces take pages for their destination.
  Paddr zeros_from = src;  // [zeros_from, zeros_to): not live since the last live piece
  Paddr zeros_to = src;
  ForEachRun(src, len, [&](Paddr at, uint64_t bytes, const uint8_t* host) {
    if (host != nullptr) {
      ClearLive(dst + (zeros_from - src), zeros_to - zeros_from);
      zeros_from = at + bytes;
    }
    zeros_to = at + bytes;
  });
  ClearLive(dst + (zeros_from - src), zeros_to - zeros_from);
  for (uint64_t done = 0; done < len;) {
    const Paddr s = src + done;
    const Paddr d = dst + done;
    const uint64_t chunk = std::min({kPageSize - (s & (kPageSize - 1)),
                                     kPageSize - (d & (kPageSize - 1)), len - done});
    if (const uint8_t* from = HostAddr(s)) {
      std::memmove(EnsureLive(d), from, chunk);
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
  const uint8_t* host = HostAddr(paddr);
  return host != nullptr ? *host : 0;
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
  // DRAM contents vanish: each live DRAM frame is cleared and gives its page
  // back to the pool.
  ClearLive(0, dram_bytes_);
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
