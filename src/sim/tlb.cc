#include "src/sim/tlb.h"

#include <algorithm>
#include <iterator>

#include "src/support/check.h"

namespace o1mem {

namespace {
constexpr uint64_t kPageSizes[] = {kPageSize, kLargePageSize, kHugePageSize};
}

Tlb::Tlb(int entries, int ways) : ways_(ways), sets_(entries / ways) {
  O1_CHECK(entries > 0 && ways > 0 && entries % ways == 0);
  slots_.resize(static_cast<size_t>(entries));
}

size_t Tlb::SetBase(Vaddr vbase, uint64_t page_bytes) const {
  // Hash in the page size so 4K and 2M arrays do not collide systematically.
  const uint64_t vpn = vbase / page_bytes;
  const uint64_t set = (vpn ^ (page_bytes >> kPageShift)) % static_cast<uint64_t>(sets_);
  return static_cast<size_t>(set) * static_cast<size_t>(ways_);
}

std::optional<TlbEntry> Tlb::Lookup(Asid asid, Vaddr vaddr) {
  ++tick_;
  for (uint64_t page_bytes : kPageSizes) {
    const Vaddr vbase = AlignDown(vaddr, page_bytes);
    const size_t base = SetBase(vbase, page_bytes);
    for (int w = 0; w < ways_; ++w) {
      TlbEntry& e = slots_[base + static_cast<size_t>(w)];
      if (e.valid && e.asid == asid && e.page_bytes == page_bytes && e.vbase == vbase) {
        e.lru_tick = tick_;
        return e;
      }
    }
  }
  return std::nullopt;
}

void Tlb::Insert(Asid asid, Vaddr vbase, Paddr pbase, uint64_t page_bytes, Prot prot) {
  O1_CHECK(IsAligned(vbase, page_bytes));
  ++tick_;
  const size_t base = SetBase(vbase, page_bytes);
  size_t victim = base;
  uint64_t oldest = UINT64_MAX;
  for (int w = 0; w < ways_; ++w) {
    TlbEntry& e = slots_[base + static_cast<size_t>(w)];
    if (e.valid && e.asid == asid && e.page_bytes == page_bytes && e.vbase == vbase) {
      victim = base + static_cast<size_t>(w);  // refresh in place
      break;
    }
    if (!e.valid) {
      victim = base + static_cast<size_t>(w);
      oldest = 0;
      continue;
    }
    if (e.lru_tick < oldest) {
      oldest = e.lru_tick;
      victim = base + static_cast<size_t>(w);
    }
  }
  if (slots_[victim].valid) {
    --valid_per_asid_[slots_[victim].asid];
  }
  if (asid >= valid_per_asid_.size()) {
    valid_per_asid_.resize(static_cast<size_t>(asid) + 1, 0);
  }
  ++valid_per_asid_[asid];
  slots_[victim] = TlbEntry{.valid = true,
                            .asid = asid,
                            .vbase = vbase,
                            .pbase = pbase,
                            .page_bytes = page_bytes,
                            .prot = prot,
                            .lru_tick = tick_};
}

int Tlb::InvalidateRange(Asid asid, Vaddr vaddr, uint64_t len) {
  if (ValidCount(asid) == 0) {
    return 0;
  }
  // Either scan stops once the ASID has no valid entry left to drop.
  uint32_t& remaining = valid_per_asid_[asid];
  int dropped = 0;
  auto drop_overlapping = [&](size_t first, size_t count) {
    for (size_t i = first; remaining > 0 && i < first + count; ++i) {
      TlbEntry& e = slots_[i];
      if (e.valid && e.asid == asid && e.vbase < vaddr + len && vaddr < e.vbase + e.page_bytes) {
        e.valid = false;
        --remaining;
        ++dropped;
      }
    }
  };
  // An entry lives in the set of its own page, so an entry of each size
  // that overlaps the range sits in the set of one of the range's pages of
  // that size. Probe those sets when they hold fewer slots than the array.
  const Vaddr end = vaddr + len;
  uint64_t pages[std::size(kPageSizes)] = {};
  uint64_t probed_slots = 0;
  if (len > 0 && end > vaddr) {
    for (size_t s = 0; s < std::size(kPageSizes); ++s) {
      pages[s] = (AlignDown(end - 1, kPageSizes[s]) - AlignDown(vaddr, kPageSizes[s])) /
                     kPageSizes[s] + 1;
      probed_slots += pages[s] * static_cast<uint64_t>(ways_);
    }
  }
  if (probed_slots == 0 || probed_slots >= slots_.size()) {
    drop_overlapping(0, slots_.size());
    return dropped;
  }
  for (size_t s = 0; s < std::size(kPageSizes); ++s) {
    const Vaddr first = AlignDown(vaddr, kPageSizes[s]);
    for (uint64_t p = 0; p < pages[s]; ++p) {
      drop_overlapping(SetBase(first + p * kPageSizes[s], kPageSizes[s]),
                       static_cast<size_t>(ways_));
    }
  }
  return dropped;
}

void Tlb::InvalidateAsid(Asid asid) {
  if (ValidCount(asid) == 0) {
    return;
  }
  for (TlbEntry& e : slots_) {
    if (e.asid == asid) {
      e.valid = false;
    }
  }
  valid_per_asid_[asid] = 0;
}

void Tlb::InvalidateAll() {
  for (TlbEntry& e : slots_) {
    e.valid = false;
  }
  std::fill(valid_per_asid_.begin(), valid_per_asid_.end(), 0);
}

RangeTlb::RangeTlb(int entries) {
  O1_CHECK(entries > 0);
  slots_.resize(static_cast<size_t>(entries));
}

std::optional<RangeTlbEntry> RangeTlb::Lookup(Asid asid, Vaddr vaddr) {
  ++tick_;
  for (RangeTlbEntry& e : slots_) {
    if (e.valid && e.asid == asid && vaddr >= e.vbase && vaddr < e.vbase + e.bytes) {
      e.lru_tick = tick_;
      return e;
    }
  }
  return std::nullopt;
}

void RangeTlb::Insert(Asid asid, Vaddr vbase, uint64_t bytes, Paddr pbase, Prot prot) {
  ++tick_;
  RangeTlbEntry* victim = &slots_[0];
  for (RangeTlbEntry& e : slots_) {
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.lru_tick < victim->lru_tick) {
      victim = &e;
    }
  }
  *victim = RangeTlbEntry{.valid = true,
                          .asid = asid,
                          .vbase = vbase,
                          .bytes = bytes,
                          .pbase = pbase,
                          .prot = prot,
                          .lru_tick = tick_};
}

int RangeTlb::InvalidateRange(Asid asid, Vaddr vaddr, uint64_t len) {
  int dropped = 0;
  for (RangeTlbEntry& e : slots_) {
    if (e.valid && e.asid == asid && e.vbase < vaddr + len && vaddr < e.vbase + e.bytes) {
      e.valid = false;
      ++dropped;
    }
  }
  return dropped;
}

void RangeTlb::InvalidateAsid(Asid asid) {
  for (RangeTlbEntry& e : slots_) {
    if (e.asid == asid) {
      e.valid = false;
    }
  }
}

void RangeTlb::InvalidateAll() {
  for (RangeTlbEntry& e : slots_) {
    e.valid = false;
  }
}

}  // namespace o1mem
