#include "src/sim/range_table.h"

namespace o1mem {

Status RangeTable::Insert(const RangeEntry& entry) {
  if (entry.bytes == 0) {
    return InvalidArgument("empty range");
  }
  // The Mmu translates once per page, so an entry that ended inside a page
  // would carry the rest of that page through its own physical run.
  if (!IsAligned(entry.vbase, kPageSize) || !IsAligned(entry.bytes, kPageSize) ||
      !IsAligned(entry.pbase, kPageSize)) {
    return InvalidArgument("range not page-aligned");
  }
  if (entry.vbase + entry.bytes < entry.vbase) {
    return InvalidArgument("range wraps VA space");
  }
  // Check the neighbor below and the neighbor at/above for overlap.
  auto next = ranges_.lower_bound(entry.vbase);
  if (next != ranges_.end() && next->second.vbase < entry.vlimit()) {
    return AlreadyExists("range overlaps a higher existing range");
  }
  if (next != ranges_.begin()) {
    auto prev = std::prev(next);
    if (prev->second.vlimit() > entry.vbase) {
      return AlreadyExists("range overlaps a lower existing range");
    }
  }
  ranges_.emplace(entry.vbase, entry);
  return OkStatus();
}

Status RangeTable::Remove(Vaddr vbase) {
  auto it = ranges_.find(vbase);
  if (it == ranges_.end()) {
    return NotFound("no range based at vbase");
  }
  ranges_.erase(it);
  return OkStatus();
}

std::optional<RangeEntry> RangeTable::Lookup(Vaddr vaddr) const {
  auto it = ranges_.upper_bound(vaddr);
  if (it == ranges_.begin()) {
    return std::nullopt;
  }
  --it;
  const RangeEntry& e = it->second;
  if (vaddr >= e.vbase && vaddr < e.vlimit()) {
    return e;
  }
  return std::nullopt;
}

Status RangeTable::Protect(Vaddr vbase, Prot prot) {
  auto it = ranges_.find(vbase);
  if (it == ranges_.end()) {
    return NotFound("no range based at vbase");
  }
  it->second.prot = prot;
  return OkStatus();
}

std::vector<RangeEntry> RangeTable::Entries() const {
  std::vector<RangeEntry> out;
  out.reserve(ranges_.size());
  for (const auto& [vbase, e] : ranges_) {
    out.push_back(e);
  }
  return out;
}

}  // namespace o1mem
