#include "src/mm/phys_manager.h"

#include <algorithm>

namespace o1mem {

uint64_t PhysManager::ContigCarveBytes(Machine* machine) {
  const ContigConfig& contig = machine->config().contig;
  if (contig.area_bytes == 0) {
    return 0;
  }
  // The area comes off the top of DRAM before the buddy is seeded; cap it at
  // half the machine so the general allocator keeps a working set.
  return std::min(AlignUp(contig.area_bytes, kPageSize),
                  machine->phys().dram_bytes() / 2);
}

PhysManager::PhysManager(Machine* machine)
    : machine_(machine),
      buddy_(&machine->ctx(), /*base=*/0,
             machine->phys().dram_bytes() - ContigCarveBytes(machine)),
      meta_(&machine->ctx(), /*base=*/0, machine->phys().dram_bytes()),
      pcp_enabled_(machine->ctx().smp().percpu_frame_cache),
      prezero_enabled_(machine->ctx().smp().prezero_pool),
      caches_(static_cast<size_t>(machine->ctx().num_cpus())) {
  O1_CHECK(machine != nullptr);
  const uint64_t carve = ContigCarveBytes(machine);
  if (carve > 0) {
    contig_ = std::make_unique<ContigAllocator>(
        &machine->ctx(), machine->phys().dram_bytes() - carve, carve,
        machine->config().contig);
  }
  const TierConfig& tier = machine->config().tier;
  if (tier.enabled && tier.dram_cache_bytes > 0) {
    CarveCacheZone(AlignUp(tier.dram_cache_bytes, kPageSize));
  }
}

void PhysManager::InsertCacheFree(Paddr base, uint64_t bytes) {
  auto next = cache_free_.upper_bound(base);
  if (next != cache_free_.end() && base + bytes == next->first) {
    bytes += next->second;
    next = cache_free_.erase(next);
  }
  if (next != cache_free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == base) {
      prev->second += bytes;
      return;
    }
  }
  cache_free_.emplace(base, bytes);
}

void PhysManager::CarveCacheZone(uint64_t bytes) {
  // Boot-time work: pull the carve out of the buddy in the largest blocks
  // available so cache extents can be long physically contiguous runs.
  uint64_t remaining = bytes;
  while (remaining >= kPageSize) {
    int order = 0;
    while (order + 1 < BuddyAllocator::kMaxOrder &&
           (kPageSize << (order + 1)) <= remaining) {
      ++order;
    }
    Result<Paddr> block = buddy_.AllocOrder(order);
    while (!block.ok() && order > 0) {
      --order;
      block = buddy_.AllocOrder(order);
    }
    if (!block.ok()) {
      break;  // best effort: a small machine yields a smaller carve
    }
    const uint64_t got = kPageSize << order;
    InsertCacheFree(*block, got);
    cache_total_ += got;
    cache_free_bytes_ += got;
    remaining -= got;
  }
}

Result<Paddr> PhysManager::AllocCache(uint64_t bytes) {
  if (bytes == 0 || !IsAligned(bytes, kPageSize)) {
    return InvalidArgument("cache extents are page-granular");
  }
  SimContext& ctx = machine_->ctx();
  ctx.Charge(ctx.cost().extent_alloc_cycles);
  for (auto it = cache_free_.begin(); it != cache_free_.end(); ++it) {
    if (it->second < bytes) {
      continue;
    }
    const Paddr base = it->first;
    const uint64_t rest = it->second - bytes;
    cache_free_.erase(it);
    if (rest > 0) {
      cache_free_.emplace(base + bytes, rest);
    }
    cache_free_bytes_ -= bytes;
    return base;
  }
  return OutOfMemory("DRAM file-cache zone exhausted");
}

Status PhysManager::FreeCache(Paddr paddr, uint64_t bytes) {
  if (bytes == 0 || !IsAligned(bytes, kPageSize) || !IsAligned(paddr, kPageSize)) {
    return InvalidArgument("cache extents are page-granular");
  }
  SimContext& ctx = machine_->ctx();
  ctx.Charge(ctx.cost().extent_free_cycles);
  InsertCacheFree(paddr, bytes);
  cache_free_bytes_ += bytes;
  O1_CHECK(cache_free_bytes_ <= cache_total_);
  return OkStatus();
}

PhysManager::CpuCache& PhysManager::cache() {
  return caches_[static_cast<size_t>(machine_->ctx().current_cpu())];
}

Result<Paddr> PhysManager::InitFrame(Paddr paddr) {
  PageMeta& m = meta_.Of(paddr);
  m = PageMeta{};
  m.refcount = 1;
  return paddr;
}

Result<Paddr> PhysManager::AllocFrame(bool zero) {
  SimContext& ctx = machine_->ctx();
  if (!pcp_enabled_) {
    auto frame = buddy_.AllocFrame();
    if (!frame.ok()) {
      return frame.status();
    }
    ctx.counters().frames_from_buddy++;
    if (zero) {
      ctx.counters().prezero_misses++;
      O1_RETURN_IF_ERROR(machine_->phys().Zero(frame.value(), kPageSize));
    }
    return InitFrame(frame.value());
  }

  const CostModel& cost = ctx.cost();
  CpuCache& c = cache();

  if (zero && prezero_enabled_) {
    // Keep the background pool warm (all of that work is charged to
    // background_zero_cycles, not the simulated clock) -- unless a brownout
    // is shedding background work, in which case the pool only drains.
    if (prezero_pool_.size() < ctx.smp().prezero_target_frames / 2) {
      if (brownout_) {
        ctx.counters().brownout_prezero_deferrals++;
      } else {
        ReplenishPrezeroPool();
      }
    }
    bool refilled = false;
    if (c.zeroed.empty()) {
      refilled = RefillZeroedFromPool(c);
    }
    if (!c.zeroed.empty()) {
      ctx.Charge(cost.pcp_op_cycles);
      Paddr frame = c.zeroed.back();
      c.zeroed.pop_back();
      // An alloc that had to touch the shared pool counts as the slow path.
      (refilled ? ctx.counters().frames_from_buddy : ctx.counters().frames_from_pcp)++;
      ctx.counters().prezero_hits++;
      return InitFrame(frame);  // already zeroed in the background
    }
    // Pool dry: fall through and zero inline like the baseline.
  }

  bool refilled = false;
  if (c.free.empty()) {
    ctx.Charge(cost.pcp_refill_base_cycles);
    O1_RETURN_IF_ERROR(buddy_.AllocFrameBatch(ctx.smp().pcp_batch, &c.free));
    refilled = true;
  }
  ctx.Charge(cost.pcp_op_cycles);
  Paddr frame = c.free.back();
  c.free.pop_back();
  (refilled ? ctx.counters().frames_from_buddy : ctx.counters().frames_from_pcp)++;
  if (zero) {
    ctx.counters().prezero_misses++;
    O1_RETURN_IF_ERROR(machine_->phys().Zero(frame, kPageSize));
  }
  return InitFrame(frame);
}

bool PhysManager::RefillZeroedFromPool(CpuCache& c) {
  if (prezero_pool_.empty()) {
    return false;
  }
  SimContext& ctx = machine_->ctx();
  const CostModel& cost = ctx.cost();
  const uint64_t remote = static_cast<uint64_t>(ctx.num_cpus() - 1);
  const size_t take = std::min<size_t>(static_cast<size_t>(ctx.smp().pcp_batch),
                                       prezero_pool_.size());
  // One shared-pool lock round trip moves the whole batch.
  ctx.Charge(cost.pcp_refill_base_cycles + remote * cost.zone_lock_contention_cycles +
             take * cost.prezero_pop_cycles);
  c.zeroed.insert(c.zeroed.end(), prezero_pool_.end() - static_cast<ptrdiff_t>(take),
                  prezero_pool_.end());
  prezero_pool_.resize(prezero_pool_.size() - take);
  return true;
}

void PhysManager::ReplenishPrezeroPool() {
  if (!prezero_enabled_ || replenishing_) {
    return;
  }
  SimContext& ctx = machine_->ctx();
  const uint64_t target = ctx.smp().prezero_target_frames;
  // Never starve the buddy proper: leave at least a quarter of DRAM there.
  const uint64_t reserve = buddy_.total_bytes() / 4;
  if (prezero_pool_.size() >= target) {
    return;
  }
  replenishing_ = true;
  uint64_t background = 0;
  ctx.RedirectCharges(&background);
  while (prezero_pool_.size() < target && buddy_.free_bytes() > reserve) {
    const int want = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(ctx.smp().pcp_batch),
                           target - prezero_pool_.size()));
    std::vector<Paddr> batch;
    if (!buddy_.AllocFrameBatch(want, &batch).ok() || batch.empty()) {
      break;
    }
    bool failed = false;
    for (Paddr frame : batch) {
      if (!failed && machine_->phys().Zero(frame, kPageSize).ok()) {
        prezero_pool_.push_back(frame);
      } else {
        failed = true;
        (void)buddy_.FreeFrame(frame);
      }
    }
    if (failed) {
      break;
    }
  }
  ctx.StopRedirectingCharges();
  background_zero_cycles_ += background;
  replenishing_ = false;
}

Status PhysManager::FreeOne(Paddr paddr) {
  if (!pcp_enabled_) {
    return buddy_.FreeFrame(paddr);
  }
  SimContext& ctx = machine_->ctx();
  CpuCache& c = cache();
  ctx.Charge(ctx.cost().pcp_op_cycles);
  c.free.push_back(paddr);
  if (c.free.size() > static_cast<size_t>(ctx.smp().pcp_high_watermark)) {
    // Drain the coldest batch back to the buddy under one zone-lock trip.
    const size_t drain = std::min(c.free.size(), static_cast<size_t>(ctx.smp().pcp_batch));
    O1_RETURN_IF_ERROR(buddy_.FreeFrameBatch(std::span<const Paddr>(c.free.data(), drain)));
    c.free.erase(c.free.begin(), c.free.begin() + static_cast<ptrdiff_t>(drain));
  }
  return OkStatus();
}

Status PhysManager::FreeFrame(Paddr paddr) {
  PageMeta& m = meta_.Of(paddr);
  m = PageMeta{};
  return FreeOne(paddr);
}

Status PhysManager::ReleaseFrame(Paddr paddr) {
  PageMeta& m = meta_.Of(paddr);
  if (m.refcount > 1) {
    m.refcount--;
    return OkStatus();
  }
  m = PageMeta{};
  return FreeOne(paddr);
}

Status PhysManager::ReleaseContiguous(Paddr paddr, int order) {
  PageMeta& m = meta_.Of(paddr);
  if (m.refcount > 1) {
    m.refcount--;
    return OkStatus();
  }
  m = PageMeta{};
  return buddy_.FreeOrder(paddr, order);
}

uint64_t PhysManager::free_bytes() const {
  uint64_t cached = prezero_pool_.size();
  for (const CpuCache& c : caches_) {
    cached += c.free.size() + c.zeroed.size();
  }
  return buddy_.free_bytes() + cached * kPageSize;
}

size_t PhysManager::cpu_cache_frames(int cpu) const {
  O1_CHECK(cpu >= 0 && cpu < static_cast<int>(caches_.size()));
  const CpuCache& c = caches_[static_cast<size_t>(cpu)];
  return c.free.size() + c.zeroed.size();
}

}  // namespace o1mem
