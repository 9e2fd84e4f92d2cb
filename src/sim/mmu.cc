#include "src/sim/mmu.h"

#include <algorithm>
#include <cstdlib>

#include "src/obs/span.h"

namespace o1mem {

namespace {
uint64_t PageSpan(Vaddr vaddr, uint64_t len) {
  const Vaddr first = AlignDown(vaddr, kPageSize);
  const Vaddr last = AlignUp(vaddr + std::max<uint64_t>(len, 1), kPageSize);
  return (last - first) >> kPageShift;
}
}  // namespace

Mmu::Mmu(SimContext* ctx, PhysicalMemory* phys, const MmuConfig& config)
    : ctx_(ctx),
      phys_(phys),
      batched_(ctx != nullptr && ctx->smp().batched_shootdowns),
      fastpath_(std::getenv("O1MEM_NO_HOST_FASTPATH") == nullptr),
      pwc_entries_(config.pwc_entries) {
  O1_CHECK(ctx != nullptr && phys != nullptr);
  O1_CHECK(config.pwc_entries > 0);
  cpus_.reserve(static_cast<size_t>(ctx->num_cpus()));
  for (int i = 0; i < ctx->num_cpus(); ++i) {
    cpus_.emplace_back(config);
  }
}

bool Mmu::PwcLookupOrInsert(Asid asid, Vaddr vaddr) {
  CpuState& c = cpu();
  const uint64_t key = (static_cast<uint64_t>(asid) << 43) | (vaddr >> kLargePageShift);
  ++c.pwc_tick;
  PwcSlot* victim = nullptr;
  for (PwcSlot& slot : c.pwc) {
    if (slot.key == key) {
      slot.tick = c.pwc_tick;
      return true;
    }
    if (victim == nullptr || slot.tick < victim->tick) {
      victim = &slot;
    }
  }
  // Miss: fill a free slot, else evict the least recently used tag (ticks
  // are unique and monotonic, so the smallest is the one victim).
  if (c.pwc.size() < static_cast<size_t>(pwc_entries_)) {
    c.pwc.push_back(PwcSlot{key, c.pwc_tick});
  } else {
    *victim = PwcSlot{key, c.pwc_tick};
  }
  return false;
}

void Mmu::ChargeWalk(AddressSpace& as, Vaddr vaddr, int levels) {
  const CostModel& c = ctx_->cost();
  const int upper_levels = std::max(levels - 1, 0);
  if (PwcLookupOrInsert(as.asid(), vaddr)) {
    // PWC covers the upper levels; the leaf PTE fetch remains (and under
    // virtualization the leaf's own guest-physical translation with it).
    const uint64_t leaf_refs =
        c.virtualized_walks ? static_cast<uint64_t>(levels) + 1 : uint64_t{1};
    ctx_->counters().pwc_hits++;
    ctx_->Charge(static_cast<uint64_t>(upper_levels) * c.pwc_hit_cycles +
                 leaf_refs * c.pte_fetch_cycles);
  } else {
    // Full walk: d references native, d^2+2d nested (24 for 4-level, 35 for
    // 5-level -- Sec. 2's numbers).
    ctx_->Charge(c.WalkRefs(levels) * c.pte_fetch_cold_cycles);
  }
  ctx_->counters().page_walks++;
}

void Mmu::ChargeShootdown(uint64_t cycles) {
  ctx_->Charge(cycles);
  ctx_->counters().shootdown_cycles += cycles;
}

void Mmu::InvalidateOn(CpuState& state, const PendingInval& inval) {
  state.fast.valid = false;  // conservative: any invalidation clears the fast path
  if (inval.whole_asid) {
    state.l1_tlb.InvalidateAsid(inval.asid);
    state.l2_tlb.InvalidateAsid(inval.asid);
    state.range_tlb.InvalidateAsid(inval.asid);
  } else {
    state.l1_tlb.InvalidateRange(inval.asid, inval.vaddr, inval.len);
    state.l2_tlb.InvalidateRange(inval.asid, inval.vaddr, inval.len);
    state.range_tlb.InvalidateRange(inval.asid, inval.vaddr, inval.len);
  }
}

void Mmu::ApplyPending(CpuState& state) {
  for (const PendingInval& inval : state.pending) {
    InvalidateOn(state, inval);
  }
  state.pending.clear();
}

void Mmu::DrainForTranslate(Asid asid) {
  CpuState& c = cpu();
  if (c.pending.empty()) {
    return;
  }
  const bool affected =
      std::any_of(c.pending.begin(), c.pending.end(),
                  [asid](const PendingInval& p) { return p.asid == asid; });
  if (!affected) {
    return;
  }
  ChargeShootdown(c.pending.size() * ctx_->cost().shootdown_drain_cycles);
  ctx_->counters().shootdown_translate_drains++;
  ApplyPending(c);
}

std::optional<TranslationInfo> Mmu::TryTranslate(AddressSpace& as, Vaddr vaddr) {
  const CostModel& c = ctx_->cost();
  DrainForTranslate(as.asid());
  CpuState& hw = cpu();
  // L1 TLB.
  if (auto e = hw.l1_tlb.Lookup(as.asid(), vaddr)) {
    ctx_->counters().tlb_l1_hits++;
    ctx_->Charge(c.tlb_l1_hit_cycles);
    hw.fast = FastEntry{true, true, as.asid(), e->vbase, e->page_bytes, e->pbase, e->prot};
    return TranslationInfo{.paddr = e->pbase + (vaddr - e->vbase),
                           .prot = e->prot,
                           .source = TranslationInfo::Source::kL1Tlb};
  }
  // L2 TLB.
  if (auto e = hw.l2_tlb.Lookup(as.asid(), vaddr)) {
    ctx_->counters().tlb_l2_hits++;
    ctx_->Charge(c.tlb_l2_hit_cycles + c.tlb_insert_cycles);
    hw.l1_tlb.Insert(as.asid(), e->vbase, e->pbase, e->page_bytes, e->prot);
    hw.fast = FastEntry{true, true, as.asid(), e->vbase, e->page_bytes, e->pbase, e->prot};
    return TranslationInfo{.paddr = e->pbase + (vaddr - e->vbase),
                           .prot = e->prot,
                           .source = TranslationInfo::Source::kL2Tlb};
  }
  ctx_->counters().tlb_misses++;
  // Range TLB.
  if (auto e = hw.range_tlb.Lookup(as.asid(), vaddr)) {
    ctx_->counters().range_tlb_hits++;
    ctx_->Charge(c.range_tlb_hit_cycles);
    hw.fast = FastEntry{true, false, as.asid(), e->vbase, e->bytes, e->pbase, e->prot};
    return TranslationInfo{.paddr = e->pbase + (vaddr - e->vbase),
                           .prot = e->prot,
                           .source = TranslationInfo::Source::kRangeTlb};
  }
  // Range-table walk (hardware walker over the OS-maintained range table).
  if (auto r = as.range_table().Lookup(vaddr)) {
    ctx_->counters().range_table_walks++;
    ctx_->Charge(c.range_table_walk_cycles + c.tlb_insert_cycles);
    hw.range_tlb.Insert(as.asid(), r->vbase, r->bytes, r->pbase, r->prot);
    hw.fast = FastEntry{true, false, as.asid(), r->vbase, r->bytes, r->pbase, r->prot};
    return TranslationInfo{.paddr = r->pbase + (vaddr - r->vbase),
                           .prot = r->prot,
                           .source = TranslationInfo::Source::kRangeTable};
  }
  // Radix page-table walk.
  if (auto t = as.page_table().Lookup(vaddr)) {
    ChargeWalk(as, vaddr, t->levels_walked);
    ctx_->Charge(c.tlb_insert_cycles);
    const Vaddr vbase = AlignDown(vaddr, t->page_bytes);
    const Paddr pbase = t->paddr - (vaddr - vbase);
    hw.l1_tlb.Insert(as.asid(), vbase, pbase, t->page_bytes, t->prot);
    hw.l2_tlb.Insert(as.asid(), vbase, pbase, t->page_bytes, t->prot);
    hw.fast = FastEntry{true, true, as.asid(), vbase, t->page_bytes, pbase, t->prot};
    return TranslationInfo{.paddr = t->paddr,
                           .prot = t->prot,
                           .source = TranslationInfo::Source::kPageWalk};
  }
  // Charge the full failed walk: hardware discovers the hole the hard way.
  ChargeWalk(as, vaddr, as.page_table().depth());
  hw.fast.valid = false;
  return std::nullopt;
}

Result<TranslationInfo> Mmu::Translate(AddressSpace& as, Vaddr vaddr, AccessType type) {
  // A protection mismatch or a queued invalidation takes the full lookup
  // below (FastEntryFor says no), which traps or drains and charges that.
  if (const FastEntry* f = FastEntryFor(as, vaddr, type)) {
    ctx_->Charge(FastHitCycles(*f));
    return TranslationInfo{.paddr = f->pbase + (vaddr - f->vbase),
                           .prot = f->prot,
                           .source = f->page_backed ? TranslationInfo::Source::kL1Tlb
                                                    : TranslationInfo::Source::kRangeTlb};
  }
  bool faulted = false;
  for (int attempt = 0; attempt <= kMaxFaultRetries; ++attempt) {
    auto info = TryTranslate(as, vaddr);
    if (info.has_value() && HasProt(info->prot, RequiredProt(type))) {
      info->faulted = faulted;
      return *info;
    }
    // Miss or protection violation: trap to the OS. A protection fault with
    // a handler supports copy-on-write-style upgrades; the handler must
    // shoot down the stale entry before returning.
    FaultHandler* handler = as.fault_handler();
    ctx_->Charge(ctx_->cost().fault_trap_cycles);
    if (handler == nullptr) {
      ctx_->counters().segv_faults++;
      return info.has_value() ? PermissionDenied("access violates mapping protection")
                              : FaultError("unhandled translation fault");
    }
    faulted = true;
    Status s = handler->HandleFault(vaddr, type);
    if (!s.ok()) {
      ctx_->counters().segv_faults++;
      return s;
    }
  }
  ctx_->counters().segv_faults++;
  return FaultError("fault handler loop did not install a translation");
}

Status Mmu::AccessPages(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type,
                        uint8_t* out, const uint8_t* data) {
  for (uint64_t done = 0; done < len;) {
    const Vaddr cur = vaddr + done;
    const uint64_t in_page = std::min<uint64_t>(kPageSize - (cur & (kPageSize - 1)), len - done);
    auto t = Translate(as, cur, type);
    if (!t.ok()) {
      return t.status();
    }
    // Charged before the bytes move: a poisoned read fails after its
    // charges, and a write that trips a crash point is already charged.
    ctx_->Charge(DataTouchCycles(t->paddr, in_page, type));
    if (out != nullptr) {
      O1_RETURN_IF_ERROR(phys_->ReadUncharged(t->paddr, {out + done, in_page}));
    } else if (data != nullptr) {
      O1_RETURN_IF_ERROR(phys_->WriteUncharged(t->paddr, {data + done, in_page}));
    }
    done += in_page;
  }
  return OkStatus();
}

void Mmu::ShootdownPage(Asid asid, Vaddr vaddr) {
  ShootdownRange(asid, AlignDown(vaddr, kPageSize), kPageSize);
}

void Mmu::ShootdownRange(Asid asid, Vaddr vaddr, uint64_t len) {
  Shootdown(PendingInval{asid, vaddr, len, false}, PageSpan(vaddr, len));
}

void Mmu::ShootdownAsid(Asid asid) {
  // A whole-ASID flush is one operation however large the space is.
  Shootdown(PendingInval{asid, 0, 0, true}, 1);
}

void Mmu::Shootdown(const PendingInval& inval, uint64_t ipis_per_remote) {
  const CostModel& c = ctx_->cost();
  const int self = ctx_->current_cpu();
  const uint64_t remotes = static_cast<uint64_t>(ctx_->num_cpus() - 1);
  ctx_->counters().tlb_shootdowns++;
  if (batched_) {
    // Invalidate locally now; remotes get a queued invalidation that the OS
    // flushes once per operation (or the remote drains before translating).
    InvalidateOn(cpus_[static_cast<size_t>(self)], inval);
    ChargeShootdown(c.tlb_local_invalidate_cycles + remotes * c.shootdown_queue_cycles);
    for (size_t i = 0; i < cpus_.size(); ++i) {
      if (static_cast<int>(i) != self) {
        cpus_[i].pending.push_back(inval);
        ctx_->counters().shootdown_invals_batched++;
      }
    }
    return;
  }
  // Eager: every CPU is interrupted now. With more than one CPU the
  // initiator pays one IPI per page per remote for a range -- the linear
  // cost batched mode amortizes away. At num_cpus == 1 this is the seed's
  // flat charge.
  for (CpuState& state : cpus_) {
    InvalidateOn(state, inval);
  }
  const uint64_t ipis = ipis_per_remote * remotes;
  ChargeShootdown(c.tlb_shootdown_cycles + ipis * c.shootdown_ipi_cycles);
  ctx_->counters().shootdown_ipis_sent += ipis;
}

void Mmu::FlushPending() {
  if (!batched_) {
    return;
  }
  size_t queued = 0;
  for (const CpuState& state : cpus_) {
    queued += state.pending.size();
  }
  if (queued == 0) {
    return;  // nothing pending: no IPI round, no trace event
  }
  // Operand = invalidations retired this round, in page units, so the O(1)
  // verdict can ask whether one flush stays flat as the batch grows.
  ObsSpan span(*ctx_, TraceKind::kShootdownFlush, queued * kPageSize);
  const CostModel& c = ctx_->cost();
  const int self = ctx_->current_cpu();
  for (size_t i = 0; i < cpus_.size(); ++i) {
    CpuState& state = cpus_[i];
    if (state.pending.empty()) {
      continue;
    }
    const uint64_t drain = state.pending.size() * c.shootdown_drain_cycles;
    if (static_cast<int>(i) == self) {
      ChargeShootdown(drain);  // own queue: no IPI needed
    } else {
      ChargeShootdown(c.shootdown_ipi_cycles + drain);
      ctx_->counters().shootdown_ipis_sent++;
    }
    ApplyPending(state);
  }
}

size_t Mmu::PendingInvalidations(int cpu) const {
  O1_CHECK(cpu >= 0 && cpu < static_cast<int>(cpus_.size()));
  return cpus_[static_cast<size_t>(cpu)].pending.size();
}

void Mmu::InvalidateAll() {
  for (CpuState& state : cpus_) {
    state.fast.valid = false;
    state.l1_tlb.InvalidateAll();
    state.l2_tlb.InvalidateAll();
    state.range_tlb.InvalidateAll();
    state.pwc.clear();
    state.pending.clear();
  }
}

}  // namespace o1mem
