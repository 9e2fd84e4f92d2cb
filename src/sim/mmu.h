// Mmu: the translation front-end of the simulated processor.
//
// Every virtual-memory access goes through Translate(), which models the
// hardware lookup order:
//
//   L1 TLB -> L2 TLB -> range TLB -> range-table walk -> page-table walk
//           -> (miss) OS fault handler -> retry
//
// and charges the cost model accordingly. A small page-walk cache (PWC)
// makes repeat walks within a 2 MiB region cheap, as on real CPUs. Data
// movement costs are charged here too (streaming bulk rate for >=256-byte
// runs, per-cache-line demand rate below that), so PhysicalMemory's
// *uncharged* accessors are used for the actual bytes.
//
// Touch/ReadVirt/WriteVirt have one reference path, AccessPages: for each
// page, Translate, charge the data touch, then move that page's bytes. The
// only shortcut is the inline fast-entry hit below the class, which charges
// exactly what that loop would for an in-page access the current fast entry
// covers.
//
// SMP: each simulated CPU (SimContext::current_cpu) owns a private set of
// TLBs and a private PWC, so translations hit or miss per CPU. Shootdowns
// come in two flavours:
//   * eager (default): invalidate every CPU now; with num_cpus > 1 the
//     initiator pays one IPI per page per remote CPU -- the Linux-like
//     linear cost the paper wants retired;
//   * batched + lazy (SmpConfig::batched_shootdowns): the initiator
//     invalidates locally and enqueues the range on each remote CPU; the OS
//     calls FlushPending() once per operation (one IPI per CPU with work).
//     Correctness rule: a CPU with queued invalidations for an ASID drains
//     its whole queue before translating in that ASID, so a stale entry can
//     never be served even if the flush has not happened yet.
#ifndef O1MEM_SRC_SIM_MMU_H_
#define O1MEM_SRC_SIM_MMU_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/sim/address_space.h"
#include "src/sim/phys_mem.h"
#include "src/sim/tlb.h"

namespace o1mem {

struct MmuConfig {
  int l1_tlb_entries = 64;
  int l1_tlb_ways = 4;
  int l2_tlb_entries = 1024;
  int l2_tlb_ways = 8;
  int range_tlb_entries = 32;
  int pwc_entries = 48;
};

// Outcome of one translated access, for tests and microbenches.
struct TranslationInfo {
  Paddr paddr = 0;
  Prot prot = Prot::kNone;
  enum class Source : uint8_t { kL1Tlb, kL2Tlb, kRangeTlb, kRangeTable, kPageWalk } source =
      Source::kL1Tlb;
  bool faulted = false;
};

class Mmu {
 public:
  Mmu(SimContext* ctx, PhysicalMemory* phys, const MmuConfig& config = MmuConfig());

  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  // Translates one virtual address for `type` on the current CPU, invoking
  // the address space's fault handler on a miss (at most `kMaxFaultRetries`
  // times).
  Result<TranslationInfo> Translate(AddressSpace& as, Vaddr vaddr, AccessType type);

  // Performs an access of `len` bytes at `vaddr` without moving data
  // (charges translation + data-touch costs). Spans page boundaries.
  Status Touch(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type);

  // Data-moving accesses (used by examples and the OS read/write paths).
  // Touch, ReadVirt and WriteVirt are defined inline below the class, so the
  // fast-entry hit flattens into callers' hot loops; everything else calls
  // the out-of-line per-page path.
  Status ReadVirt(AddressSpace& as, Vaddr vaddr, std::span<uint8_t> out);
  Status WriteVirt(AddressSpace& as, Vaddr vaddr, std::span<const uint8_t> data);

  // TLB maintenance: the OS calls these after unmapping/protecting. In
  // batched mode they only invalidate the initiating CPU and queue the rest;
  // the OS pairs them with one FlushPending() per operation.
  void ShootdownPage(Asid asid, Vaddr vaddr);
  void ShootdownRange(Asid asid, Vaddr vaddr, uint64_t len);
  void ShootdownAsid(Asid asid);

  // Sends the deferred invalidations of batched mode: one IPI per CPU with a
  // non-empty queue (drain on the initiator is free of the IPI). No-op in
  // eager mode or when nothing is pending.
  void FlushPending();

  // Number of queued-but-unflushed invalidations on `cpu` (tests).
  size_t PendingInvalidations(int cpu) const;

  void InvalidateAll();  // e.g. on simulated power failure

  PhysicalMemory& phys() { return *phys_; }

 private:
  static constexpr int kMaxFaultRetries = 2;
  // Accesses at least this long are charged at the streaming (bulk) rate;
  // the hardware prefetcher hides latency on longer runs.
  static constexpr uint64_t kStreamingThreshold = 256;

  // One invalidation: a range of one ASID, or the whole ASID. Eager
  // shootdowns apply it to every CPU; batched ones queue it on the remotes.
  struct PendingInval {
    Asid asid = 0;
    Vaddr vaddr = 0;
    uint64_t len = 0;
    bool whole_asid = false;
  };

  // Host-speed fast path: a single-entry cache of the last successful
  // translation on this CPU. An access it covers skips the TLB/range
  // structures on the host and instead REPLAYS exactly the charges and
  // counter bumps the lookup would have produced (FastHitCycles). Simulated
  // cycles and counters are bit-identical with the cache off; only host
  // work changes. See DESIGN.md §13.2 for the invariant argument (why
  // skipped LRU refreshes cannot change eviction victims).
  struct FastEntry {
    bool valid = false;
    // True when hits replay as L1 hits; false for range-TLB hits.
    bool page_backed = true;
    Asid asid = 0;
    Vaddr vbase = 0;
    uint64_t bytes = 0;
    Paddr pbase = 0;
    Prot prot = Prot::kNone;
  };

  // One page-walk-cache tag: (asid, 2 MiB region) and its last-use tick.
  struct PwcSlot {
    uint64_t key = 0;
    uint64_t tick = 0;
  };

  // Translation state owned by one simulated CPU.
  struct CpuState {
    explicit CpuState(const MmuConfig& config)
        : l1_tlb(config.l1_tlb_entries, config.l1_tlb_ways),
          l2_tlb(config.l2_tlb_entries, config.l2_tlb_ways),
          range_tlb(config.range_tlb_entries) {}
    Tlb l1_tlb;
    Tlb l2_tlb;
    RangeTlb range_tlb;
    uint64_t pwc_tick = 0;
    std::vector<PwcSlot> pwc;           // at most pwc_entries, LRU by tick
    std::vector<PendingInval> pending;  // queued lazy invalidations
    FastEntry fast;
  };

  CpuState& cpu() { return cpus_[static_cast<size_t>(ctx_->current_cpu())]; }

  // The current CPU's fast entry if it may stand in for a lookup of `vaddr`
  // for `type`, else nullptr. It may when the fast path is on, the entry is
  // valid for this ASID, covers `vaddr` with the protection `type` needs,
  // and no invalidation is queued (DrainForTranslate would charge one).
  const FastEntry* FastEntryFor(const AddressSpace& as, Vaddr vaddr, AccessType type) {
    const CpuState& hw = cpu();
    const FastEntry& f = hw.fast;
    const bool hit = fastpath_ && f.valid && f.asid == as.asid() && vaddr >= f.vbase &&
                     vaddr - f.vbase < f.bytes && HasProt(f.prot, RequiredProt(type)) &&
                     hw.pending.empty();
    return hit ? &f : nullptr;
  }

  // Books the counters of one fast-entry hit and returns its cycles: an L1
  // hit for a page-backed span, an L1+L2 miss then a range-TLB hit for a
  // range-backed one (range entries never enter the page TLBs).
  uint64_t FastHitCycles(const FastEntry& f) {
    EventCounters& n = ctx_->counters();
    if (f.page_backed) {
      n.tlb_l1_hits++;
      return ctx_->cost().tlb_l1_hit_cycles;
    }
    n.tlb_misses++;
    n.range_tlb_hits++;
    return ctx_->cost().range_tlb_hit_cycles;
  }

  // Cycles to touch `len` bytes from `paddr` on, within one page: the
  // streaming (bulk) rate from kStreamingThreshold bytes, the per-line
  // demand rate below it, both for `paddr`'s tier.
  uint64_t DataTouchCycles(Paddr paddr, uint64_t len, AccessType type) const {
    const CostModel& c = ctx_->cost();
    const bool nvm = phys_->TierOf(paddr) == MemTier::kNvm;
    const bool write = type == AccessType::kWrite;
    if (len >= kStreamingThreshold) {
      return !nvm ? c.DramBulkCycles(len)
                  : (write ? c.NvmWriteBulkCycles(len) : c.NvmReadBulkCycles(len));
    }
    return (len + 63) / 64 *
           (!nvm ? c.dram_access_cycles : (write ? c.nvm_write_cycles : c.nvm_read_cycles));
  }

  // The inline hit: if the fast entry covers an in-page access of `len`
  // bytes at `vaddr`, charges one hit plus the data touch in one Charge
  // (addition commutes; redirect sinks add too), sets `*paddr` and returns
  // true. Charging comes before any byte moves, as in AccessPages.
  bool InlineHit(const AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type,
                 Paddr* paddr) {
    const FastEntry* f = FastEntryFor(as, vaddr, type);
    if (f == nullptr || len == 0 || (vaddr & (kPageSize - 1)) + len > kPageSize) {
      return false;
    }
    *paddr = f->pbase + (vaddr - f->vbase);
    ctx_->Charge(FastHitCycles(*f) + DataTouchCycles(*paddr, len, type));
    return true;
  }

  // The reference path behind Touch/ReadVirt/WriteVirt: for each page of
  // [vaddr, vaddr + len), Translate, charge the data touch, then move that
  // page's bytes -- into `out` for a read, from `data` for a write, none
  // when both are null (Touch).
  Status AccessPages(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type,
                     uint8_t* out, const uint8_t* data);

  // One translation attempt with no fault handling; nullopt = no mapping.
  std::optional<TranslationInfo> TryTranslate(AddressSpace& as, Vaddr vaddr);

  // Charges the hardware page-walk cost for one walk (PWC-aware).
  void ChargeWalk(AddressSpace& as, Vaddr vaddr, int levels);

  // PWC: true (and refresh) if the 2 MiB region's upper levels are cached.
  bool PwcLookupOrInsert(Asid asid, Vaddr vaddr);

  // Charge() that also books the cycles under counters().shootdown_cycles.
  void ChargeShootdown(uint64_t cycles);

  // The body of every shootdown: eager, `inval` is applied on every CPU and
  // the initiator sends `ipis_per_remote` IPIs to each other CPU; batched,
  // it is applied here and queued on the others.
  void Shootdown(const PendingInval& inval, uint64_t ipis_per_remote);

  // Applies and clears every queued invalidation of `state`.
  static void ApplyPending(CpuState& state);

  // Lazy-shootdown correctness rule: if the current CPU has queued
  // invalidations touching `asid`, drain its whole queue before looking up.
  void DrainForTranslate(Asid asid);

  // Applies `inval` to one CPU's TLBs and drops its fast entry.
  static void InvalidateOn(CpuState& state, const PendingInval& inval);

  SimContext* ctx_;
  PhysicalMemory* phys_;
  bool batched_;
  bool fastpath_;  // host fast path (O1MEM_NO_HOST_FASTPATH=1 disables)
  int pwc_entries_;
  std::vector<CpuState> cpus_;
};

inline Status Mmu::Touch(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type) {
  Paddr paddr = 0;
  if (InlineHit(as, vaddr, len, type, &paddr)) {
    return OkStatus();
  }
  return AccessPages(as, vaddr, len, type, nullptr, nullptr);
}

inline Status Mmu::ReadVirt(AddressSpace& as, Vaddr vaddr, std::span<uint8_t> out) {
  Paddr paddr = 0;
  if (!InlineHit(as, vaddr, out.size(), AccessType::kRead, &paddr)) {
    return AccessPages(as, vaddr, out.size(), AccessType::kRead, out.data(), nullptr);
  }
  if (const uint8_t* host = phys_->FastSpan(paddr, out.size(), AccessType::kRead)) {
    std::memcpy(out.data(), host, out.size());
    return OkStatus();
  }
  return phys_->ReadUncharged(paddr, out);
}

inline Status Mmu::WriteVirt(AddressSpace& as, Vaddr vaddr, std::span<const uint8_t> data) {
  Paddr paddr = 0;
  if (!InlineHit(as, vaddr, data.size(), AccessType::kWrite, &paddr)) {
    return AccessPages(as, vaddr, data.size(), AccessType::kWrite, nullptr, data.data());
  }
  if (uint8_t* host = phys_->FastSpan(paddr, data.size(), AccessType::kWrite)) {
    // WriteUncharged books its own NVM line writes; a write through the
    // pointer must book them here.
    if (phys_->TierOf(paddr) == MemTier::kNvm) {
      phys_->AccountFastNvmLineWrites(paddr, data.size());
    }
    std::memcpy(host, data.data(), data.size());
    return OkStatus();
  }
  return phys_->WriteUncharged(paddr, data);
}

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_MMU_H_
