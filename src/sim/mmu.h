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
#include <list>
#include <map>
#include <span>
#include <unordered_map>
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
  // Inline wrapper below the class, like ReadVirt/WriteVirt.
  Status Touch(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type);

  // Data-moving accesses (used by examples and the OS read/write paths).
  // Defined inline below the class: the small-access fast path must flatten
  // into the caller for hot repeated accesses; everything else tail-calls
  // the general out-of-line paths.
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

  // One deferred invalidation queued on a remote CPU.
  struct PendingInval {
    Asid asid = 0;
    Vaddr vaddr = 0;
    uint64_t len = 0;
    bool whole_asid = false;
  };

  // Host-speed fast path: a single-entry cache of the last successful
  // translation on this CPU. A consecutive access inside the cached span
  // skips the TLB/range structures on the host and instead REPLAYS exactly
  // the charges and counter bumps the slow path would have produced (an L1
  // hit for page-backed spans, a miss + range-TLB hit for range-backed
  // spans). Simulated cycles and counters are bit-identical with the cache
  // off; only host work changes. See DESIGN.md §13 for the invariant
  // argument (why skipped LRU refreshes cannot change eviction victims).
  struct FastEntry {
    bool valid = false;
    // True when subsequent hits replay as L1 hits; false for range-TLB hits.
    bool page_backed = true;
    Asid asid = 0;
    Vaddr vbase = 0;
    uint64_t bytes = 0;
    Paddr pbase = 0;
    Prot prot = Prot::kNone;
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
    std::unordered_map<uint64_t, uint64_t> pwc;  // (asid,2MiB region) -> last-use tick
    std::map<uint64_t, uint64_t> pwc_by_tick;    // last-use tick -> key (LRU order)
    std::vector<PendingInval> pending;           // queued lazy invalidations
    FastEntry fast;
  };

  CpuState& cpu() { return cpus_[static_cast<size_t>(ctx_->current_cpu())]; }

  // Small-access fast path shared by Touch/ReadVirt/WriteVirt: when `len`
  // bytes at `vaddr` sit inside the current fast span, one page, and one
  // live (written) frame with no injector or shadow tracking in play
  // (PhysicalMemory::FastSpan), replays the exact slow-path charges (one
  // translation hit + the data touch) and returns the host pointer for the
  // caller to memcpy through. nullptr = take the general path.
  // `moves_data` is true for ReadVirt/WriteVirt and false for charge-only
  // Touch: only a write that actually moves bytes books NVM line-write
  // events with the fault injector. Defined inline below the class so the
  // whole chain flattens into callers.
  uint8_t* FastDataPrologue(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type,
                            bool moves_data);

  // General chunking paths behind the inline Touch/ReadVirt/WriteVirt
  // wrappers.
  Status TouchSlow(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type);
  Status ReadVirtSlow(AddressSpace& as, Vaddr vaddr, std::span<uint8_t> out);
  Status WriteVirtSlow(AddressSpace& as, Vaddr vaddr, std::span<const uint8_t> data);

  // One translation attempt with no fault handling; nullopt = no mapping.
  std::optional<TranslationInfo> TryTranslate(AddressSpace& as, Vaddr vaddr);

  // Charges the hardware page-walk cost for one walk (PWC-aware).
  void ChargeWalk(AddressSpace& as, Vaddr vaddr, int levels);

  // PWC: true (and refresh) if the 2 MiB region's upper levels are cached.
  bool PwcLookupOrInsert(Asid asid, Vaddr vaddr);

  void ChargeDataTouch(Paddr paddr, uint64_t len, AccessType type);

  // Fast-path hit: replay the slow path's charges + counters for one access
  // inside the cached span and return the translation.
  TranslationInfo ReplayFastHit(const FastEntry& fast, Vaddr vaddr);

  // Bulk fast path for Touch/ReadVirt/WriteVirt: if the cached span covers
  // [vaddr, vaddr + min(len, span)) with sufficient protection, charges the
  // exact per-page translation + data-touch sequence the loop would have
  // produced and returns the number of bytes covered (0 = take the per-page
  // loop). `*paddr_out` gets the physical start of the covered run.
  uint64_t TryBulkSpan(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type,
                       Paddr* paddr_out);

  // Charge() that also books the cycles under counters().shootdown_cycles.
  void ChargeShootdown(uint64_t cycles);

  // Applies and clears every queued invalidation of `state`.
  void ApplyPending(CpuState& state);

  // Lazy-shootdown correctness rule: if the current CPU has queued
  // invalidations touching `asid`, drain its whole queue before looking up.
  void DrainForTranslate(Asid asid);

  // Invalidates [vaddr, vaddr+len) of `asid` in one CPU's TLBs.
  static void InvalidateOn(CpuState& state, Asid asid, Vaddr vaddr, uint64_t len);

  SimContext* ctx_;
  PhysicalMemory* phys_;
  bool batched_;
  bool fastpath_;  // host fast path (O1MEM_NO_HOST_FASTPATH=1 disables)
  int pwc_entries_;
  std::vector<CpuState> cpus_;
};

inline uint8_t* Mmu::FastDataPrologue(AddressSpace& as, Vaddr vaddr, uint64_t len,
                                      AccessType type, bool moves_data) {
  if (!fastpath_ || len == 0) {
    return nullptr;
  }
  CpuState& hw = cpu();
  const FastEntry& f = hw.fast;
  // The in-page test ((vaddr % page) + len > page) also rejects any
  // len > kPageSize, so no separate length bound is needed.
  if (!f.valid || f.asid != as.asid() || vaddr < f.vbase || (vaddr - f.vbase) + len > f.bytes ||
      !HasProt(f.prot, RequiredProt(type)) || !hw.pending.empty() ||
      (vaddr & (kPageSize - 1)) + len > kPageSize) {
    return nullptr;
  }
  const Paddr pstart = f.pbase + (vaddr - f.vbase);
  uint8_t* host = phys_->FastSpan(pstart, len, type);
  if (host == nullptr) {
    return nullptr;
  }
  const bool nvm = phys_->TierOf(pstart) == MemTier::kNvm;
  if (moves_data && nvm && type == AccessType::kWrite) {
    phys_->AccountFastNvmLineWrites(pstart, len);
  }
  // Replay the general path's charges for a single in-page chunk: one
  // translation hit (TryBulkSpan's per-chunk shape) plus the data touch,
  // folded into a single Charge (addition commutes; redirect sinks add too).
  const CostModel& c = ctx_->cost();
  uint64_t cycles = 0;
  if (f.page_backed) {
    ctx_->counters().tlb_l1_hits++;
    cycles = c.tlb_l1_hit_cycles;
  } else {
    ctx_->counters().tlb_misses++;
    ctx_->counters().range_tlb_hits++;
    cycles = c.range_tlb_hit_cycles;
  }
  if (len >= kStreamingThreshold) {
    if (nvm) {
      cycles += type == AccessType::kWrite ? c.NvmWriteBulkCycles(len) : c.NvmReadBulkCycles(len);
    } else {
      cycles += c.DramBulkCycles(len);
    }
  } else {
    const uint64_t lines = (len + 63) / 64;
    cycles += lines * (nvm ? (type == AccessType::kWrite ? c.nvm_write_cycles : c.nvm_read_cycles)
                           : c.dram_access_cycles);
  }
  ctx_->Charge(cycles);
  return host;
}

inline Status Mmu::Touch(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type) {
  if (FastDataPrologue(as, vaddr, len, type, /*moves_data=*/false) != nullptr) {
    return OkStatus();
  }
  return TouchSlow(as, vaddr, len, type);
}

inline Status Mmu::ReadVirt(AddressSpace& as, Vaddr vaddr, std::span<uint8_t> out) {
  if (const uint8_t* host =
          FastDataPrologue(as, vaddr, out.size(), AccessType::kRead, /*moves_data=*/true)) {
    std::memcpy(out.data(), host, out.size());
    return OkStatus();
  }
  return ReadVirtSlow(as, vaddr, out);
}

inline Status Mmu::WriteVirt(AddressSpace& as, Vaddr vaddr, std::span<const uint8_t> data) {
  if (uint8_t* host =
          FastDataPrologue(as, vaddr, data.size(), AccessType::kWrite, /*moves_data=*/true)) {
    std::memcpy(host, data.data(), data.size());
    return OkStatus();
  }
  return WriteVirtSlow(as, vaddr, data);
}

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_MMU_H_
