// PhysicalMemory: the machine's physical address space.
//
// The address space is split into two tiers:
//   [0, dram_bytes)                        -- volatile DRAM
//   [dram_bytes, dram_bytes + nvm_bytes)   -- persistent NVM (3D XPoint-class)
//
// Contents live in host pages that PhysicalMemory recycles itself: a frame
// takes a zeroed host page on its first write and gives it back when it is
// zeroed whole or lost at a crash, so host memory follows the frames live at
// once, not every frame ever written, and a simulated machine can expose
// terabytes while benches only pay for what they keep. At destruction the
// pages, zeroed, pass on to the next instance built. Reads of frames that
// hold nothing return zeros, matching hardware that hands out zeroed lines
// after an erase.
//
// Bulk operations (Zero/Copy/Read/Write) charge the cost model's per-line
// bulk costs for the tier they touch; single-access costs on the load/store
// path are charged by the Mmu instead, so the two never double-charge.
#ifndef O1MEM_SRC_SIM_PHYS_MEM_H_
#define O1MEM_SRC_SIM_PHYS_MEM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/context.h"
#include "src/sim/fault_injector.h"
#include "src/sim/prot.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace o1mem {

class FaultInjector;

enum class MemTier : uint8_t {
  kDram,
  kNvm,
};

// How NVM stores become durable.
enum class PersistenceModel {
  // Every NVM write is durable the moment it lands (an idealized ADR-style
  // platform); Crash keeps all NVM contents. The default, and what the
  // paper implicitly assumes.
  kAutoDurable,
  // Writes sit in the (volatile) cache hierarchy until explicitly flushed
  // with FlushLines (clwb + fence, charged). Crash REVERTS unflushed NVM
  // lines to their last durable contents -- real persistent-memory
  // semantics, which the crash-consistency tests exercise.
  kExplicitFlush,
};

class PhysicalMemory {
 public:
  PhysicalMemory(SimContext* ctx, uint64_t dram_bytes, uint64_t nvm_bytes,
                 PersistenceModel persistence = PersistenceModel::kAutoDurable);

  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint64_t dram_bytes() const { return dram_bytes_; }
  uint64_t nvm_bytes() const { return nvm_bytes_; }
  uint64_t total_bytes() const { return dram_bytes_ + nvm_bytes_; }
  Paddr nvm_base() const { return dram_bytes_; }

  bool Contains(Paddr paddr, uint64_t len) const {
    return paddr + len <= total_bytes() && paddr + len >= paddr;
  }
  MemTier TierOf(Paddr paddr) const { return paddr < dram_bytes_ ? MemTier::kDram : MemTier::kNvm; }

  // Bulk data movement; charges bulk cycles for the tier(s) touched. Copy's
  // ranges must not overlap.
  Status Read(Paddr paddr, std::span<uint8_t> out);
  Status Write(Paddr paddr, std::span<const uint8_t> data);
  Status Zero(Paddr paddr, uint64_t len);
  Status Copy(Paddr dst, Paddr src, uint64_t len);

  // Tier migration transfer: Copy semantics (the source range is left
  // intact; the caller frees or repurposes it) with the read charge split at
  // the tier boundary of `src` and the write charge at the boundary of
  // `dst`, plus migration accounting (counters().tier_migrated_bytes).
  // Zero-length moves are valid no-ops.
  Status Move(Paddr dst, Paddr src, uint64_t len);

  // Uncharged data movement: used by the Mmu, which charges translation and
  // data-touch costs itself, so the two layers never double-charge.
  Status ReadUncharged(Paddr paddr, std::span<uint8_t> out);
  Status WriteUncharged(Paddr paddr, std::span<const uint8_t> data);

  // Direct host pointer for the Mmu's small-access fast path, or nullptr
  // when the general Read/WriteUncharged machinery must run instead. A
  // non-null return proves the bypass is state-identical: the injector is
  // idle for this access kind (no poison to check or heal, no armed crash
  // point -- though the NVM line-write count campaigns calibrate against is
  // still maintained), there is nothing to shadow (auto-durable mount, or
  // the span never leaves DRAM), and the span sits inside one live frame
  // (so it already has its host page, and the liveness bookkeeping the
  // bypass skips would be a no-op).
  // Header-inline: this runs once per simulated data access in hot loops.
  uint8_t* FastSpan(Paddr paddr, uint64_t len, AccessType type) {
    const bool write = type == AccessType::kWrite;
    if (injector_ != nullptr &&
        (write ? !injector_->WriteBatchSafe() : injector_->has_poison())) {
      return nullptr;
    }
    // A write that needs the durable-shadow capture (explicit-flush NVM)
    // must take the general path. The span never straddles the tier
    // boundary (single frame, page-aligned boundary), so one end test
    // decides.
    const bool nvm = paddr + len > dram_bytes_;
    if (write && nvm && persistence_ != PersistenceModel::kAutoDurable) {
      return nullptr;
    }
    if ((paddr & (kPageSize - 1)) + len > kPageSize) {
      return nullptr;
    }
    return HostAddr(paddr);
  }

  // Books the NVM line-write events for a write through a FastSpan pointer.
  // Callers that move data through a successful FastSpan(kWrite) MUST call
  // this (charge-only touches must NOT); FastSpan has already proven the
  // injector is WriteBatchSafe, so the count is all NoteNvmLineWrites would
  // do.
  void AccountFastNvmLineWrites(Paddr paddr, uint64_t len) {
    if (injector_ != nullptr) {
      injector_->AccountBatchSafeLineWrites(
          (AlignDown(paddr + len - 1, 64) - AlignDown(paddr, 64)) / 64 + 1);
    }
  }

  // Zero with no clock charge: models work done off the critical path
  // (background zeroing); the caller accounts the deferred cycles itself.
  Status ZeroUncharged(Paddr paddr, uint64_t len);

  // Uncharged byte access for checksumming / test inspection.
  uint8_t PeekByte(Paddr paddr) const;
  void PokeByte(Paddr paddr, uint8_t value);  // uncharged; tests only

  // Persistence barrier: makes [paddr, paddr+len) durable. Charges one clwb
  // per dirty line plus one fence. A no-op charge-wise for clean lines; in
  // kAutoDurable mode only the fence is charged (everything is already
  // durable).
  Status FlushLines(Paddr paddr, uint64_t len);

  // Uncharged flush for work accounted off the critical path (background
  // zeroing). Returns the number of lines made durable.
  uint64_t FlushLinesUncharged(Paddr paddr, uint64_t len);

  // Crash semantics: DRAM contents vanish, NVM survives -- except, under
  // kExplicitFlush, NVM lines written but never flushed, which revert to
  // their last durable contents.
  void DropVolatile();

  PersistenceModel persistence() const { return persistence_; }
  size_t pending_nvm_lines() const { return line_shadow_.size(); }

  // Number of live frames: 4 KiB frames that hold data the simulation wrote
  // (footprint metric). Zeroing a whole frame or losing DRAM at a crash takes
  // a frame out of the count.
  uint64_t materialized_pages() const { return materialized_; }

  // Host pages the pool has handed out: the most frames that were live at
  // once. This instance writes no other host page of the pool.
  uint64_t host_pages() const { return pool_used_; }

  // Fault-injection wiring (set by Machine; nullptr on raw instances). With
  // an injector attached, NVM writes/flushes are counted as crash-sweep
  // events, post-crash-point writes stay volatile, and reads of poisoned
  // lines return kMediaError. An idle injector changes nothing.
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  // Media-fault backdoor used by FaultInjector::FlipBit: flips one stored
  // bit in the current contents AND in the durable shadow if the line is
  // dirty, so the corruption survives both paths.
  void CorruptBit(Paddr paddr, int bit);

  // Lowest unreadable (poisoned) line overlapping the range, if any.
  // Uncharged: scrub charges its own patrol-read cycles.
  std::optional<Paddr> FindUnreadableLineUncharged(Paddr paddr, uint64_t len) const;

 private:
  // Backing store layout: the contents of live frames sit in a pool of 4 KiB
  // host pages, one MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE host
  // reservation of at least total_bytes(). The pool hands its pages out
  // densely from its bottom, so it can back every frame at once and never
  // grows. The host kernel commits and zero-fills a page on its first write,
  // so the pool's resident size is the most frames that were live at once,
  // and it takes no commit charge up front.
  //
  // The reservation outlives its instance. Destruction clears the live
  // frames, which leaves every page of the reservation zero, and parks it in
  // one process-wide slot; construction takes the parked reservation if it
  // is large enough, else maps a fresh one. The slot holds the newest
  // reservation and unmaps the one it displaces. So a System built after
  // another hands out host pages that are already resident and zero, and
  // the host faults in only pages beyond the previous instances' most frames
  // live at once; that many zeroed pages stay resident between Systems.
  //
  // A frame is live while it holds data the simulation wrote, and a frame
  // has a host page iff it is live. Each 2 MiB node with a live frame has a
  // table of 512 host page numbers, 0 for a frame that is not live. A node
  // takes a table on its first write and gives it back, all zero, when its
  // last live frame leaves; tables are recycled like pages, so they too
  // follow the live set. Construction only sizes the directory of node
  // pointers (8 bytes per 2 MiB) and touches no pool page.
  //
  // Invariant: a frame that is not live reads as zero, and a pool page that
  // backs no frame holds zeros. Three rules keep them and keep the host from
  // touching what it need not:
  //   * A frame's first write takes the page given back last (LIFO), else
  //     the next page never handed out.
  //   * Reads copy live frames and zero-fill the rest without touching the
  //     pool, so reading never-written memory takes no page.
  //   * Zeroing clears live frames only, and a whole frame it clears gives
  //     its page back, already zero. DropVolatile clears each live DRAM frame
  //     the same way.
  static constexpr uint64_t kDirShift = 9;  // 512 frames (2 MiB) per node
  static constexpr uint64_t kDirFanout = 1ull << kDirShift;
  static constexpr uint64_t kNodeShift = kDirShift + kPageShift;
  static constexpr uint64_t kNodeBytes = 1ull << kNodeShift;

  // Pool page number: page n sits at pool_ + (n - 1) * kPageSize, and 0 means
  // none. 32 bits cover 16 TiB of simulated memory.
  using HostPage = uint32_t;
  struct Node {
    std::array<HostPage, kDirFanout> page{};  // by frame within the node
    uint32_t live = 0;                        // nonzero entries
  };

  uint8_t* PageAddr(HostPage page) const {
    return pool_ + (uint64_t{page - 1} << kPageShift);
  }

  // Host address of `paddr` if its frame is live, else nullptr. One table
  // read, as FastSpan runs on every simulated data access.
  uint8_t* HostAddr(Paddr paddr) const {
    const uint64_t node_idx = paddr >> kNodeShift;
    if (node_idx >= nodes_.size() || nodes_[node_idx] == nullptr) {
      return nullptr;
    }
    const HostPage page = nodes_[node_idx]->page[(paddr >> kPageShift) & (kDirFanout - 1)];
    return page == 0 ? nullptr : PageAddr(page) + (paddr & (kPageSize - 1));
  }

  // Returns paddr's host address, first giving its frame a zeroed page if it
  // is not live.
  uint8_t* EnsureLive(Paddr paddr);

  // Takes live `frame`, whose page must already be zero, out of the live set
  // and gives its page back to the pool.
  void ReleaseLive(uint64_t frame);

  // Calls fn(at, bytes, host) on the pieces of [paddr, paddr + len) in
  // ascending order: each live frame's part alone, with `host` its host
  // address, and each maximal run of frames that are not live, inside one
  // 2 MiB node, with `host` nullptr. `fn` may release the frame it is given.
  template <typename Fn>
  void ForEachRun(Paddr paddr, uint64_t len, Fn&& fn) const;

  // Clears the live frames of [paddr, paddr + len); whole frames it clears
  // leave the live set.
  void ClearLive(Paddr paddr, uint64_t len);

  void ChargeBulk(Paddr paddr, uint64_t len, bool is_write);

  // kExplicitFlush bookkeeping: before the first write dirties a durable NVM
  // line, its durable contents are shadowed so Crash can revert. With
  // `post_trigger` set (write after an armed crash point), lines are
  // shadowed even under kAutoDurable and flagged so the crash reverts them.
  void ShadowBeforeWrite(Paddr paddr, uint64_t len, bool post_trigger = false);

  // Reports an NVM store to the injector (event counting + transient-poison
  // healing); returns true if the store lands after the armed crash point.
  bool NoteNvmWrite(Paddr paddr, uint64_t len);

  SimContext* ctx_;
  FaultInjector* injector_ = nullptr;
  uint64_t dram_bytes_;
  uint64_t nvm_bytes_;
  PersistenceModel persistence_;
  uint8_t* pool_ = nullptr;                         // the host reservation
  uint64_t reserved_bytes_ = 0;                     // its size, >= total_bytes()
  HostPage pool_used_ = 0;                          // pages handed out from the bottom
  std::vector<HostPage> free_pages_;                // zeroed pages given back, LIFO
  std::vector<std::unique_ptr<Node>> nodes_;        // indexed by frame >> kDirShift
  std::vector<std::unique_ptr<Node>> spare_nodes_;  // all-zero tables given back
  uint64_t materialized_ = 0;
  // Dirty NVM line -> last durable 64 bytes (kExplicitFlush only).
  std::unordered_map<Paddr, std::array<uint8_t, 64>> line_shadow_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_PHYS_MEM_H_
