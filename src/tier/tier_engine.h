// TierEngine: ties the tiering subsystem together -- DAMON-style monitoring
// (AccessMonitor), promote/demote decisions (TierPolicy), and O(1)-per-extent
// migration (MigrationEngine). Owned by the System when
// MachineConfig::tier.enabled is set; completely absent otherwise, so the
// default configuration stays cycle-identical to the seed.
//
// The engine observes FOM mapping lifecycle events (FomMapObserver) to learn
// which inodes are mapped where, samples accesses fed in from the System's
// user-access paths, and on every aggregation window promotes hot NVM
// extents into the DRAM file cache and demotes cold ones back. Promotion
// never copies per page: one bulk extent copy plus one translation swap per
// mapping. Only inodes whose mappings are all kRangeTable or level-1
// kPtSplice are tiered; kPerPage/kPbm (and GiB-level splices) mark the inode
// untierable -- a documented deviation (DESIGN.md Sec. 9.5).
//
// Coherence rules enforced here:
//   * a new mapping of an inode with promoted extents first demotes them, so
//     every mapping of an inode always agrees on where its bytes live;
//   * Unmap/Protect restore the canonical (all-home) layout before the
//     FomManager tears down or rewrites its recorded entries;
//   * fd-based I/O (System read/write paths) demotes overlapping promoted
//     extents before touching the home copy;
//   * UserFlush writes dirty promoted spans back through the journaled
//     writeback protocol before the caller's own line flushes run.
//
// Degraded mode: a media error surfaced by migration -- a poisoned home
// line read during promotion, or a poisoned DRAM cache line read during
// writeback/demotion -- never propagates as a failure of the whole
// operation. The extent is quarantined instead: mappings are repointed to
// the intact NVM home, the cache copy (if any) is abandoned without
// writeback (its dirty delta is lost -- promoted dirty data sits outside
// the eADR domain, DESIGN.md Sec. 9.5/11), and the range is fenced off so
// it never re-promotes. Subsequent reads of the range are served from the
// home copy and counted as `degraded_reads`.
#ifndef O1MEM_SRC_TIER_TIER_ENGINE_H_
#define O1MEM_SRC_TIER_TIER_ENGINE_H_

#include <map>
#include <vector>

#include "src/tier/access_monitor.h"
#include "src/tier/migration_engine.h"
#include "src/tier/tier_policy.h"

namespace o1mem {

// madvise-style placement hints (System::MadviseTier).
enum class TierHint {
  kHot,   // promote now, bypassing the hysteresis (watermark still applies)
  kCold,  // write back and demote now
};

class TierEngine : public FomMapObserver {
 public:
  TierEngine(Machine* machine, PhysManager* phys_mgr, Pmfs* pmfs, FomManager* fom);

  TierEngine(const TierEngine&) = delete;
  TierEngine& operator=(const TierEngine&) = delete;

  // One monitoring interval: O(regions) sampling; on aggregation boundaries
  // also runs the policy and performs migrations (batched shootdowns are
  // flushed once at the end).
  Status Tick();

  // Fed from the System's user access paths after a successful access.
  // Host-side bookkeeping only (hardware maintains accessed/dirty state as a
  // side effect of the access itself).
  void NoteAccess(FomProcess& proc, Vaddr vaddr, uint64_t len, AccessType type);

  // Durable writeback of dirty promoted spans overlapping [vaddr, +len);
  // extents stay promoted. Called by System::UserFlush before its own line
  // flushes so msync semantics hold for cache-resident data.
  Status FlushRange(FomProcess& proc, Vaddr vaddr, uint64_t len);

  // madvise-style hint over a mapped span.
  Status Advise(FomProcess& proc, Vaddr vaddr, uint64_t len, TierHint hint);

  // fd-I/O coherence hook: demotes promoted extents overlapping a read of a
  // dirty span or any write, so the DAX file paths always see current bytes.
  Status OnFileAccess(InodeId inode, uint64_t off, uint64_t len, bool is_write);

  // Post-crash: replay the writeback staging area (see MigrationEngine).
  Status Recover() { return migration_.Recover(); }

  // Contig-area revoke callback (wired by System): a Claim() reclaimed the
  // borrowed cache extent at `base` holding one of `inode`'s promoted
  // extents. Surrenders it -- writeback first when dirty (the durability
  // invariant), then repoint home, never freeing the extent. An unreadable
  // dirty copy quarantines the range (delta lost, reads degrade to the NVM
  // home) instead of failing the claim.
  Status RevokeBorrowed(InodeId inode, Paddr base, uint64_t bytes);

  // Brownout hook (overload shedding, DESIGN.md Sec. 12): while paused,
  // Tick() keeps monitoring (heat state stays current so restore is
  // instant) but defers all optional migrations -- promotions, demotions,
  // and their writebacks. Durability is untouched: FlushRange (the
  // UserFlush/msync path for *dirty* promoted data) and coherence-driven
  // demotions (new mappings, fd I/O, unmap) still run at any level.
  void SetBrownoutPause(bool paused) { brownout_paused_ = paused; }

  // FomMapObserver:
  void OnMapped(FomProcess& proc, Vaddr vaddr) override;
  void OnUnmapping(FomProcess& proc, Vaddr vaddr) override;
  void OnProtecting(FomProcess& proc, Vaddr vaddr) override;

  // --- Metrics ------------------------------------------------------------
  size_t region_count() const { return monitor_.TotalRegions(); }
  uint64_t promoted_bytes() const;
  // Cycles spent in sampling/aggregation vs. in migrations (bench overhead
  // accounting; both are also on the simulated clock).
  uint64_t monitor_cycles() const { return monitor_.monitor_cycles(); }
  uint64_t migration_cycles() const { return migration_cycles_; }
  // Snapshot of an inode's promoted extents (tests).
  std::vector<PromotedExtent> PromotedOf(InodeId inode) const;
  // Bytes fenced off after media errors (degraded, served from NVM home).
  uint64_t quarantined_bytes() const;
  // Snapshot of an inode's quarantined ranges as (offset, bytes) (tests).
  std::vector<std::pair<uint64_t, uint64_t>> QuarantinedOf(InodeId inode) const;

 private:
  struct InodeState {
    uint64_t file_bytes = 0;  // page-aligned mapped size
    bool persistent = false;
    bool tierable = true;
    bool ptsplice = false;  // any splice mapping => 2 MiB promotion units
    std::vector<TierMappingRef> maps;
    std::map<uint64_t, PromotedExtent> promoted;  // keyed by file offset
    // Ranges fenced off after a media error (off -> bytes): never promoted
    // again, reads served degraded from the NVM home.
    std::map<uint64_t, uint64_t> quarantined;
  };

  // The mapping containing `vaddr`, or nullptr.
  static const std::pair<const Vaddr, FomProcess::Mapping>* FindMapping(const FomProcess& proc,
                                                                        Vaddr vaddr);

  // Promotion capacity/usage as the watermark sees them: the DRAM carve
  // plus whatever the contiguous area could lend (or has lent) as
  // second-class cache backing. With the area off (or in CMA-baseline
  // mode) these reduce to the carve alone -- seed behavior.
  uint64_t CacheCapacity() const;
  uint64_t CacheUsed() const;

  static bool QuarantinedOverlap(const InodeState& st, uint64_t off, uint64_t bytes);
  // Fences off [off, off+bytes): records the range and bumps the counter.
  void QuarantineRange(InodeState& st, uint64_t off, uint64_t bytes);
  // Degraded demotion of a promoted extent whose cache copy is unreadable:
  // abandon the cache (no writeback -- dirty delta lost), repoint home,
  // fence the range off.
  Status QuarantinePromoted(InodeId inode, InodeState& st, PromotedExtent& e);

  Status PromoteSpan(InodeId inode, InodeState& st, uint64_t lo, uint64_t hi);
  Status PromoteUnit(InodeId inode, InodeState& st, uint64_t off, uint64_t bytes, Paddr home,
                     bool* admitted);
  Status DemoteSpan(InodeId inode, InodeState& st, uint64_t lo, uint64_t hi);
  Status DemoteOne(InodeId inode, InodeState& st, uint64_t off);
  Status DemoteAll(InodeId inode, InodeState& st);

  Machine* machine_;
  PhysManager* phys_mgr_;
  Pmfs* pmfs_;
  FomManager* fom_;
  TierConfig config_;
  AccessMonitor monitor_;
  TierPolicy policy_;
  MigrationEngine migration_;
  std::map<InodeId, InodeState> inodes_;
  uint64_t migration_cycles_ = 0;
  bool brownout_paused_ = false;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_TIER_TIER_ENGINE_H_
