// ContigAllocator: a guaranteed-contiguous physical area with discardable
// second-class backing (GCMA-style; DESIGN.md Sec. 14).
//
// PhysManager reserves the area off the top of DRAM at boot; the buddy never
// touches it, so claims cannot be blocked by unmovable kernel pages. While
// the area is unclaimed it is not wasted: lenders *borrow* extents as
// second-class backing -- discardable tmpfs/FOM file pages and the tier
// engine's clean DRAM cache copies, both of which can be taken back at any
// moment without losing data (the file contents are discardable by contract;
// the tier copy has an NVM home to repoint to).
//
// Claim(bytes) is constant worst-case time in everything except the number
// of *lender extents* overlapping the chosen window -- and those are coarse
// (whole files / whole promoted extents), so a 1 GiB claim revokes a handful
// of extents instead of migrating 262144 pages. There is no compaction scan
// and no page copy on the claim path: revocation is "drop" (discardable
// file) or "repoint to home, write back first if dirty" (tier copy).
//
// The same interface also runs a Linux-CMA/compaction-style baseline
// (ContigConfig.cma_baseline): a movable/unmovable granule map where claims
// linearly scan for a clean run, migrate occupied movable pages one by one,
// and fail outright when unmovable granules pin every candidate run. The
// A/B is the point of bench/abl_fragmentation.
//
// Determinism: victim selection is first-fit over ordered maps and the CMA
// unmovable placement is seeded -- same seed, same boot, same claims, same
// victims, cycle for cycle.
#ifndef O1MEM_SRC_CONTIG_CONTIG_ALLOCATOR_H_
#define O1MEM_SRC_CONTIG_CONTIG_ALLOCATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/contig/contig_config.h"
#include "src/sim/context.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace o1mem {

// Who borrowed an extent. Revocation differs: discardable file pages are
// dropped (re-read as holes); clean tier copies are repointed to their NVM
// home (after writeback when dirty -- the durability invariant).
enum class LenderClass : uint8_t {
  kDiscardableFile = 0,
  kTierCleanCopy = 1,
  kClassCount,
};

// One evicted lender extent, reported to Claim() callers (tests assert the
// victim list is deterministic).
struct ContigVictim {
  Paddr base = 0;
  uint64_t bytes = 0;
  LenderClass cls = LenderClass::kClassCount;
  uint64_t cookie = 0;
};

class ContigAllocator {
 public:
  // Called for each lender extent a Claim() window overlaps, before the
  // claim returns. The lender must stop using [base, base+bytes) entirely;
  // `cookie` is whatever it passed to Borrow (an inode id here). Revokers
  // must leave the system consistent even on media errors (the tier revoker
  // quarantines internally) -- a non-OK return is a contract violation.
  using RevokeFn = std::function<Status(Paddr base, uint64_t bytes, uint64_t cookie)>;

  ContigAllocator(SimContext* ctx, Paddr area_base, uint64_t area_bytes,
                  const ContigConfig& config);

  ContigAllocator(const ContigAllocator&) = delete;
  ContigAllocator& operator=(const ContigAllocator&) = delete;

  void SetRevoker(LenderClass cls, RevokeFn fn);

  // --- Lender side (second-class backing) -------------------------------

  // Borrows a free extent of `bytes` (page-granular) for second-class use.
  // Never evicts anything; kOutOfMemory when no free run is large enough.
  Result<Paddr> Borrow(uint64_t bytes, LenderClass cls, uint64_t cookie);

  // Returns a borrowed extent (by its Borrow() base) voluntarily -- the
  // lender is done with it (file destroyed, tier copy demoted).
  Status Return(Paddr base);

  // --- Claim side (first-class guaranteed allocations) ------------------

  // Claims `bytes` physically contiguous (page-granular). Constant-time
  // guarantee check first: if granting would exceed guarantee_bytes(), the
  // claim fails cleanly with zero side effects (never a partial grant).
  // Otherwise picks the first free-of-claims window, revokes exactly the
  // overlapping lender extents, and returns the base. `victims`, when
  // non-null, receives the evicted extents in revocation order.
  Result<Paddr> Claim(uint64_t bytes, std::vector<ContigVictim>* victims = nullptr);

  // Releases a claim (by its Claim() base); the window becomes lendable and
  // claimable again.
  Status Release(Paddr base);

  // --- Gauges ------------------------------------------------------------
  Paddr area_base() const { return area_base_; }
  uint64_t area_bytes() const { return area_bytes_; }
  uint64_t guarantee_bytes() const { return guarantee_bytes_; }
  uint64_t claimed_bytes() const { return claimed_bytes_; }
  uint64_t lent_bytes(LenderClass cls) const {
    return lent_bytes_[static_cast<size_t>(cls)];
  }
  uint64_t lent_bytes_total() const {
    return lent_bytes_[0] + lent_bytes_[1];
  }
  uint64_t free_bytes() const { return area_bytes_ - claimed_bytes_ - lent_bytes_total(); }
  size_t lent_regions() const { return lent_.size(); }
  bool cma_baseline() const { return cma_; }
  bool Owns(Paddr paddr) const {
    return paddr >= area_base_ && paddr - area_base_ < area_bytes_;
  }

 private:
  struct Lent {
    uint64_t bytes = 0;
    LenderClass cls = LenderClass::kClassCount;
    uint64_t cookie = 0;
  };

  // CMA-baseline granule states. Movable granules hold lender pages that a
  // claim must migrate out one page at a time; unmovable granules model
  // boot-time kernel allocations that pin the pageblock forever.
  enum class Granule : uint8_t { kFree = 0, kMovable, kUnmovable, kClaimed };

  // Coalescing insert/remove over a base->bytes free map.
  static void InsertFree(std::map<Paddr, uint64_t>& m, Paddr base, uint64_t bytes);
  static void RemoveRange(std::map<Paddr, uint64_t>& m, Paddr base, uint64_t bytes);

  // Revokes every lent extent overlapping [base, base+bytes); out-of-window
  // remainders of partially overlapped extents return to the lendable pool
  // (GCMA mode) or to kFree granules (CMA mode). Whole extents are evicted
  // -- lenders cannot keep half a borrow.
  Status RevokeOverlapping(Paddr base, uint64_t bytes, bool to_lend_free,
                           std::vector<ContigVictim>* victims);

  Result<Paddr> ClaimGcma(uint64_t bytes, std::vector<ContigVictim>* victims);
  Result<Paddr> ClaimCma(uint64_t bytes, std::vector<ContigVictim>* victims);

  SimContext* ctx_;
  const Paddr area_base_;
  const uint64_t area_bytes_;
  const uint64_t guarantee_bytes_;
  const bool cma_;
  const uint64_t granule_bytes_;

  RevokeFn revokers_[static_cast<size_t>(LenderClass::kClassCount)];

  // GCMA mode. Invariant: lend_free_ ⊆ claim_free_; lent extents are absent
  // from lend_free_ but still present in claim_free_ (a claim may take them
  // by revoking). claim_free_ = area minus claims.
  std::map<Paddr, uint64_t> claim_free_;
  std::map<Paddr, uint64_t> lend_free_;

  // CMA mode: one state per granule; used_bytes tracks lender pages that a
  // claim would have to migrate.
  std::vector<Granule> granules_;
  std::vector<uint32_t> granule_used_bytes_;

  // Both modes.
  std::map<Paddr, Lent> lent_;        // borrow base -> extent
  std::map<Paddr, uint64_t> claimed_; // claim base -> bytes
  uint64_t claimed_bytes_ = 0;
  uint64_t lent_bytes_[static_cast<size_t>(LenderClass::kClassCount)] = {0, 0};
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CONTIG_CONTIG_ALLOCATOR_H_
