#include "src/mm/reclaim.h"

namespace o1mem {

Result<ReclaimStats> ClockReclaimer::Reclaim(uint64_t target) {
  ReclaimStats stats;
  SimContext& ctx = pager_->machine().ctx();
  // Bound the sweep: at most two full revolutions of the clock, after which
  // everything had its referenced bit cleared once and the scan must yield.
  uint64_t budget = 2 * pager_->inactive_pages() + 1;
  while (stats.reclaimed < target && budget > 0 && pager_->inactive_pages() > 0) {
    --budget;
    ctx.Charge(ctx.cost().reclaim_scan_page_cycles);
    ctx.counters().pages_scanned++;
    stats.scanned++;
    const Vaddr victim = pager_->OldestInactive();
    if (pager_->TestAndClearReferenced(victim)) {
      // Second chance: rotate to the back of the clock.
      pager_->RotateInactive();
      stats.spared++;
      continue;
    }
    Status evicted = pager_->SwapOutPage(victim);
    if (evicted.code() == StatusCode::kBusy) {
      // Pinned (mlocked) or shared after fork: unevictable, rotate past it.
      // An unshared 2 MiB victim was split first, so the hand steps past
      // whatever page is oldest now.
      pager_->RotateInactive();
      stats.spared++;
      continue;
    }
    O1_RETURN_IF_ERROR(evicted);
    stats.reclaimed++;
  }
  return stats;
}

void TwoQueueReclaimer::RebalanceQueues() {
  // Keep the inactive queue at least as large as a third of the total, as
  // Linux's active/inactive balancing aims for.
  SimContext& ctx = pager_->machine().ctx();
  while (pager_->active_pages() > 0 &&
         pager_->inactive_pages() < pager_->resident_anon_pages() / 3 + 1) {
    ctx.Charge(ctx.cost().reclaim_scan_page_cycles);
    ctx.counters().pages_scanned++;
    pager_->Demote(pager_->OldestActive());
  }
}

Result<ReclaimStats> TwoQueueReclaimer::Reclaim(uint64_t target) {
  ReclaimStats stats;
  SimContext& ctx = pager_->machine().ctx();
  uint64_t budget = 2 * pager_->resident_anon_pages() + 2;
  while (stats.reclaimed < target && budget > 0) {
    --budget;
    if (pager_->inactive_pages() == 0) {
      RebalanceQueues();
      if (pager_->inactive_pages() == 0) {
        break;
      }
    }
    ctx.Charge(ctx.cost().reclaim_scan_page_cycles);
    ctx.counters().pages_scanned++;
    stats.scanned++;
    const Vaddr candidate = pager_->OldestInactive();
    if (pager_->TestAndClearReferenced(candidate)) {
      pager_->Promote(candidate);
      stats.spared++;
      continue;
    }
    Status evicted = pager_->SwapOutPage(candidate);
    if (evicted.code() == StatusCode::kBusy) {
      pager_->Promote(candidate);  // unevictable: park it on the active list
      stats.spared++;
      continue;
    }
    O1_RETURN_IF_ERROR(evicted);
    stats.reclaimed++;
  }
  return stats;
}

}  // namespace o1mem
