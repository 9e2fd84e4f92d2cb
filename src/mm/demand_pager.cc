#include "src/mm/demand_pager.h"

#include "src/obs/span.h"

namespace o1mem {

DemandPager::DemandPager(Machine* machine, PhysManager* phys_mgr, SwapDevice* swap,
                         AddressSpace* as, VmaTree* vmas)
    : machine_(machine), phys_mgr_(phys_mgr), swap_(swap), as_(as), vmas_(vmas) {
  O1_CHECK(machine != nullptr && phys_mgr != nullptr && as != nullptr && vmas != nullptr);
  as_->set_fault_handler(this);
}

DemandPager::~DemandPager() {
  if (as_->fault_handler() == this) {
    as_->set_fault_handler(nullptr);
  }
}

std::unordered_map<Vaddr, DemandPager::PageState>::iterator DemandPager::FindResident(
    Vaddr vaddr) {
  auto it = pages_.find(AlignDown(vaddr, kPageSize));
  if (it != pages_.end()) {
    return it;
  }
  it = pages_.find(AlignDown(vaddr, kLargePageSize));
  if (it != pages_.end() && it->second.page_bytes == kLargePageSize) {
    return it;
  }
  return pages_.end();
}

Status DemandPager::HandleFault(Vaddr vaddr, AccessType type) {
  SimContext& ctx = machine_->ctx();
  ObsSpan span(ctx, TraceKind::kFault, kPageSize);
  ctx.Charge(ctx.cost().fault_handler_base_cycles);
  auto vma = vmas_->Find(vaddr);
  if (!vma.has_value()) {
    return FaultError("fault outside any VMA");
  }
  if (!HasProt(vma->prot, RequiredProt(type))) {
    return PermissionDenied("fault access exceeds VMA protection");
  }
  const Vaddr page_base = AlignDown(vaddr, kPageSize);
  // A translation already exists: this is a protection fault (COW break or
  // a genuine violation).
  if (as_->page_table().Lookup(page_base).has_value()) {
    return ResolveProtectionFault(*vma, vaddr, type);
  }
  // userfaultfd-like delegation: bounce to the registered user handler
  // before the kernel resolves anything.
  if (!userfault_ranges_.empty()) {
    auto range = userfault_ranges_.upper_bound(page_base);
    if (range != userfault_ranges_.begin()) {
      --range;
      if (page_base >= range->first && page_base < range->first + range->second.first) {
        // Kernel -> user handler -> kernel round trip.
        ctx.Charge(2 * ctx.cost().syscall_cycles);
        O1_RETURN_IF_ERROR(range->second.second(page_base, type));
        if (as_->page_table().Lookup(page_base).has_value()) {
          ctx.counters().minor_faults++;
          return OkStatus();  // the handler installed the page itself
        }
      }
    }
  }
  // If the page was swapped out, this is a major fault.
  if (swap_slots_.contains(page_base)) {
    O1_RETURN_IF_ERROR(SwapInPage(*vma, page_base));
    ctx.counters().major_faults++;
    return OkStatus();
  }
  O1_RETURN_IF_ERROR(InstallPage(*vma, page_base, type));
  ctx.counters().minor_faults++;
  return OkStatus();
}

Status DemandPager::InstallPage(const Vma& vma, Vaddr page_base, AccessType type) {
  if (vma.anonymous()) {
    if (vma.large_pages) {
      return InstallAnonLargePage(vma, AlignDown(page_base, kLargePageSize));
    }
    return InstallAnonPage(vma, page_base);
  }
  return InstallFilePage(vma, page_base, type);
}

Status DemandPager::InstallAnonPage(const Vma& vma, Vaddr page_base) {
  auto frame = phys_mgr_->AllocFrame(/*zero=*/true);
  if (!frame.ok()) {
    return frame.status();
  }
  PageMeta& m = phys_mgr_->meta().Of(frame.value());
  m.Set(PageFlag::kSwapBacked);
  m.Set(PageFlag::kReferenced);
  m.Set(PageFlag::kUptodate);
  m.mapcount = 1;
  O1_RETURN_IF_ERROR(
      as_->page_table().MapPage(page_base, frame.value(), kPageSize, vma.prot));
  LruInsert(page_base, frame.value(), kPageSize);
  return OkStatus();
}

Status DemandPager::InstallAnonLargePage(const Vma& vma, Vaddr page_base) {
  if (!IsAligned(vma.start, kLargePageSize) || page_base < vma.start ||
      page_base + kLargePageSize > vma.end) {
    // Alignment restrictions of large pages (Sec. 3): fall back to 4 KiB.
    return InstallAnonPage(vma, AlignDown(page_base, kPageSize));
  }
  auto block = phys_mgr_->AllocContiguous(/*order=*/9);  // 2 MiB
  if (!block.ok()) {
    return block.status();
  }
  O1_RETURN_IF_ERROR(machine_->phys().Zero(block.value(), kLargePageSize));
  PageMeta& m = phys_mgr_->meta().Of(block.value());
  m.Set(PageFlag::kHead);
  m.Set(PageFlag::kSwapBacked);
  m.Set(PageFlag::kReferenced);
  m.Set(PageFlag::kUptodate);
  m.order = 9;
  m.refcount = 1;
  m.mapcount = 1;
  O1_RETURN_IF_ERROR(
      as_->page_table().MapPage(page_base, block.value(), kLargePageSize, vma.prot));
  LruInsert(page_base, block.value(), kLargePageSize);
  return OkStatus();
}

Status DemandPager::InstallFilePage(const Vma& vma, Vaddr page_base, AccessType type) {
  const uint64_t file_offset = vma.file_offset + (page_base - vma.start);
  auto paddr = vma.backing->GetBackingPage(file_offset, type == AccessType::kWrite);
  if (!paddr.ok()) {
    return paddr.status();
  }
  return as_->page_table().MapPage(page_base, paddr.value(), kPageSize, vma.prot);
}

Status DemandPager::SwapInPage(const Vma& vma, Vaddr page_base) {
  auto frame = phys_mgr_->AllocFrame(/*zero=*/false);
  if (!frame.ok()) {
    return frame.status();
  }
  const uint64_t slot = swap_slots_.at(page_base);
  O1_RETURN_IF_ERROR(swap_->SwapIn(slot, frame.value()));
  swap_slots_.erase(page_base);
  PageMeta& m = phys_mgr_->meta().Of(frame.value());
  m.Set(PageFlag::kSwapBacked);
  m.Set(PageFlag::kReferenced);
  m.Set(PageFlag::kUptodate);
  m.mapcount = 1;
  O1_RETURN_IF_ERROR(as_->page_table().MapPage(page_base, frame.value(), kPageSize, vma.prot));
  LruInsert(page_base, frame.value(), kPageSize);
  return OkStatus();
}

Status DemandPager::ResolveProtectionFault(const Vma& vma, Vaddr vaddr, AccessType type) {
  // The VMA permits the access (checked by the caller), so the PTE is stale
  // relative to the VMA: a COW-shared or write-protected-at-fork page.
  if (type != AccessType::kWrite || !vma.anonymous()) {
    return PermissionDenied("protection fault not resolvable");
  }
  auto it = FindResident(vaddr);
  if (it == pages_.end()) {
    return PermissionDenied("protection fault on unknown page");
  }
  const Vaddr base = it->first;
  const uint64_t page_bytes = it->second.page_bytes;
  const Paddr frame = it->second.frame;
  PageMeta& m = phys_mgr_->meta().Of(frame);
  if (m.refcount > 1) {
    // Shared: copy before write.
    auto fresh = page_bytes == kLargePageSize ? phys_mgr_->AllocContiguous(9)
                                              : phys_mgr_->AllocFrame(/*zero=*/false);
    if (!fresh.ok()) {
      return fresh.status();
    }
    O1_RETURN_IF_ERROR(machine_->phys().Copy(fresh.value(), frame, page_bytes));
    m.refcount--;
    m.mapcount--;
    PageMeta& fm = phys_mgr_->meta().Of(fresh.value());
    fm.refcount = 1;
    fm.mapcount = 1;
    fm.Set(PageFlag::kSwapBacked);
    fm.Set(PageFlag::kUptodate);
    fm.Set(PageFlag::kReferenced);
    if (page_bytes == kLargePageSize) {
      fm.Set(PageFlag::kHead);
      fm.order = 9;
    }
    O1_RETURN_IF_ERROR(as_->page_table().MapPage(base, fresh.value(), page_bytes, vma.prot));
    it->second.frame = fresh.value();
  } else {
    // Sole owner again: just restore write permission.
    O1_RETURN_IF_ERROR(as_->page_table().MapPage(base, frame, page_bytes, vma.prot));
  }
  machine_->mmu().ShootdownPage(as_->asid(), base);
  machine_->ctx().counters().minor_faults++;
  return OkStatus();
}

Status DemandPager::ForkInto(DemandPager& child) {
  if (!child.pages_.empty() || !child.swap_slots_.empty()) {
    return InvalidArgument("fork target pager is not fresh");
  }
  SimContext& ctx = machine_->ctx();
  // 1. Share resident anonymous pages copy-on-write.
  for (auto& [base, state] : pages_) {
    auto vma = vmas_->Find(base);
    O1_CHECK(vma.has_value());
    const Prot read_side = vma->prot & Prot::kReadExec;
    PageMeta& m = phys_mgr_->meta().Of(state.frame);
    m.refcount++;
    m.mapcount++;
    // Write-protect the parent's PTE and install a read-only child PTE.
    O1_RETURN_IF_ERROR(
        as_->page_table().MapPage(base, state.frame, state.page_bytes, read_side));
    O1_RETURN_IF_ERROR(
        child.as_->page_table().MapPage(base, state.frame, state.page_bytes, read_side));
    child.LruInsert(base, state.frame, state.page_bytes);
  }
  // 2. Duplicate swapped-out pages' backing slots.
  for (const auto& [base, slot] : swap_slots_) {
    auto dup = swap_->DuplicateSlot(slot);
    if (!dup.ok()) {
      return dup.status();
    }
    child.swap_slots_.emplace(base, dup.value());
  }
  // 3. Copy file-backed PTEs: file mappings stay shared (page cache / DAX).
  for (const Vma& vma : vmas_->Regions()) {
    if (vma.anonymous()) {
      continue;
    }
    Status copied = as_->page_table().ForEachLeaf(vma.start, vma.end, [&](const PtLeaf& leaf) {
      O1_RETURN_IF_ERROR(child.as_->page_table().MapPage(leaf.vaddr, leaf.entry->paddr,
                                                         kPageSize, vma.prot));
      ctx.Charge(ctx.cost().page_meta_update_cycles);  // file mapcount bump
      return OkStatus();
    });
    O1_RETURN_IF_ERROR(copied);
  }
  // The parent's cached writable translations are now stale everywhere.
  machine_->mmu().ShootdownAsid(as_->asid());
  return OkStatus();
}

Status DemandPager::Populate(const Vma& vma) {
  const uint64_t step = vma.large_pages && vma.anonymous() ? kLargePageSize : kPageSize;
  for (Vaddr page = vma.start; page < vma.end; page += step) {
    if (pages_.contains(page) || as_->page_table().Lookup(page).has_value()) {
      continue;  // already resident
    }
    if (swap_slots_.contains(page)) {
      O1_RETURN_IF_ERROR(SwapInPage(vma, page));
      continue;
    }
    O1_RETURN_IF_ERROR(InstallPage(vma, page, AccessType::kRead));
  }
  return OkStatus();
}

Status DemandPager::UnmapRange(const Vma& piece) {
  SimContext& ctx = machine_->ctx();
  PageTable& pt = as_->page_table();
  O1_RETURN_IF_ERROR(pt.ForEachLeaf(piece.start, piece.end, [&](const PtLeaf& leaf) {
    pt.UnmapLeaf(leaf);
    auto it = pages_.find(leaf.vaddr);
    if (it == pages_.end()) {
      // File-backed: the backing page stays in the file.
      ctx.Charge(ctx.cost().page_meta_update_cycles);  // mapcount drop in the file
      return OkStatus();
    }
    const Paddr frame = it->second.frame;
    const bool large = it->second.page_bytes == kLargePageSize;
    LruRemove(it);
    PageMeta& m = phys_mgr_->meta().Of(frame);
    m.mapcount--;
    if (large) {
      // Whole 2 MiB page (System::Munmap guarantees it is fully covered).
      return phys_mgr_->ReleaseContiguous(frame, 9);
    }
    // Anonymous resident page: drop this address space's reference; the
    // frame itself is freed once no forked sibling still shares it.
    if (m.Test(PageFlag::kMlocked)) {
      // Implicit munlock on unmap: drop the pin's reference too.
      m.refcount--;
      m.Clear(PageFlag::kMlocked);
      m.Clear(PageFlag::kUnevictable);
    }
    return phys_mgr_->ReleaseFrame(frame);
  }));
  for (auto slot = swap_slots_.lower_bound(piece.start);
       slot != swap_slots_.end() && slot->first < piece.end;) {
    O1_RETURN_IF_ERROR(swap_->Discard(slot->second));
    slot = swap_slots_.erase(slot);
  }
  machine_->mmu().ShootdownRange(as_->asid(), piece.start, piece.bytes());
  return OkStatus();
}

Status DemandPager::ProtectRange(Vaddr vaddr, uint64_t len, Prot prot) {
  if (!IsAligned(vaddr, kPageSize) || !IsAligned(len, kPageSize)) {
    return InvalidArgument("mprotect range not page aligned");
  }
  SimContext& ctx = machine_->ctx();
  const bool writable = HasProt(prot, Prot::kWrite);
  return as_->page_table().ForEachLeaf(vaddr, vaddr + len, [&](const PtLeaf& leaf) {
    Prot leaf_prot = prot;
    if (writable) {
      auto it = pages_.find(leaf.vaddr);
      if (it != pages_.end() && phys_mgr_->meta().Peek(it->second.frame).mapcount > 1) {
        leaf_prot = prot & Prot::kReadExec;
      }
    }
    leaf.entry->prot = leaf_prot;
    ctx.Charge(ctx.cost().pte_write_cycles);
    return OkStatus();
  });
}

void DemandPager::MarkAccessed(Vaddr vaddr) {
  auto it = FindResident(vaddr);
  if (it == pages_.end()) {
    return;
  }
  phys_mgr_->meta().Of(it->second.frame).Set(PageFlag::kReferenced);
}

Status DemandPager::SplitLargePage(Vaddr vaddr) {
  auto it = FindResident(vaddr);
  if (it == pages_.end() || it->second.page_bytes != kLargePageSize) {
    return NotFound("no resident 2 MiB page at vaddr");
  }
  const Vaddr base = it->first;
  const Paddr block = it->second.frame;
  auto vma = vmas_->Find(base);
  if (!vma.has_value()) {
    return FaultError("large page outside any VMA");
  }
  // Remove the 2 MiB leaf, then install 512 individual PTEs over the same
  // frames -- the per-page cost Linux pays when it fragments a huge page.
  O1_RETURN_IF_ERROR(as_->page_table().UnmapPage(base, kLargePageSize));
  machine_->mmu().ShootdownRange(as_->asid(), base, kLargePageSize);
  LruRemove(base);
  PageMeta& head = phys_mgr_->meta().Of(block);
  head.Clear(PageFlag::kHead);
  head.order = 0;
  for (uint64_t off = 0; off < kLargePageSize; off += kPageSize) {
    O1_RETURN_IF_ERROR(
        as_->page_table().MapPage(base + off, block + off, kPageSize, vma->prot));
    PageMeta& m = phys_mgr_->meta().Of(block + off);
    m.refcount = 1;
    m.mapcount = 1;
    m.Set(PageFlag::kSwapBacked);
    m.Set(PageFlag::kUptodate);
    LruInsert(base + off, block + off, kPageSize);
  }
  return OkStatus();
}

Status DemandPager::SwapOutPage(Vaddr vaddr) {
  {
    auto resident = FindResident(vaddr);
    if (resident != pages_.end() && resident->second.page_bytes == kLargePageSize) {
      O1_RETURN_IF_ERROR(SplitLargePage(vaddr));
    }
  }
  const Vaddr page_base = AlignDown(vaddr, kPageSize);
  auto it = pages_.find(page_base);
  if (it == pages_.end()) {
    return NotFound("page not resident");
  }
  const Paddr frame = it->second.frame;
  if (phys_mgr_->meta().Peek(frame).Test(PageFlag::kMlocked)) {
    return Busy("page is pinned (mlocked)");
  }
  if (phys_mgr_->meta().Peek(frame).refcount > 1) {
    return Busy("page is COW-shared after fork");
  }
  auto slot = swap_->SwapOut(frame);
  if (!slot.ok()) {
    return slot.status();
  }
  O1_RETURN_IF_ERROR(as_->page_table().UnmapPage(page_base, kPageSize));
  machine_->mmu().ShootdownPage(as_->asid(), page_base);
  LruRemove(page_base);
  O1_RETURN_IF_ERROR(phys_mgr_->FreeFrame(frame));
  swap_slots_.emplace(page_base, slot.value());
  return OkStatus();
}

bool DemandPager::TestAndClearReferenced(Vaddr vaddr) {
  auto it = FindResident(vaddr);
  if (it == pages_.end()) {
    return false;
  }
  PageMeta& m = phys_mgr_->meta().Of(it->second.frame);
  const bool was = m.Test(PageFlag::kReferenced);
  m.Clear(PageFlag::kReferenced);
  return was;
}

Status DemandPager::PinRange(Vaddr vaddr, uint64_t len) {
  // Per-page: fault in if absent, then mark unevictable. This is the linear
  // pin loop that file-only memory makes unnecessary.
  for (Vaddr page = AlignDown(vaddr, kPageSize); page < vaddr + len; page += kPageSize) {
    auto it = FindResident(page);
    if (it == pages_.end()) {
      O1_RETURN_IF_ERROR(HandleFault(page, AccessType::kRead));
      machine_->ctx().counters().minor_faults++;
      it = FindResident(page);
      if (it == pages_.end()) {
        return FaultError("pin could not fault page in");
      }
    }
    PageMeta& m = phys_mgr_->meta().Of(it->second.frame + (page - it->first));
    if (m.Test(PageFlag::kMlocked)) {
      continue;  // mlock(2) is idempotent: a page holds at most one pin
    }
    m.Set(PageFlag::kMlocked);
    m.Set(PageFlag::kUnevictable);
    m.refcount++;  // pin reference
  }
  return OkStatus();
}

Status DemandPager::UnpinRange(Vaddr vaddr, uint64_t len) {
  for (Vaddr page = AlignDown(vaddr, kPageSize); page < vaddr + len; page += kPageSize) {
    auto it = FindResident(page);
    if (it == pages_.end()) {
      return NotFound("unpin of non-resident page");
    }
    PageMeta& m = phys_mgr_->meta().Of(it->second.frame + (page - it->first));
    if (!m.Test(PageFlag::kMlocked)) {
      return InvalidArgument("page was not pinned");
    }
    m.Clear(PageFlag::kMlocked);
    m.Clear(PageFlag::kUnevictable);
    m.refcount--;
  }
  return OkStatus();
}

Status DemandPager::RegisterUserFaultRange(Vaddr start, uint64_t len,
                                           UserFaultCallback callback) {
  if (!IsAligned(start, kPageSize) || len == 0 || callback == nullptr) {
    return InvalidArgument("bad userfault registration");
  }
  auto next = userfault_ranges_.upper_bound(start);
  if (next != userfault_ranges_.end() && next->first < start + len) {
    return AlreadyExists("userfault range overlaps");
  }
  if (next != userfault_ranges_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.first > start) {
      return AlreadyExists("userfault range overlaps");
    }
  }
  userfault_ranges_.emplace(start, std::make_pair(len, std::move(callback)));
  return OkStatus();
}

Status DemandPager::ProvidePage(Vaddr page_base, std::span<const uint8_t> data) {
  if (!IsAligned(page_base, kPageSize) || data.size() > kPageSize) {
    return InvalidArgument("bad ProvidePage arguments");
  }
  auto vma = vmas_->Find(page_base);
  if (!vma.has_value() || !vma->anonymous()) {
    return InvalidArgument("ProvidePage outside an anonymous VMA");
  }
  if (FindResident(page_base) != pages_.end()) {
    return AlreadyExists("page already resident");
  }
  auto frame = phys_mgr_->AllocFrame(/*zero=*/data.size() < kPageSize);
  if (!frame.ok()) {
    return frame.status();
  }
  O1_RETURN_IF_ERROR(machine_->phys().Write(frame.value(), data));
  PageMeta& m = phys_mgr_->meta().Of(frame.value());
  m.Set(PageFlag::kSwapBacked);
  m.Set(PageFlag::kUptodate);
  m.Set(PageFlag::kReferenced);
  m.mapcount = 1;
  O1_RETURN_IF_ERROR(
      as_->page_table().MapPage(page_base, frame.value(), kPageSize, vma->prot));
  LruInsert(page_base, frame.value(), kPageSize);
  return OkStatus();
}

void DemandPager::LruInsert(Vaddr page_base, Paddr frame, uint64_t page_bytes) {
  SimContext& ctx = machine_->ctx();
  ctx.Charge(ctx.cost().lru_link_cycles);
  inactive_.push_back(page_base);
  PageState state;
  state.frame = frame;
  state.page_bytes = page_bytes;
  state.active = false;
  state.lru_it = std::prev(inactive_.end());
  pages_.emplace(page_base, state);
  phys_mgr_->meta().Of(frame).Set(PageFlag::kLru);
}

void DemandPager::LruRemove(Vaddr page_base) {
  auto it = pages_.find(page_base);
  if (it != pages_.end()) {
    LruRemove(it);
  }
}

void DemandPager::LruRemove(std::unordered_map<Vaddr, PageState>::iterator it) {
  machine_->ctx().Charge(machine_->ctx().cost().lru_link_cycles);
  (it->second.active ? active_ : inactive_).erase(it->second.lru_it);
  pages_.erase(it);
}

void DemandPager::Promote(Vaddr vaddr) {
  auto it = pages_.find(AlignDown(vaddr, kPageSize));
  if (it == pages_.end() || it->second.active) {
    return;
  }
  machine_->ctx().Charge(machine_->ctx().cost().lru_link_cycles);
  inactive_.erase(it->second.lru_it);
  active_.push_back(it->first);
  it->second.lru_it = std::prev(active_.end());
  it->second.active = true;
  phys_mgr_->meta().Of(it->second.frame).Set(PageFlag::kActive);
}

void DemandPager::Demote(Vaddr vaddr) {
  auto it = pages_.find(AlignDown(vaddr, kPageSize));
  if (it == pages_.end() || !it->second.active) {
    return;
  }
  machine_->ctx().Charge(machine_->ctx().cost().lru_link_cycles);
  active_.erase(it->second.lru_it);
  inactive_.push_back(it->first);
  it->second.lru_it = std::prev(inactive_.end());
  it->second.active = false;
  phys_mgr_->meta().Of(it->second.frame).Clear(PageFlag::kActive);
}

}  // namespace o1mem
