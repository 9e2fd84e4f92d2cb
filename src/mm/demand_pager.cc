#include "src/mm/demand_pager.h"

#include <algorithm>
#include <bit>
#include <utility>

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

uint32_t DemandPager::FindResident(Vaddr vaddr) const {
  const uint32_t r = Find(AlignDown(vaddr, kPageSize));
  if (r != kNil) {
    return r;
  }
  const uint32_t large = Find(AlignDown(vaddr, kLargePageSize));
  return large != kNil && records_[large].large ? large : kNil;
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
  const uint32_t r = FindResident(vaddr);
  if (r == kNil) {
    return PermissionDenied("protection fault on unknown page");
  }
  const Vaddr base = records_[r].vaddr;
  const uint64_t page_bytes = PageBytes(records_[r]);
  const Paddr frame = records_[r].frame;
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
    records_[r].frame = fresh.value();
  } else {
    // Sole owner again: just restore write permission.
    O1_RETURN_IF_ERROR(as_->page_table().MapPage(base, frame, page_bytes, vma.prot));
  }
  machine_->mmu().ShootdownPage(as_->asid(), base);
  machine_->ctx().counters().minor_faults++;
  return OkStatus();
}

Status DemandPager::ForkInto(DemandPager& child) {
  if (child.resident_anon_pages() != 0 || !child.swap_slots_.empty()) {
    return InvalidArgument("fork target pager is not fresh");
  }
  SimContext& ctx = machine_->ctx();
  // 1. Share resident anonymous pages copy-on-write, in LRU order.
  child.Reserve(resident_anon_pages());
  Status shared = ForEachResident([&](const ResidentPage& page) {
    auto vma = vmas_->Find(page.vaddr);
    O1_CHECK(vma.has_value());
    const Prot read_side = vma->prot & Prot::kReadExec;
    PageMeta& m = phys_mgr_->meta().Of(page.frame);
    m.refcount++;
    m.mapcount++;
    // Write-protect the parent's PTE and install a read-only child PTE.
    O1_RETURN_IF_ERROR(
        as_->page_table().MapPage(page.vaddr, page.frame, page.page_bytes, read_side));
    O1_RETURN_IF_ERROR(
        child.as_->page_table().MapPage(page.vaddr, page.frame, page.page_bytes, read_side));
    child.LruInsert(page.vaddr, page.frame, page.page_bytes);
    return OkStatus();
  });
  O1_RETURN_IF_ERROR(shared);
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
    // A resident page always has its leaf, so the page table alone tells.
    if (as_->page_table().Lookup(page).has_value()) {
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
    // Only an anonymous VMA's pages have records.
    const uint32_t r = piece.anonymous() ? Find(leaf.vaddr) : kNil;
    if (r == kNil) {
      // File-backed: the backing page stays in the file.
      ctx.Charge(ctx.cost().page_meta_update_cycles);  // mapcount drop in the file
      return OkStatus();
    }
    const Paddr frame = records_[r].frame;
    const bool large = records_[r].large;
    LruRemove(r);
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
      const uint32_t r = Find(leaf.vaddr);
      if (r != kNil && phys_mgr_->meta().Peek(records_[r].frame).mapcount > 1) {
        leaf_prot = prot & Prot::kReadExec;
      }
    }
    leaf.entry->prot = leaf_prot;
    ctx.Charge(ctx.cost().pte_write_cycles);
    return OkStatus();
  });
}

void DemandPager::MarkAccessed(Vaddr vaddr) {
  const uint32_t r = FindResident(vaddr);
  if (r == kNil) {
    return;
  }
  phys_mgr_->meta().Of(records_[r].frame).Set(PageFlag::kReferenced);
}

Status DemandPager::SplitLargePage(Vaddr vaddr) {
  const uint32_t r = FindResident(vaddr);
  if (r == kNil || !records_[r].large) {
    return NotFound("no resident 2 MiB page at vaddr");
  }
  const Vaddr base = records_[r].vaddr;
  const Paddr block = records_[r].frame;
  // A forked child still maps the whole block through the head's reference;
  // 512 frames of refcount 1 would let either side free it under the other.
  if (phys_mgr_->meta().Peek(block).refcount > 1) {
    return Busy("2 MiB page is COW-shared after fork");
  }
  auto vma = vmas_->Find(base);
  if (!vma.has_value()) {
    return FaultError("large page outside any VMA");
  }
  // Remove the 2 MiB leaf, then install 512 individual PTEs over the same
  // frames -- the per-page cost Linux pays when it fragments a huge page.
  O1_RETURN_IF_ERROR(as_->page_table().UnmapPage(base, kLargePageSize));
  machine_->mmu().ShootdownRange(as_->asid(), base, kLargePageSize);
  LruRemove(r);
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
  if (const uint32_t large = FindResident(vaddr); large != kNil && records_[large].large) {
    O1_RETURN_IF_ERROR(SplitLargePage(vaddr));
  }
  const Vaddr page_base = AlignDown(vaddr, kPageSize);
  const uint32_t r = Find(page_base);
  if (r == kNil) {
    return NotFound("page not resident");
  }
  const Paddr frame = records_[r].frame;
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
  LruRemove(r);
  O1_RETURN_IF_ERROR(phys_mgr_->FreeFrame(frame));
  swap_slots_.emplace(page_base, slot.value());
  return OkStatus();
}

bool DemandPager::TestAndClearReferenced(Vaddr vaddr) {
  const uint32_t r = FindResident(vaddr);
  if (r == kNil) {
    return false;
  }
  PageMeta& m = phys_mgr_->meta().Of(records_[r].frame);
  const bool was = m.Test(PageFlag::kReferenced);
  m.Clear(PageFlag::kReferenced);
  return was;
}

Status DemandPager::PinRange(Vaddr vaddr, uint64_t len) {
  // Per-page: fault in if absent, then mark unevictable. This is the linear
  // pin loop that file-only memory makes unnecessary.
  for (Vaddr page = AlignDown(vaddr, kPageSize); page < vaddr + len; page += kPageSize) {
    uint32_t r = FindResident(page);
    if (r == kNil) {
      O1_RETURN_IF_ERROR(HandleFault(page, AccessType::kRead));
      r = FindResident(page);
      if (r == kNil) {
        return FaultError("pin could not fault page in");
      }
    }
    PageMeta& m = phys_mgr_->meta().Of(records_[r].frame + (page - records_[r].vaddr));
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
  // Like munlock(2), any mapped range unpins: a page holding no pin,
  // resident or not, is skipped.
  for (Vaddr page = AlignDown(vaddr, kPageSize); page < vaddr + len; page += kPageSize) {
    const uint32_t r = FindResident(page);
    if (r == kNil) {
      if (!vmas_->Find(page).has_value()) {
        return NotFound("unpin outside any VMA");
      }
      continue;
    }
    PageMeta& m = phys_mgr_->meta().Of(records_[r].frame + (page - records_[r].vaddr));
    if (!m.Test(PageFlag::kMlocked)) {
      continue;
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
  if (FindResident(page_base) != kNil) {
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
  uint32_t r = free_records_;
  if (r != kNil) {
    free_records_ = records_[r].next;
  } else {
    O1_CHECK(records_.size() < kNil);
    r = static_cast<uint32_t>(records_.size());
    records_.emplace_back();
  }
  records_[r] =
      PageRecord{.vaddr = page_base, .frame = frame, .large = page_bytes == kLargePageSize};
  PushBack(inactive_, r);
  IndexInsert(r);
  phys_mgr_->meta().Of(frame).Set(PageFlag::kLru);
}

void DemandPager::LruRemove(uint32_t record) {
  machine_->ctx().Charge(machine_->ctx().cost().lru_link_cycles);
  PageRecord& rec = records_[record];
  Unlink(rec.active ? active_ : inactive_, record);
  IndexErase(record);
  rec.next = free_records_;
  free_records_ = record;
}

void DemandPager::RotateInactive() {
  const uint32_t r = inactive_.head;
  O1_CHECK(r != kNil);
  Unlink(inactive_, r);
  PushBack(inactive_, r);
}

void DemandPager::Promote(Vaddr vaddr) {
  const uint32_t r = Find(AlignDown(vaddr, kPageSize));
  if (r == kNil || records_[r].active) {
    return;
  }
  machine_->ctx().Charge(machine_->ctx().cost().lru_link_cycles);
  Unlink(inactive_, r);
  records_[r].active = true;
  PushBack(active_, r);
  phys_mgr_->meta().Of(records_[r].frame).Set(PageFlag::kActive);
}

void DemandPager::Demote(Vaddr vaddr) {
  const uint32_t r = Find(AlignDown(vaddr, kPageSize));
  if (r == kNil || !records_[r].active) {
    return;
  }
  machine_->ctx().Charge(machine_->ctx().cost().lru_link_cycles);
  Unlink(active_, r);
  records_[r].active = false;
  PushBack(inactive_, r);
  phys_mgr_->meta().Of(records_[r].frame).Clear(PageFlag::kActive);
}

void DemandPager::PushBack(LruList& list, uint32_t record) {
  PageRecord& rec = records_[record];
  rec.prev = list.tail;
  rec.next = kNil;
  (list.tail == kNil ? list.head : records_[list.tail].next) = record;
  list.tail = record;
  ++list.size;
}

void DemandPager::Unlink(LruList& list, uint32_t record) {
  const PageRecord& rec = records_[record];
  (rec.prev == kNil ? list.head : records_[rec.prev].next) = rec.next;
  (rec.next == kNil ? list.tail : records_[rec.next].prev) = rec.prev;
  --list.size;
}

size_t DemandPager::HomeSlot(uint32_t tag) const {
  // Fibonacci hashing: the top bits of the page number times 2^64 / phi.
  return static_cast<size_t>((uint64_t{tag} * 0x9E3779B97F4A7C15ull) >> index_shift_);
}

uint32_t DemandPager::Find(Vaddr page_base) const {
  if (index_.empty()) {
    return kNil;
  }
  const size_t mask = index_.size() - 1;
  const uint32_t tag = Tag(page_base);
  for (size_t i = HomeSlot(tag);; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.record == kNil) {
      return kNil;
    }
    if (slot.tag == tag && records_[slot.record].vaddr == page_base) {
      return slot.record;
    }
  }
}

void DemandPager::Reserve(uint64_t pages) {
  records_.reserve(pages);
  const size_t slots = std::bit_ceil(std::max<size_t>(16, 2 * pages));
  if (slots > index_.size()) {
    ResizeIndex(slots);
  }
}

void DemandPager::IndexInsert(uint32_t record) {
  // `record` is already on a list, so the index holds resident_anon_pages()
  // records once it is in.
  if (2 * resident_anon_pages() > index_.size()) {
    ResizeIndex(std::max<size_t>(16, 2 * index_.size()));
  }
  const size_t mask = index_.size() - 1;
  const Vaddr page_base = records_[record].vaddr;
  const uint32_t tag = Tag(page_base);
  size_t i = HomeSlot(tag);
  for (; index_[i].record != kNil; i = (i + 1) & mask) {
    O1_CHECK(index_[i].tag != tag || records_[index_[i].record].vaddr != page_base);
  }
  index_[i] = IndexSlot{.tag = tag, .record = record};
}

void DemandPager::IndexErase(uint32_t record) {
  const size_t mask = index_.size() - 1;
  size_t hole = HomeSlot(Tag(records_[record].vaddr));
  while (index_[hole].record != record) {
    hole = (hole + 1) & mask;
  }
  // Backward shift: a later slot of the same probe run moves into the hole
  // unless its home lies after the hole, so every lookup still reaches it
  // before an empty slot.
  for (size_t i = (hole + 1) & mask; index_[i].record != kNil; i = (i + 1) & mask) {
    if (((i - HomeSlot(index_[i].tag)) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole].record = kNil;
}

void DemandPager::ResizeIndex(size_t slots) {
  std::vector<IndexSlot> old = std::exchange(index_, std::vector<IndexSlot>(slots));
  index_shift_ = 64 - std::countr_zero(slots);
  const size_t mask = slots - 1;
  for (const IndexSlot& slot : old) {
    if (slot.record == kNil) {
      continue;
    }
    size_t i = HomeSlot(slot.tag);
    while (index_[i].record != kNil) {
      i = (i + 1) & mask;
    }
    index_[i] = slot;
  }
}

}  // namespace o1mem
