// DemandPager: the baseline kernel's per-process paging engine.
//
// This is the machinery the paper wants to retire: every page is faulted in
// or populated individually, every page gets struct-page bookkeeping and LRU
// linkage, and reclaim scans pages one at a time. The file-only memory
// manager (src/fom) replaces all of it with whole-file operations.
//
// Responsibilities:
//   * resolve translation faults against the VMA tree (anonymous + file)
//   * MAP_POPULATE: pre-fill page tables at mmap time, page by page
//   * per-page unmap with TLB shootdown and frame release
//   * maintain anonymous-page LRU lists + reverse map for the reclaimers
//   * swap in/out cooperation with SwapDevice
//
// The simulated kernel pays for that bookkeeping page by page; the host does
// not allocate for it. Each resident anonymous page is one record in a table
// the pager recycles, and the two LRU lists are threaded through the records
// by index. The page table is the index: each anonymous leaf names its record
// (PtEntry::record) from install until the leaf is cleared; no other leaf
// names one.
#ifndef O1MEM_SRC_MM_DEMAND_PAGER_H_
#define O1MEM_SRC_MM_DEMAND_PAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "src/mm/phys_manager.h"
#include "src/mm/swap.h"
#include "src/mm/vma.h"
#include "src/sim/machine.h"

namespace o1mem {

class DemandPager : public FaultHandler {
 public:
  DemandPager(Machine* machine, PhysManager* phys_mgr, SwapDevice* swap, AddressSpace* as,
              VmaTree* vmas);
  ~DemandPager() override;

  DemandPager(const DemandPager&) = delete;
  DemandPager& operator=(const DemandPager&) = delete;

  // FaultHandler: trap cost was charged by the Mmu; this charges the kernel
  // handler path and installs one page. Write faults on pages shared after
  // fork() break copy-on-write here.
  Status HandleFault(Vaddr vaddr, AccessType type) override;

  // fork(): shares every resident anonymous page with `child` copy-on-write
  // (write-protect both sides, bump frame refcounts), duplicates swap slots,
  // and copies file-backed PTEs (file mappings are shared). Per-page work by
  // nature -- one of the linear costs the abl_fork benchmark prices -- but
  // only over pages that are present or swapped out. The pages are shared in
  // this pager's LRU order (ForEachResident), so the child's inactive list
  // starts as the parent's inactive list followed by its active list.
  // The caller must have copied the VMA tree into child->vmas_ already.
  Status ForkInto(DemandPager& child);

  // MAP_POPULATE: installs every page of `vma` up front. Linear in pages --
  // deliberately; this is Figure 1a's rising line.
  Status Populate(const Vma& vma);

  // Tears down all pages of a removed VMA piece: per-page PTE removal,
  // frame/backing release, one TLB shootdown for the range. Visits present
  // leaves and swap slots only, never every 4 KiB of the piece.
  Status UnmapRange(const Vma& piece);

  // mprotect's PTE pass: rewrites every present leaf overlapping
  // [vaddr, vaddr+len) to `prot`, one PTE store each. An anonymous page still
  // mapped by a forked sibling (mapcount > 1) keeps write cleared, so the
  // next write breaks copy-on-write instead of writing the shared frame.
  Status ProtectRange(Vaddr vaddr, uint64_t len, Prot prot);

  // Marks the page containing `vaddr` referenced (accessed-bit emulation for
  // reclaim experiments).
  void MarkAccessed(Vaddr vaddr);

  // --- Reclaimer interface ---------------------------------------------

  // A resident anonymous page, as ForEachResident reports it.
  struct ResidentPage {
    Vaddr vaddr;
    Paddr frame;
    uint64_t page_bytes;  // 4 KiB or 2 MiB
    bool active;          // on the active list
    bool pinned;          // mlocked through this pager
    uint32_t record;      // the record the page's leaf names (RecordOf)
  };

  // The record a page-table leaf names, kNil when it names none.
  static uint32_t RecordOf(const PtEntry& leaf) { return leaf.record - 1; }  // 0 wraps to kNil

  // Evicts the anonymous page at `vaddr` to swap: unmaps, shoots down,
  // writes to the swap device, frees the frame. A 2 MiB page is first SPLIT
  // into 4 KiB pages (Sec. 3: "2MB pages are expensive to swap and Linux
  // instead fragments them into 4KB pages"), then the requested 4 KiB page
  // is evicted.
  Status SwapOutPage(Vaddr vaddr);

  // Splits the resident 2 MiB page containing `vaddr` into 512 4 KiB pages
  // (per-page PTEs, per-page LRU entries). Charged per page -- the linear
  // cost the paper attributes to this fallback. kBusy while a forked child
  // or a pin holds a second reference on the head.
  Status SplitLargePage(Vaddr vaddr);

  // mlock-like pinning: faults pages in if needed and marks them unevictable
  // (per-page work, the baseline DMA-prep cost of Sec. 3.1's "memory
  // locking"). The mark is on this pager's record, so a forked child sharing
  // the frame neither inherits nor drops it; it holds one reference on the
  // frame (a 2 MiB page's head). Pinning a pinned page changes nothing, as
  // with mlock(2), so one unpin or unmap releases it. Unpin clears the mark
  // and, like munlock(2), skips pages holding no pin; only a page outside
  // every VMA fails.
  Status PinRange(Vaddr vaddr, uint64_t len);
  Status UnpinRange(Vaddr vaddr, uint64_t len);

  // userfaultfd-like delegation: faults on pages of [start, start+len) are
  // first bounced to `callback` (charged as a kernel->user->kernel round
  // trip); afterwards the kernel resolves the fault normally if the page is
  // still unmapped.
  using UserFaultCallback = std::function<Status(Vaddr page_base, AccessType type)>;
  Status RegisterUserFaultRange(Vaddr start, uint64_t len, UserFaultCallback callback);

  // UFFDIO_COPY equivalent: atomically installs one page at `page_base`
  // filled from `data` (zero-padded). Used by userfault handlers to resolve
  // their own faults with their own contents (e.g. app-level swap).
  Status ProvidePage(Vaddr page_base, std::span<const uint8_t> data);

  // Tests/clears the referenced bit of the resident page at `vaddr`.
  bool TestAndClearReferenced(Vaddr vaddr);

  // The two LRU lists, oldest first. The clock reclaimer treats the
  // inactive list as a circle; the 2Q reclaimer uses both.
  uint64_t inactive_pages() const { return inactive_.size; }
  uint64_t active_pages() const { return active_.size; }
  // The oldest page of a list that is not empty.
  Vaddr OldestInactive() const { return Oldest(inactive_); }
  Vaddr OldestActive() const { return Oldest(active_); }
  // The clock hand's step: the oldest inactive page becomes the newest.
  void RotateInactive();

  // Moves a page between lists (2Q promotions/demotions).
  void Promote(Vaddr vaddr);
  void Demote(Vaddr vaddr);

  // Visits every resident anonymous page in LRU order: the inactive list,
  // then the active list, each oldest first. `fn(const ResidentPage&)`
  // returns Status; the first error stops the walk and is returned. `fn`
  // must not install or drop pages of this pager.
  template <typename Fn>
  Status ForEachResident(Fn&& fn) const {
    for (const LruList* list : {&inactive_, &active_}) {
      for (uint32_t r = list->head; r != kNil; r = records_[r].next) {
        const PageRecord& rec = records_[r];
        O1_RETURN_IF_ERROR(
            fn(ResidentPage{rec.vaddr, rec.frame, PageBytes(rec), rec.active, rec.pinned, r}));
      }
    }
    return OkStatus();
  }

  uint64_t resident_anon_pages() const { return inactive_.size + active_.size; }
  uint64_t swapped_pages() const { return swap_slots_.size(); }

  AddressSpace& address_space() { return *as_; }
  Machine& machine() { return *machine_; }

  // No record: a leaf naming none, the end of a list or of the free list.
  static constexpr uint32_t kNil = UINT32_MAX;

 private:
  // One resident anonymous page. A record on neither LRU list is free and
  // links the free list through `next`.
  struct PageRecord {
    Vaddr vaddr = 0;
    Paddr frame = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
    bool large = false;   // a 2 MiB page
    bool active = false;  // on the active list, else on the inactive one
    bool pinned = false;  // mlocked through this pager: one reference on `frame`
  };

  // A doubly linked list of records, oldest at `head`.
  struct LruList {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint64_t size = 0;
  };

  static uint64_t PageBytes(const PageRecord& rec) {
    return rec.large ? kLargePageSize : kPageSize;
  }
  Vaddr Oldest(const LruList& list) const {
    O1_CHECK(list.head != kNil);
    return records_[list.head].vaddr;
  }

  // The record of the page, 4 KiB or 2 MiB, based exactly at `page_base`,
  // or kNil: the one its leaf names.
  uint32_t Find(Vaddr page_base) const;
  // Resident-page lookup that understands both page sizes.
  uint32_t FindResident(Vaddr vaddr) const;

  // Installs one page for `vma` at `page_base`. `from_fault` selects the
  // charged path (fault handler vs populate loop).
  Status InstallPage(const Vma& vma, Vaddr page_base, AccessType type);

  Status InstallAnonPage(const Vma& vma, Vaddr page_base);
  Status InstallAnonLargePage(const Vma& vma, Vaddr page_base);
  Status InstallFilePage(const Vma& vma, Vaddr page_base, AccessType type);
  // Reads the page of swap slot `slot` back in and drops the slot.
  Status SwapInPage(const Vma& vma, std::map<Vaddr, uint64_t>::iterator slot);
  // Resolves a write fault on a present read-only page (COW break or simple
  // write-enable after fork).
  Status ResolveProtectionFault(const Vma& vma, Vaddr vaddr, AccessType type);

  // Records a newly installed page as the newest inactive page and names
  // the record in `leaf`, the page's leaf MapPage returned; or drops a
  // page's record, whose leaf the caller has cleared. Both charge one LRU
  // link update.
  void LruInsert(PtEntry* leaf, Vaddr page_base, Paddr frame, uint64_t page_bytes);
  void LruRemove(uint32_t record);

  // Host-only list links.
  void PushBack(LruList& list, uint32_t record);
  void Unlink(LruList& list, uint32_t record);

  Machine* machine_;
  PhysManager* phys_mgr_;
  SwapDevice* swap_;
  AddressSpace* as_;
  VmaTree* vmas_;

  // Anonymous resident pages only; file pages are owned by their file.
  std::vector<PageRecord> records_;
  uint32_t free_records_ = kNil;
  LruList inactive_;
  LruList active_;
  // Userfault ranges: start -> (len, callback).
  std::map<Vaddr, std::pair<uint64_t, UserFaultCallback>> userfault_ranges_;
  // Swapped-out anon pages (they have no PTE), in address order so a range
  // teardown finds its slots with one lower_bound.
  std::map<Vaddr, uint64_t> swap_slots_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_MM_DEMAND_PAGER_H_
