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
#ifndef O1MEM_SRC_MM_DEMAND_PAGER_H_
#define O1MEM_SRC_MM_DEMAND_PAGER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <span>
#include <unordered_map>

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
  // only over pages that are present or swapped out.
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

  // A resident anonymous page, in LRU order.
  struct ResidentPage {
    Vaddr vaddr;
    Paddr frame;
  };

  // Evicts the anonymous page at `vaddr` to swap: unmaps, shoots down,
  // writes to the swap device, frees the frame. A 2 MiB page is first SPLIT
  // into 4 KiB pages (Sec. 3: "2MB pages are expensive to swap and Linux
  // instead fragments them into 4KB pages"), then the requested 4 KiB page
  // is evicted.
  Status SwapOutPage(Vaddr vaddr);

  // Splits the resident 2 MiB page containing `vaddr` into 512 4 KiB pages
  // (per-page PTEs, per-page LRU entries). Charged per page -- the linear
  // cost the paper attributes to this fallback.
  Status SplitLargePage(Vaddr vaddr);

  // mlock-like pinning: faults pages in if needed and marks them unevictable
  // (per-page work, the baseline DMA-prep cost of Sec. 3.1's "memory
  // locking"). Pinning a pinned page changes nothing, as with mlock(2), so
  // one unpin or unmap releases it. Unpin clears the marks and, like
  // munlock(2), skips pages holding no pin; only a page outside every VMA
  // fails.
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

  // The two LRU lists (front = oldest). The clock reclaimer treats
  // `inactive` as a circular list; the 2Q reclaimer uses both.
  std::list<Vaddr>& inactive_list() { return inactive_; }
  std::list<Vaddr>& active_list() { return active_; }

  // Moves a page between lists (2Q promotions/demotions).
  void Promote(Vaddr vaddr);
  void Demote(Vaddr vaddr);

  uint64_t resident_anon_pages() const { return pages_.size(); }
  uint64_t swapped_pages() const { return swap_slots_.size(); }

  AddressSpace& address_space() { return *as_; }
  Machine& machine() { return *machine_; }

 private:
  struct PageState {
    Paddr frame = 0;
    uint64_t page_bytes = kPageSize;  // 4 KiB or 2 MiB
    bool active = false;
    std::list<Vaddr>::iterator lru_it;
  };

  // Resident-page lookup that understands both page sizes.
  std::unordered_map<Vaddr, PageState>::iterator FindResident(Vaddr vaddr);

  // Installs one page for `vma` at `page_base`. `from_fault` selects the
  // charged path (fault handler vs populate loop).
  Status InstallPage(const Vma& vma, Vaddr page_base, AccessType type);

  Status InstallAnonPage(const Vma& vma, Vaddr page_base);
  Status InstallAnonLargePage(const Vma& vma, Vaddr page_base);
  Status InstallFilePage(const Vma& vma, Vaddr page_base, AccessType type);
  Status SwapInPage(const Vma& vma, Vaddr page_base);
  // Resolves a write fault on a present read-only page (COW break or simple
  // write-enable after fork).
  Status ResolveProtectionFault(const Vma& vma, Vaddr vaddr, AccessType type);

  void LruInsert(Vaddr page_base, Paddr frame, uint64_t page_bytes);
  void LruRemove(Vaddr page_base);
  void LruRemove(std::unordered_map<Vaddr, PageState>::iterator it);

  Machine* machine_;
  PhysManager* phys_mgr_;
  SwapDevice* swap_;
  AddressSpace* as_;
  VmaTree* vmas_;

  // Anonymous resident pages only; file pages are owned by their file.
  std::unordered_map<Vaddr, PageState> pages_;
  // Userfault ranges: start -> (len, callback).
  std::map<Vaddr, std::pair<uint64_t, UserFaultCallback>> userfault_ranges_;
  // Swapped-out anon pages (they have no PTE), in address order so a range
  // teardown finds its slots with one lower_bound.
  std::map<Vaddr, uint64_t> swap_slots_;
  std::list<Vaddr> inactive_;
  std::list<Vaddr> active_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_MM_DEMAND_PAGER_H_
