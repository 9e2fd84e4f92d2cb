#include "src/mm/demand_pager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/mm/reclaim.h"
#include "src/os/system.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

class PagerTest : public ::testing::Test {
 protected:
  PagerTest()
      : machine_(MachineConfig{.dram_bytes = 32 * kMiB, .nvm_bytes = 32 * kMiB}),
        phys_mgr_(&machine_),
        swap_(&machine_.ctx(), &machine_.phys(), /*capacity_pages=*/4096),
        as_(machine_.CreateAddressSpace()),
        vmas_(&machine_.ctx()),
        pager_(&machine_, &phys_mgr_, &swap_, as_.get(), &vmas_) {}

  Status MapAnon(Vaddr start, uint64_t len, bool populate = false) {
    Vma vma{.start = start, .end = start + len, .prot = Prot::kReadWrite,
            .populate = populate};
    O1_RETURN_IF_ERROR(vmas_.Insert(vma));
    if (populate) {
      return pager_.Populate(vma);
    }
    return OkStatus();
  }

  Machine machine_;
  PhysManager phys_mgr_;
  SwapDevice swap_;
  std::unique_ptr<AddressSpace> as_;
  VmaTree vmas_;
  DemandPager pager_;
};

TEST_F(PagerTest, DemandFaultInstallsZeroedPage) {
  ASSERT_TRUE(MapAnon(kMiB, 16 * kPageSize).ok());
  std::vector<uint8_t> buf(8, 0xff);
  ASSERT_TRUE(machine_.mmu().ReadVirt(*as_, kMiB + 100, buf).ok());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(machine_.ctx().counters().minor_faults, 1u);
  EXPECT_EQ(pager_.resident_anon_pages(), 1u);
}

TEST_F(PagerTest, WriteReadRoundTripThroughFaults) {
  ASSERT_TRUE(MapAnon(kMiB, 64 * kPageSize).ok());
  std::vector<uint8_t> data(3 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 251);
  }
  ASSERT_TRUE(machine_.mmu().WriteVirt(*as_, kMiB + 512, data).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(machine_.mmu().ReadVirt(*as_, kMiB + 512, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(machine_.ctx().counters().minor_faults, 4u);  // 3 pages + boundary
}

TEST_F(PagerTest, AccessOutsideVmaIsSegv) {
  ASSERT_TRUE(MapAnon(kMiB, kPageSize).ok());
  auto r = machine_.mmu().Touch(*as_, 64 * kMiB, 1, AccessType::kRead);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(machine_.ctx().counters().segv_faults, 1u);
}

TEST_F(PagerTest, WriteToReadOnlyVmaDenied) {
  Vma vma{.start = kMiB, .end = kMiB + kPageSize, .prot = Prot::kRead};
  ASSERT_TRUE(vmas_.Insert(vma).ok());
  EXPECT_FALSE(machine_.mmu().Touch(*as_, kMiB, 1, AccessType::kWrite).ok());
  // Read still works.
  EXPECT_TRUE(machine_.mmu().Touch(*as_, kMiB, 1, AccessType::kRead).ok());
}

TEST_F(PagerTest, PopulateAvoidsLaterFaults) {
  ASSERT_TRUE(MapAnon(kMiB, 32 * kPageSize, /*populate=*/true).ok());
  EXPECT_EQ(pager_.resident_anon_pages(), 32u);
  const uint64_t faults_before = machine_.ctx().counters().minor_faults;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        machine_.mmu().Touch(*as_, kMiB + static_cast<Vaddr>(i) * kPageSize, 1,
                             AccessType::kRead).ok());
  }
  EXPECT_EQ(machine_.ctx().counters().minor_faults, faults_before);
}

TEST_F(PagerTest, PopulatePerPageIsCheaperThanFaultPerPage) {
  ASSERT_TRUE(MapAnon(kMiB, 64 * kPageSize).ok());
  ASSERT_TRUE(MapAnon(16 * kMiB, 64 * kPageSize).ok());
  // Populate path.
  const uint64_t t0 = machine_.ctx().now();
  ASSERT_TRUE(pager_.Populate(*vmas_.Find(kMiB)).ok());
  const uint64_t populate_cost = machine_.ctx().now() - t0;
  // Demand path.
  const uint64_t t1 = machine_.ctx().now();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(machine_.mmu().Touch(*as_, 16 * kMiB + static_cast<Vaddr>(i) * kPageSize, 1,
                                     AccessType::kWrite).ok());
  }
  const uint64_t demand_cost = machine_.ctx().now() - t1;
  EXPECT_GT(demand_cost, 2 * populate_cost);
}

TEST_F(PagerTest, UnmapReleasesFramesAndPtes) {
  ASSERT_TRUE(MapAnon(kMiB, 8 * kPageSize, /*populate=*/true).ok());
  const uint64_t free_before = phys_mgr_.free_bytes();
  auto removed = vmas_.RemoveRange(kMiB, 8 * kPageSize);
  ASSERT_TRUE(removed.ok());
  for (const Vma& piece : removed.value()) {
    ASSERT_TRUE(pager_.UnmapRange(piece).ok());
  }
  EXPECT_EQ(phys_mgr_.free_bytes(), free_before + 8 * kPageSize);
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  EXPECT_FALSE(machine_.mmu().Touch(*as_, kMiB, 1, AccessType::kRead).ok());
}

TEST_F(PagerTest, SwapOutThenMajorFaultRestoresContents) {
  ASSERT_TRUE(MapAnon(kMiB, 4 * kPageSize).ok());
  std::vector<uint8_t> data(64, 0x7e);
  ASSERT_TRUE(machine_.mmu().WriteVirt(*as_, kMiB, data).ok());
  ASSERT_TRUE(pager_.SwapOutPage(kMiB).ok());
  EXPECT_EQ(pager_.swapped_pages(), 1u);
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(machine_.mmu().ReadVirt(*as_, kMiB, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(machine_.ctx().counters().major_faults, 1u);
  EXPECT_EQ(pager_.swapped_pages(), 0u);
}

TEST_F(PagerTest, ClockReclaimEvictsUnreferencedFirst) {
  ASSERT_TRUE(MapAnon(kMiB, 8 * kPageSize, /*populate=*/true).ok());
  // Clear all referenced bits, then re-reference pages 0..3.
  for (int i = 0; i < 8; ++i) {
    pager_.TestAndClearReferenced(kMiB + static_cast<Vaddr>(i) * kPageSize);
  }
  for (int i = 0; i < 4; ++i) {
    pager_.MarkAccessed(kMiB + static_cast<Vaddr>(i) * kPageSize);
  }
  ClockReclaimer clock(&pager_);
  auto stats = clock.Reclaim(4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 4u);
  EXPECT_GE(stats->spared, 4u);
  // The referenced pages survived.
  for (int i = 0; i < 4; ++i) {
    const Vaddr va = kMiB + static_cast<Vaddr>(i) * kPageSize;
    EXPECT_TRUE(as_->page_table().Lookup(va).has_value()) << i;
  }
  EXPECT_EQ(pager_.swapped_pages(), 4u);
}

TEST_F(PagerTest, ClockReclaimScansMoreThanItReclaims) {
  ASSERT_TRUE(MapAnon(kMiB, 64 * kPageSize, /*populate=*/true).ok());
  ClockReclaimer clock(&pager_);
  // All pages start referenced (set at install), so the first revolution
  // only clears bits.
  auto stats = clock.Reclaim(8);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 8u);
  EXPECT_GT(stats->scanned, stats->reclaimed);
}

TEST_F(PagerTest, TwoQueuePromotesReferencedPages) {
  ASSERT_TRUE(MapAnon(kMiB, 16 * kPageSize, /*populate=*/true).ok());
  TwoQueueReclaimer two_q(&pager_);
  auto stats = two_q.Reclaim(4);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 4u);
  // Referenced-at-install pages were promoted rather than evicted on first
  // encounter.
  EXPECT_GT(pager_.active_pages(), 0u);
}

TEST_F(PagerTest, ReclaimThenTouchFaultsBackIn) {
  ASSERT_TRUE(MapAnon(kMiB, 16 * kPageSize, /*populate=*/true).ok());
  for (int i = 0; i < 16; ++i) {
    pager_.TestAndClearReferenced(kMiB + static_cast<Vaddr>(i) * kPageSize);
  }
  ClockReclaimer clock(&pager_);
  ASSERT_TRUE(clock.Reclaim(16).ok());
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  ASSERT_TRUE(machine_.mmu().Touch(*as_, kMiB + 5 * kPageSize, 1, AccessType::kRead).ok());
  EXPECT_EQ(pager_.resident_anon_pages(), 1u);
}

TEST_F(PagerTest, OutOfMemoryWhenDramExhausted) {
  // 32 MiB DRAM: populating 64 MiB of anon memory must fail with OOM.
  ASSERT_TRUE(vmas_.Insert(Vma{.start = kMiB, .end = kMiB + 64 * kMiB,
                               .prot = Prot::kReadWrite}).ok());
  Status s = pager_.Populate(*vmas_.Find(kMiB));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
}

// A forked child starts from the parent's LRU order: its inactive list is
// the parent's inactive list followed by the parent's active list, each
// oldest first. Once the parent is gone no page is shared, and clock
// reclaim in the child evicts the pages in exactly that order.
TEST_F(PagerTest, ForkedChildReclaimsInTheParentsLruOrder) {
  constexpr uint64_t kPages = 64;
  ASSERT_TRUE(MapAnon(kMiB, kPages * kPageSize, /*populate=*/true).ok());
  // Swap every page out and fault it back in a scrambled order, then
  // promote every fifth of them, last first.
  std::vector<Vaddr> inactive;
  for (uint64_t i = 0; i < kPages; ++i) {
    inactive.push_back(kMiB + (i * 37 % kPages) * kPageSize);
  }
  for (Vaddr page : inactive) {
    ASSERT_TRUE(pager_.SwapOutPage(page).ok());
  }
  for (Vaddr page : inactive) {
    ASSERT_TRUE(machine_.mmu().Touch(*as_, page, 1, AccessType::kRead).ok());
  }
  std::vector<Vaddr> active;
  for (size_t i = inactive.size(); i-- > 0;) {
    if (i % 5 == 0) {
      pager_.Promote(inactive[i]);
      active.push_back(inactive[i]);
      inactive.erase(inactive.begin() + static_cast<ptrdiff_t>(i));
    }
  }
  std::vector<Vaddr> lru_order = inactive;
  lru_order.insert(lru_order.end(), active.begin(), active.end());

  std::unique_ptr<AddressSpace> child_as = machine_.CreateAddressSpace();
  VmaTree child_vmas(&machine_.ctx());
  DemandPager child(&machine_, &phys_mgr_, &swap_, child_as.get(), &child_vmas);
  for (const Vma& vma : vmas_.Regions()) {
    ASSERT_TRUE(child_vmas.Insert(vma).ok());
  }
  ASSERT_TRUE(pager_.ForkInto(child).ok());
  // The parent exits, so every frame is the child's alone.
  for (const Vma& vma : vmas_.Regions()) {
    ASSERT_TRUE(pager_.UnmapRange(vma).ok());
  }
  machine_.mmu().FlushPending();
  EXPECT_EQ(child.inactive_pages(), kPages);
  for (Vaddr page : lru_order) {
    child.TestAndClearReferenced(page);
  }
  ClockReclaimer clock(&child);
  std::set<Vaddr> resident(lru_order.begin(), lru_order.end());
  for (Vaddr expected : lru_order) {
    auto stats = clock.Reclaim(1);
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->reclaimed, 1u);
    Vaddr evicted = 0;
    for (Vaddr page : resident) {
      if (!child_as->page_table().Lookup(page).has_value()) {
        evicted = page;
      }
    }
    ASSERT_EQ(evicted, expected);
    resident.erase(evicted);
  }
  EXPECT_EQ(child.swapped_pages(), kPages);
}

// A file's page cache for file-backed VMAs: a backing frame is allocated on
// first use and stays with the file when its mappings go.
class CacheFile : public BackingProvider {
 public:
  explicit CacheFile(PhysManager* phys) : phys_(phys) {}

  Result<Paddr> GetBackingPage(uint64_t file_offset, bool /*for_write*/) override {
    if (auto it = pages_.find(file_offset); it != pages_.end()) {
      return it->second;
    }
    O1_ASSIGN_OR_RETURN(Paddr frame, phys_->AllocFrame(/*zero=*/true));
    pages_.emplace(file_offset, frame);
    return frame;
  }
  uint64_t backing_id() const override { return 1; }

 private:
  PhysManager* phys_;
  std::map<uint64_t, Paddr> pages_;
};

// Teardown over one anonymous VMA that holds every kind of page -- an
// unpopulated hole, a 2 MiB page, then 4 KiB pages (a split 2 MiB page)
// among them swapped-out ones, the VMA's last page included, and an
// mlocked one -- next to a populated file-backed VMA.
class TeardownTest : public PagerTest {
 protected:
  static constexpr Vaddr kAnon = 4 * kMiB;
  static constexpr uint64_t kAnonBytes = 3 * kLargePageSize;
  static constexpr Vaddr kLarge = kAnon + kLargePageSize;
  static constexpr Vaddr kSplit = kAnon + 2 * kLargePageSize;
  static constexpr Vaddr kPinned = kSplit + 100 * kPageSize;
  static constexpr Vaddr kFile = 64 * kMiB;
  static constexpr uint64_t kFilePages = 16;

  TeardownTest() : file_(&phys_mgr_) {}

  void SetUp() override {
    free_at_start_ = phys_mgr_.free_bytes();
    ASSERT_TRUE(vmas_.Insert(Vma{.start = kAnon, .end = kAnon + kAnonBytes,
                                 .prot = Prot::kReadWrite, .large_pages = true})
                    .ok());
    ASSERT_TRUE(machine_.mmu().Touch(*as_, kLarge, 1, AccessType::kWrite).ok());
    ASSERT_TRUE(machine_.mmu().Touch(*as_, kSplit, 1, AccessType::kWrite).ok());
    ASSERT_TRUE(pager_.SplitLargePage(kSplit).ok());
    ASSERT_TRUE(pager_.SwapOutPage(kSplit + 5 * kPageSize).ok());
    ASSERT_TRUE(pager_.SwapOutPage(kAnon + kAnonBytes - kPageSize).ok());
    ASSERT_TRUE(pager_.PinRange(kPinned, kPageSize).ok());
    pinned_frame_ = as_->page_table().Lookup(kPinned)->paddr;
    const Vma file{.start = kFile, .end = kFile + kFilePages * kPageSize,
                   .prot = Prot::kReadWrite, .backing = &file_};
    ASSERT_TRUE(vmas_.Insert(file).ok());
    ASSERT_TRUE(pager_.Populate(file).ok());
    ASSERT_EQ(pager_.resident_anon_pages(), 1u + 512u - 2u);
    ASSERT_EQ(pager_.swapped_pages(), 2u);
    ASSERT_EQ(swap_.used_slots(), 2u);
    ASSERT_EQ(PinnedRefcount(), 2);  // one mapping plus the pin
  }

  int32_t PinnedRefcount() { return phys_mgr_.meta().Peek(pinned_frame_).refcount; }

  // What System::Exit does to a pager: every VMA torn down in address order.
  static void ExitPager(DemandPager& pager, VmaTree& vmas, Machine& machine) {
    for (const Vma& vma : vmas.Regions()) {
      ASSERT_TRUE(pager.UnmapRange(vma).ok());
    }
    machine.mmu().FlushPending();
  }

  CacheFile file_;
  uint64_t free_at_start_ = 0;
  Paddr pinned_frame_ = 0;
};

TEST_F(TeardownTest, MunmapReleasesEveryKindOfPage) {
  for (Vaddr start : {kAnon, kFile}) {
    const uint64_t bytes = start == kAnon ? kAnonBytes : kFilePages * kPageSize;
    auto removed = vmas_.RemoveRange(start, bytes);
    ASSERT_TRUE(removed.ok());
    for (const Vma& piece : removed.value()) {
      ASSERT_TRUE(pager_.UnmapRange(piece).ok());
    }
  }
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  EXPECT_EQ(pager_.swapped_pages(), 0u);
  EXPECT_EQ(swap_.used_slots(), 0u);
  EXPECT_EQ(PinnedRefcount(), 0);  // implicit munlock, then freed
  // Only the file's cached pages stay allocated.
  EXPECT_EQ(phys_mgr_.free_bytes(), free_at_start_ - kFilePages * kPageSize);
  EXPECT_FALSE(as_->page_table().Lookup(kLarge).has_value());
  EXPECT_FALSE(as_->page_table().Lookup(kSplit).has_value());
  EXPECT_FALSE(as_->page_table().Lookup(kFile).has_value());
}

TEST_F(TeardownTest, ForkExitThenExitReleaseEveryKindOfPage) {
  const uint64_t resident = pager_.resident_anon_pages();
  const uint64_t free_before_fork = phys_mgr_.free_bytes();
  {
    std::unique_ptr<AddressSpace> child_as = machine_.CreateAddressSpace();
    VmaTree child_vmas(&machine_.ctx());
    DemandPager child(&machine_, &phys_mgr_, &swap_, child_as.get(), &child_vmas);
    for (const Vma& vma : vmas_.Regions()) {
      ASSERT_TRUE(child_vmas.Insert(vma).ok());
    }
    ASSERT_TRUE(pager_.ForkInto(child).ok());
    machine_.mmu().FlushPending();
    EXPECT_EQ(child.resident_anon_pages(), resident);
    EXPECT_EQ(child.swapped_pages(), 2u);
    EXPECT_EQ(swap_.used_slots(), 4u);
    ExitPager(child, child_vmas, machine_);
    EXPECT_EQ(child.resident_anon_pages(), 0u);
    EXPECT_EQ(child.swapped_pages(), 0u);
  }
  EXPECT_EQ(pager_.resident_anon_pages(), resident);
  EXPECT_EQ(pager_.swapped_pages(), 2u);
  EXPECT_EQ(swap_.used_slots(), 2u);
  EXPECT_EQ(phys_mgr_.free_bytes(), free_before_fork);
  // The mlock flag lives on the frame the child shared, so the child's exit
  // took the implicit munlock -- and the pin's reference -- with it.
  EXPECT_EQ(PinnedRefcount(), 1);

  ExitPager(pager_, vmas_, machine_);
  EXPECT_EQ(pager_.resident_anon_pages(), 0u);
  EXPECT_EQ(pager_.swapped_pages(), 0u);
  EXPECT_EQ(swap_.used_slots(), 0u);
  EXPECT_EQ(PinnedRefcount(), 0);
  EXPECT_EQ(phys_mgr_.free_bytes(), free_at_start_ - kFilePages * kPageSize);
}

// The pager's LRU lists as std::list, the way the pager kept them before
// its records were threaded through a table. The op mix below checks the
// table, its index and both reclaimers against it.
class LruModel {
 public:
  explicit LruModel(const PageMetaArray& meta) : meta_(meta) {}

  // Adopts what an op other than reclaim did: a page the pager dropped
  // leaves its list, a page it installed joins the inactive list in address
  // order, and a page that broke copy-on-write takes its new frame.
  void Sync(const DemandPager& pager) {
    std::map<Vaddr, DemandPager::ResidentPage> resident;
    (void)pager.ForEachResident([&](const DemandPager::ResidentPage& page) {
      resident.emplace(page.vaddr, page);
      return OkStatus();
    });
    for (auto it = pages_.begin(); it != pages_.end();) {
      auto now = resident.find(it->first);
      if (now == resident.end() || (now->second.page_bytes == kLargePageSize) != it->second.large) {
        lists_[it->second.active].erase(it->second.it);
        it = pages_.erase(it);
      } else {
        it->second.frame = now->second.frame;
        ++it;
      }
    }
    for (const auto& [vaddr, page] : resident) {
      if (!pages_.contains(vaddr)) {
        Append(vaddr, page.frame, page.page_bytes == kLargePageSize);
      }
    }
  }

  // The pager's lists must hold the model's pages in the model's order.
  void ExpectSameOrder(const DemandPager& pager) const {
    std::vector<std::pair<Vaddr, bool>> got;
    (void)pager.ForEachResident([&](const DemandPager::ResidentPage& page) {
      got.emplace_back(page.vaddr, page.active);
      return OkStatus();
    });
    std::vector<std::pair<Vaddr, bool>> want;
    for (bool active : {false, true}) {
      for (Vaddr vaddr : lists_[active]) {
        want.emplace_back(vaddr, active);
      }
    }
    ASSERT_EQ(got, want);
  }

  // ClockReclaimer and TwoQueueReclaimer over the model. They read each
  // frame's flags as they stand before the real reclaim runs.
  ReclaimStats Clock(uint64_t target) {
    StartReclaim();
    ReclaimStats stats;
    uint64_t budget = 2 * lists_[0].size() + 1;
    while (stats.reclaimed < target && budget > 0 && !lists_[0].empty()) {
      --budget;
      stats.scanned++;
      const Vaddr victim = lists_[0].front();
      if (TestAndClearReferenced(victim) || !SwapOut(victim)) {
        lists_[0].splice(lists_[0].end(), lists_[0], lists_[0].begin());
        stats.spared++;
        continue;
      }
      stats.reclaimed++;
    }
    return stats;
  }

  ReclaimStats TwoQueue(uint64_t target) {
    StartReclaim();
    ReclaimStats stats;
    uint64_t budget = 2 * pages_.size() + 2;
    while (stats.reclaimed < target && budget > 0) {
      --budget;
      if (lists_[0].empty()) {
        while (!lists_[1].empty() && lists_[0].size() < pages_.size() / 3 + 1) {
          Move(lists_[1].front(), /*active=*/false);
        }
        if (lists_[0].empty()) {
          break;
        }
      }
      stats.scanned++;
      const Vaddr candidate = lists_[0].front();
      if (TestAndClearReferenced(candidate) || !SwapOut(candidate)) {
        if (auto it = pages_.find(candidate); it != pages_.end() && !it->second.active) {
          Move(candidate, /*active=*/true);
        }
        stats.spared++;
        continue;
      }
      stats.reclaimed++;
    }
    return stats;
  }

 private:
  struct Entry {
    Paddr frame;
    bool large;
    bool active;
    std::list<Vaddr>::iterator it;
  };

  void Append(Vaddr vaddr, Paddr frame, bool large) {
    lists_[0].push_back(vaddr);
    pages_[vaddr] = Entry{frame, large, false, std::prev(lists_[0].end())};
  }

  void Remove(Vaddr vaddr) {
    auto it = pages_.find(vaddr);
    lists_[it->second.active].erase(it->second.it);
    pages_.erase(it);
  }

  void Move(Vaddr vaddr, bool active) {
    Entry& e = pages_.at(vaddr);
    lists_[e.active].erase(e.it);
    lists_[active].push_back(vaddr);
    e.it = std::prev(lists_[active].end());
    e.active = active;
  }

  void StartReclaim() {
    cleared_.clear();
    split_.clear();
  }

  bool TestAndClearReferenced(Vaddr vaddr) {
    const Paddr frame = pages_.at(vaddr).frame;
    const bool was = meta_.Peek(frame).Test(PageFlag::kReferenced) && !cleared_.contains(frame);
    cleared_.insert(frame);
    return was;
  }

  // DemandPager::SwapOutPage: splits a 2 MiB page, then evicts its first
  // 4 KiB page unless that page is pinned or shared. A split gives every
  // 4 KiB page one reference.
  bool SwapOut(Vaddr vaddr) {
    const Entry e = pages_.at(vaddr);
    if (e.large) {
      Remove(vaddr);
      for (uint64_t off = 0; off < kLargePageSize; off += kPageSize) {
        Append(vaddr + off, e.frame + off, /*large=*/false);
        split_.insert(e.frame + off);
      }
    }
    const Paddr frame = pages_.at(vaddr).frame;
    const PageMeta& m = meta_.Peek(frame);
    if (m.Test(PageFlag::kMlocked) || (m.refcount > 1 && !split_.contains(frame))) {
      return false;
    }
    Remove(vaddr);
    return true;
  }

  const PageMetaArray& meta_;
  std::list<Vaddr> lists_[2];  // inactive, active; oldest first
  std::map<Vaddr, Entry> pages_;
  // Referenced bits a modelled reclaim cleared, and frames it split.
  std::set<Paddr> cleared_;
  std::set<Paddr> split_;
};

// A seeded mix of every op that installs, drops or reorders resident pages:
// map (with or without populate), populate, faults, munmap, clock and 2Q
// reclaim, 2 MiB splits, mlock/munlock, referenced-bit aging and fork +
// exit. The pager grows past 2,048 resident pages, so its index resizes
// eight times or more. After every op the pager's records match the present
// anonymous leaves one for one, and its LRU lists match the model.
class PagerOpMixTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr int kSlots = 6;
  static constexpr uint64_t kSlotBytes = 64 * kMiB;

  PagerOpMixTest()
      : machine_(MachineConfig{.dram_bytes = 96 * kMiB, .nvm_bytes = 0}),
        phys_mgr_(&machine_),
        swap_(&machine_.ctx(), &machine_.phys(), /*capacity_pages=*/1 << 16),
        as_(machine_.CreateAddressSpace()),
        vmas_(&machine_.ctx()),
        pager_(&machine_, &phys_mgr_, &swap_, as_.get(), &vmas_) {}

  static Vaddr SlotBase(uint64_t slot) { return (slot + 1) * kSlotBytes; }

  // Every present anonymous leaf, and the pager's records, as
  // vaddr -> (paddr, page bytes).
  std::map<Vaddr, std::pair<Paddr, uint64_t>> AnonLeaves() {
    std::map<Vaddr, std::pair<Paddr, uint64_t>> leaves;
    for (const Vma& vma : vmas_.Regions()) {
      if (!vma.anonymous()) {
        continue;
      }
      O1_CHECK(as_->page_table()
                   .ForEachLeaf(vma.start, vma.end,
                                [&](const PtLeaf& leaf) {
                                  leaves.emplace(leaf.vaddr, std::pair{leaf.entry->paddr,
                                                                       leaf.page_bytes});
                                  return OkStatus();
                                })
                   .ok());
    }
    return leaves;
  }
  std::map<Vaddr, std::pair<Paddr, uint64_t>> Records() const {
    std::map<Vaddr, std::pair<Paddr, uint64_t>> records;
    (void)pager_.ForEachResident([&](const DemandPager::ResidentPage& page) {
      records.emplace(page.vaddr, std::pair{page.frame, page.page_bytes});
      return OkStatus();
    });
    return records;
  }

  // Fork into a fresh pager, check it took the parent's LRU order, exit it.
  void ForkAndExit() {
    std::unique_ptr<AddressSpace> child_as = machine_.CreateAddressSpace();
    VmaTree child_vmas(&machine_.ctx());
    DemandPager child(&machine_, &phys_mgr_, &swap_, child_as.get(), &child_vmas);
    for (const Vma& vma : vmas_.Regions()) {
      ASSERT_TRUE(child_vmas.Insert(vma).ok());
    }
    ASSERT_TRUE(pager_.ForkInto(child).ok());
    machine_.mmu().FlushPending();
    std::vector<std::pair<Vaddr, Paddr>> parent_order;
    (void)pager_.ForEachResident([&](const DemandPager::ResidentPage& page) {
      parent_order.emplace_back(page.vaddr, page.frame);
      return OkStatus();
    });
    std::vector<std::pair<Vaddr, Paddr>> child_order;
    (void)child.ForEachResident([&](const DemandPager::ResidentPage& page) {
      EXPECT_FALSE(page.active);
      child_order.emplace_back(page.vaddr, page.frame);
      return OkStatus();
    });
    ASSERT_EQ(child_order, parent_order);
    ASSERT_EQ(child.swapped_pages(), pager_.swapped_pages());
    for (const Vma& vma : child_vmas.Regions()) {
      ASSERT_TRUE(child.UnmapRange(vma).ok());
    }
    machine_.mmu().FlushPending();
  }

  Machine machine_;
  PhysManager phys_mgr_;
  SwapDevice swap_;
  std::unique_ptr<AddressSpace> as_;
  VmaTree vmas_;
  DemandPager pager_;
};

TEST_P(PagerOpMixTest, RecordsAndLruListsMatchLeavesAndReferenceModel) {
  Rng rng(GetParam());
  LruModel model(phys_mgr_.meta());
  uint64_t most_resident = 0;
  for (int op = 0; op < 1000; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " op " << op);
    const std::vector<Vma> regions = vmas_.Regions();
    const Vma* vma = regions.empty() ? nullptr : &regions[rng.NextBelow(regions.size())];
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 20) {
      const bool two_queue = kind < 10;
      const uint64_t target = rng.NextInRange(1, 32);
      const uint64_t swapped_before = pager_.swapped_pages();
      const ReclaimStats want = two_queue ? model.TwoQueue(target) : model.Clock(target);
      Result<ReclaimStats> got = two_queue ? TwoQueueReclaimer(&pager_).Reclaim(target)
                                           : ClockReclaimer(&pager_).Reclaim(target);
      machine_.mmu().FlushPending();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->scanned, want.scanned);
      EXPECT_EQ(got->reclaimed, want.reclaimed);
      EXPECT_EQ(got->spared, want.spared);
      EXPECT_EQ(pager_.swapped_pages(), swapped_before + got->reclaimed);
    } else {
      if (kind < 32) {
        // Map a VMA into an empty slot: 4 KiB pages or 2 MiB pages.
        const uint64_t slot = rng.NextBelow(kSlots);
        const bool taken = std::any_of(regions.begin(), regions.end(), [&](const Vma& v) {
          return v.start >= SlotBase(slot) && v.start < SlotBase(slot) + kSlotBytes;
        });
        if (!taken) {
          const bool large = rng.NextBool(0.4);
          const uint64_t bytes = large ? rng.NextInRange(1, 4) * kLargePageSize
                                       : rng.NextInRange(1, 1024) * kPageSize;
          const Vma fresh{.start = SlotBase(slot), .end = SlotBase(slot) + bytes,
                          .prot = Prot::kReadWrite, .large_pages = large};
          ASSERT_TRUE(vmas_.Insert(fresh).ok());
          if (rng.NextBool(0.5)) {
            (void)pager_.Populate(fresh);
          }
        }
      } else if (vma == nullptr) {
        // Nothing mapped yet.
      } else if (kind < 40) {
        (void)pager_.Populate(*vma);
      } else if (kind < 60) {
        const uint64_t pages = vma->bytes() / kPageSize;
        const uint64_t first = rng.NextBelow(pages);
        const uint64_t count = std::min(pages - first, rng.NextInRange(1, 32));
        const AccessType type = rng.NextBool(0.5) ? AccessType::kWrite : AccessType::kRead;
        (void)machine_.mmu().Touch(*as_, vma->start + first * kPageSize, count * kPageSize,
                                   type);
      } else if (kind < 68) {
        // munmap, in whole 2 MiB pages on a large-page VMA.
        const uint64_t unit = vma->large_pages ? kLargePageSize : kPageSize;
        const uint64_t units = vma->bytes() / unit;
        const uint64_t first = rng.NextBelow(units);
        const uint64_t count = rng.NextInRange(1, units - first);
        auto removed = vmas_.RemoveRange(vma->start + first * unit, count * unit);
        ASSERT_TRUE(removed.ok());
        for (const Vma& piece : removed.value()) {
          ASSERT_TRUE(pager_.UnmapRange(piece).ok());
        }
        machine_.mmu().FlushPending();
      } else if (kind < 74) {
        if (vma->large_pages) {
          (void)pager_.SplitLargePage(vma->start +
                                      rng.NextBelow(vma->bytes() / kLargePageSize) *
                                          kLargePageSize);
        }
      } else if (kind < 84) {
        const uint64_t pages = vma->bytes() / kPageSize;
        const uint64_t first = rng.NextBelow(pages);
        const uint64_t count = std::min(pages - first, rng.NextInRange(1, 16));
        const Vaddr start = vma->start + first * kPageSize;
        if (rng.NextBool(0.6)) {
          (void)pager_.PinRange(start, count * kPageSize);
        } else {
          ASSERT_TRUE(pager_.UnpinRange(start, count * kPageSize).ok());
        }
      } else if (kind < 95) {
        // Age: clear or set referenced bits over a run of pages.
        const uint64_t pages = vma->bytes() / kPageSize;
        const uint64_t first = rng.NextBelow(pages);
        const uint64_t count = std::min(pages - first, rng.NextInRange(1, 256));
        const bool clear = rng.NextBool(0.8);
        for (uint64_t p = first; p < first + count; ++p) {
          const Vaddr page = vma->start + p * kPageSize;
          if (clear) {
            pager_.TestAndClearReferenced(page);
          } else {
            pager_.MarkAccessed(page);
          }
        }
      } else {
        ASSERT_NO_FATAL_FAILURE(ForkAndExit());
      }
      model.Sync(pager_);
    }
    ASSERT_NO_FATAL_FAILURE(model.ExpectSameOrder(pager_));
    const auto leaves = AnonLeaves();
    ASSERT_EQ(pager_.resident_anon_pages(), leaves.size());
    ASSERT_EQ(pager_.inactive_pages() + pager_.active_pages(), leaves.size());
    ASSERT_EQ(Records(), leaves);
    most_resident = std::max(most_resident, pager_.resident_anon_pages());
  }
  EXPECT_GT(most_resident, 2048u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagerOpMixTest, ::testing::Values(1u, 2u, 3u));

// munmap charges the pages present, not the length of the VMA: one CPU,
// eight touched pages, the same cycles whether the VMA is eight pages or
// 1 GiB and whether the touches sit together or 128 MiB apart.
TEST(MunmapCostTest, ChargesPresentPagesNotVmaLength) {
  const auto munmap_cycles = [](uint64_t vma_bytes, uint64_t stride) -> uint64_t {
    SystemConfig config;
    config.machine.dram_bytes = 256 * kMiB;
    config.machine.nvm_bytes = 256 * kMiB;
    System sys(config);
    auto proc = sys.Launch(Backend::kBaseline);
    EXPECT_TRUE(proc.ok());
    auto vaddr = sys.Mmap(**proc, MmapArgs{.length = vma_bytes});
    EXPECT_TRUE(vaddr.ok());
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(sys.UserTouch(**proc, *vaddr + i * stride, 1, AccessType::kWrite).ok());
    }
    const uint64_t t0 = sys.ctx().now();
    EXPECT_TRUE(sys.Munmap(**proc, *vaddr, vma_bytes).ok());
    return sys.ctx().now() - t0;
  };
  const uint64_t small = munmap_cycles(8 * kPageSize, kPageSize);
  EXPECT_EQ(small, 7970u);
  EXPECT_EQ(munmap_cycles(kGiB, kPageSize), small);
  EXPECT_EQ(munmap_cycles(kGiB, 128 * kMiB), small);
}

}  // namespace
}  // namespace o1mem
