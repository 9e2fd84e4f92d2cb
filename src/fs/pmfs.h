// Pmfs: a persistent-memory file system in the style of PMFS (Dulloor et
// al., EuroSys '14), the system the paper's Figure 2/7 allocates through.
//
// Properties that matter for the reproduction:
//   * extent-granular allocation from a block bitmap -- creating or growing
//     a file costs O(extents), not O(pages);
//   * DAX: file data lives directly in NVM and is mapped into processes
//     without a page cache;
//   * a real on-NVM metadata journal: every namespace/size mutation appends
//     a CRC-protected record to a journal slot carved out of the region
//     (written and flushed through PhysicalMemory, so crash-point sweeps
//     can cut it anywhere); crash recovery re-reads the superblock, replays
//     the valid journal prefix, drops volatile files, reclaims leaked
//     blocks, and compacts the journal into the other slot. Each record
//     kind's layout is one field list in pmfs.cc that sizing, encoding and
//     decoding all walk, and every journaled op commits through Commit:
//     reserve the record's bytes, change memory, append;
//   * per-file persistence: files created persistent survive Machine::Crash,
//     volatile (temporary) files do not -- Sec. 3.1's "marked at any time as
//     volatile or persistent".
//
// On-media layout (all inside [region_base, region_base + region_bytes)):
//   block 0                          superblock (one CRC'd 64 B line)
//   blocks [1, 1+S)                  journal slot 0
//   blocks [1+S, 1+2S)               journal slot 1
//   blocks [1+2S, region_blocks)    data
// The superblock names the active slot and a generation number; a
// checkpoint serializes live metadata into the inactive slot and flips the
// superblock in one flushed line write, so a crash always finds one fully
// valid slot. Records carry the generation, which terminates parsing at
// stale bytes from the slot's previous life; a CRC mismatch or unreadable
// line terminates it at a torn/decayed tail.
//
// Fault handling: Scrub() is an online fsck -- it revalidates the
// superblock and journal, walks extents, consults the platform bad-line
// list (FaultInjector poison), quarantines files whose data or structure is
// unrepairable, and rebuilds the bitmap. Block ownership comes from one
// claim pass (ClaimBlocks: lowest inode first, all or nothing, one bit per
// block) that recovery's bitmap rebuild, Scrub's owner lookup and
// VerifyIntegrity all read. When the superblock or both journal slots
// cannot be made durable and readable, the mount degrades to read-only
// (MountMode::kDegraded): reads still work, every mutating op returns
// kReadOnly (one check, CheckWritable), and nothing CHECK-fails.
//
// Zeroing policy: kEagerZero clears new extents at allocation time (the
// linear-time foreground cost Sec. 3.1 complains about); kZeroEpoch zeroes
// blocks when they are FREED, off the critical path (background work,
// accounted separately), so allocation finds pre-zeroed blocks and is
// O(extents) in the foreground -- one realization of the "new techniques to
// efficiently erase memory in constant time" the paper calls for. Freshly
// formatted devices hand out zeroed blocks either way; after a crash,
// recovery under kZeroEpoch re-zeroes free space in the background before
// it can be reallocated, so DAX access never observes another file's stale
// data even when a crash interrupted a free.
#ifndef O1MEM_SRC_FS_PMFS_H_
#define O1MEM_SRC_FS_PMFS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fs/block_bitmap.h"
#include "src/fs/extent_tree.h"
#include "src/fs/file_system.h"
#include "src/sim/machine.h"

namespace o1mem {

// One journal record; its layout and codec live in pmfs.cc.
struct JournalRecord;

enum class ZeroPolicy {
  kEagerZero,  // zero whole extents at allocation (O(bytes) foreground)
  kZeroEpoch,  // zero blocks at free time in the background (O(1) foreground)
};

enum class MountMode {
  kReadWrite,  // healthy
  kDegraded,   // metadata cannot be committed durably: read-only
};

// What Scrub() found and fixed. All counts are per call.
struct ScrubReport {
  uint64_t journal_records_checked = 0;
  uint64_t journal_truncated_bytes = 0;  // torn/corrupt tail dropped
  uint64_t files_quarantined = 0;
  uint64_t media_errors_found = 0;   // poisoned lines encountered
  uint64_t blocks_repaired = 0;      // transient poison healed by rewrite
  uint64_t bad_blocks_retired = 0;   // sticky poison fenced off in the bitmap
  bool superblock_rewritten = false;
  bool journal_compacted = false;
  bool degraded = false;  // mount state after the scrub
};

class Pmfs : public FileSystem {
 public:
  // Manages the NVM range [region_base, region_base + region_bytes).
  // Construction formats the region (fresh superblock + empty journal).
  Pmfs(Machine* machine, Paddr region_base, uint64_t region_bytes,
       ZeroPolicy zero_policy = ZeroPolicy::kEagerZero);
  ~Pmfs() override;

  Pmfs(const Pmfs&) = delete;
  Pmfs& operator=(const Pmfs&) = delete;

  std::string_view name() const override { return "pmfs"; }

  Result<InodeId> Create(std::string_view path, const FileFlags& flags) override;
  // O_TMPFILE-style volatile file: born unlinked (no namespace entry) and
  // unjournaled. It lives exactly as long as its open/map references, a
  // checkpoint snapshot never includes it (EncodeSnapshot walks the
  // namespace), and after a crash its blocks fall out of the bitmap rebuild
  // as free -- the same end state the recovery teardown produces for linked
  // volatile files, without any journal traffic on the create/resize path.
  Result<InodeId> CreateVolatile(const FileFlags& flags);
  // Drops an unreferenced volatile inode (rollback when a map attempt
  // failed before taking a reference).
  Status Release(InodeId id);
  Result<InodeId> LookupPath(std::string_view path) override;
  Status Unlink(std::string_view path) override;
  std::vector<std::string> ListPaths() const override;
  Status Mkdir(std::string_view path) override;
  Status Rmdir(std::string_view path) override;
  Result<std::vector<DirEntry>> List(std::string_view path) override;
  Status Rename(std::string_view from, std::string_view to) override;
  Status Link(std::string_view existing, std::string_view new_path) override;

  Status AddOpenRef(InodeId id) override;
  Status DropOpenRef(InodeId id) override;
  Status AddMapRef(InodeId id) override;
  Status DropMapRef(InodeId id) override;

  Status Resize(InodeId id, uint64_t size) override;

  // Like Resize (grow only), but insists on a single physically contiguous
  // extent for the whole file; fails with kOutOfMemory when the device is
  // too fragmented. Used for PBM-style segments and range-friendly files.
  Status ResizeSingleExtent(InodeId id, uint64_t size);
  Result<uint64_t> ReadAt(InodeId id, uint64_t offset, std::span<uint8_t> out) override;
  Result<uint64_t> WriteAt(InodeId id, uint64_t offset,
                           std::span<const uint8_t> data) override;

  Result<BackingProvider*> Provider(InodeId id) override;
  Result<std::vector<FileExtentView>> Extents(InodeId id) override;
  // Changes whenever the file's extents do (grow, shrink, journal replay),
  // so a structure built from Extents() can tell in O(1) that it went
  // stale. Uncharged.
  Result<uint64_t> ExtentGeneration(InodeId id);

  Result<FileStat> Stat(InodeId id) override;
  uint64_t free_bytes() const override;
  // Capacity available for file data: the region minus the metadata area
  // (superblock + journal slots).
  uint64_t quota_bytes() const override {
    return region_bytes_ - (meta_blocks_ << kPageShift);
  }

  Result<uint64_t> ReclaimDiscardable(uint64_t bytes_needed) override;

  // Crash recovery: superblock validation + journal replay + volatile-file
  // teardown + bitmap rebuild + journal compaction. Never fails the boot:
  // unrepairable metadata degrades the mount to read-only instead.
  Status OnCrash() override;

  // Online fsck: revalidate superblock and journal, patrol for media
  // faults, quarantine unrepairable files, rebuild the bitmap. May repair a
  // previously degraded mount back to read-write, or degrade a damaged one.
  Result<ScrubReport> Scrub();

  MountMode mount_mode() const { return mount_mode_; }
  const std::string& degrade_reason() const { return degrade_reason_; }

  // Flips a file's persistence bit in place (Sec. 3.1: files "can be marked
  // at any time as volatile or persistent").
  Status SetPersistent(InodeId id, bool persistent);

  // DAX page lookup used by the demand pager; allocates backing for holes.
  Result<Paddr> GetBackingPage(InodeId id, uint64_t offset, bool for_write);

  // Structural invariants: extents within the data area, no block owned
  // twice, bitmap consistent with the extent trees. Quarantined files are
  // exempt (they are already isolated). Charged as a metadata scan.
  Status VerifyIntegrity();

  // Fault injection for recovery tests: marks `blocks` blocks allocated in
  // the bitmap without any owning extent (a torn allocation). Recovery must
  // reclaim them.
  Status LeakBlocksForTest(uint64_t blocks);

  // Journal records appended since boot/recovery (not counting checkpoint
  // snapshots). The journal itself lives on NVM; this is a convenience
  // counter for tests and benches.
  uint64_t journal_records() const { return ops_records_; }
  // Bytes of the active journal slot currently in use.
  uint64_t journal_tail_bytes() const { return journal_tail_bytes_; }
  uint64_t journal_slot_bytes() const { return slot_blocks_ << kPageShift; }
  ZeroPolicy zero_policy() const { return zero_policy_; }

  // Cycles of background (off-critical-path) zeroing accrued under
  // kZeroEpoch; the foreground clock never saw these.
  uint64_t background_zero_cycles() const { return background_zero_cycles_; }

 private:
  struct Inode;

  class DaxProvider : public BackingProvider {
   public:
    DaxProvider(Pmfs* fs, InodeId id) : fs_(fs), id_(id) {}
    Result<Paddr> GetBackingPage(uint64_t file_offset, bool for_write) override {
      return fs_->GetBackingPage(id_, file_offset, for_write);
    }
    uint64_t backing_id() const override { return id_; }

   private:
    Pmfs* fs_;
    InodeId id_;
  };

  struct Inode {
    InodeId id = kInvalidInode;
    uint64_t size = 0;
    FileFlags flags;
    uint32_t links = 0;
    uint32_t opens = 0;
    uint32_t maps = 0;
    uint64_t atime = 0;
    bool quarantined = false;  // data/structure damaged; reads return kMediaError
    bool journaled = true;     // false: volatile O_TMPFILE-style inode, no records
    ExtentTree extents;
    std::unique_ptr<DaxProvider> provider;

    explicit Inode(SimContext* ctx) : extents(ctx) {}
  };

  // What the one block-ownership pass found. Inodes claim their extents in
  // id order, all or nothing: an inode with an extent outside the data area,
  // or on a block a lower id already claimed, claims nothing. Extents of one
  // inode are not checked against each other, so its runs may overlap.
  struct BlockClaims {
    struct Run {
      uint64_t start = 0;
      uint64_t count = 0;
      InodeId owner = kInvalidInode;
    };
    std::vector<uint64_t> owned;    // one bit per block, metadata area set
    std::vector<Run> runs;          // every claimed extent, sorted by start
    std::vector<InodeId> rejected;  // inodes that claimed nothing, ascending
    Status first_fault;             // why the lowest rejected inode claimed nothing
    uint64_t extents = 0;           // extents examined

    // The inode whose claimed run holds `block`, if any.
    std::optional<InodeId> OwnerOf(uint64_t block) const;
  };

  // Valid prefix of a journal slot.
  struct SlotProbe {
    uint64_t generation = 0;  // from the first record; 0 if slot empty
    uint64_t bytes = 0;       // consumed by valid records
    uint64_t records = 0;
    bool truncated = false;  // parsing stopped before the slot end sentinel
  };

  Result<Inode*> Get(InodeId id);
  Result<Inode*> GetWritable(InodeId id);  // + degraded/quarantine guards
  // The one degraded-mount guard: kReadOnly while the mount is degraded.
  Status CheckWritable() const;
  void TouchAtime(Inode& inode);
  Status MaybeFree(InodeId id);
  Status Destroy(InodeId id);
  // The one extent grant: allocates blocks up to the page-aligned new size
  // (one contiguous extent when `single_extent`), eager-zeroes them under
  // kEagerZero, journals each extent (or inserts it unjournaled), then
  // commits the size last.
  Status GrowTo(Inode& inode, uint64_t new_size, bool single_extent);
  Status ShrinkTo(Inode& inode, uint64_t new_size);
  // Zeroes and flushes off the critical path: no clock charge, the cycles
  // accrue to background_zero_cycles_.
  Status BackgroundZero(Paddr paddr, uint64_t bytes);

  // --- on-NVM journal -----------------------------------------------------
  Paddr SlotBase(uint32_t slot) const {
    return region_base_ + ((1 + uint64_t{slot} * slot_blocks_) << kPageShift);
  }
  uint64_t SlotBytes() const { return slot_blocks_ << kPageShift; }

  // Writes a freshly formatted superblock + empty journal (mkfs).
  void Format();
  Status WriteSuperblock(uint32_t active_slot, uint64_t generation);
  // Reads + validates the superblock; returns {active_slot, generation}.
  Result<std::pair<uint32_t, uint64_t>> ReadSuperblock();

  // Guarantees `len` more journal bytes fit in the active slot, compacting
  // via Checkpoint() if needed. Called BEFORE the in-memory mutation so a
  // checkpoint snapshot never includes the half-applied op.
  Status ReserveJournal(uint64_t len);
  // Stamps generation + CRC into `rec` and appends it durably. `rec` must
  // have been sized through ReserveJournal.
  Status AppendRecord(std::vector<uint8_t>& rec);
  // The one commit path of a journaled op: encodes `rec`, reserves its
  // bytes, runs `apply` (the in-memory change, returning Status), then
  // appends the record. A failing `apply` appends nothing. Without `apply`
  // the change is replay's: ApplyRecord(rec).
  template <class Apply>
  Status Commit(const JournalRecord& rec, Apply&& apply);
  Status Commit(const JournalRecord& rec);

  // Serializes live metadata into the inactive slot and flips the
  // superblock (the atomic commit). Fails with kQuotaExceeded if live
  // metadata outgrows a slot; the old slot stays valid in that case.
  Status Checkpoint();
  std::vector<uint8_t> EncodeSnapshot(uint64_t generation) const;

  // Parses the valid record prefix of a slot; applies records iff `apply`.
  SlotProbe ParseSlot(uint32_t slot, bool apply, uint64_t expect_generation);
  // Applies one record to memory, as replay does. A live create, mkdir,
  // rmdir, rename, link, flag change or extent grant makes exactly this
  // change; a live unlink or resize also frees blocks, so only replay and
  // the crash teardown apply those two kinds here.
  Status ApplyRecord(const JournalRecord& rec);

  // True when `e` lies page-aligned inside the data area.
  bool InDataArea(const FileExtent& e) const;
  // The one walk over block ownership (uncharged); quarantined inodes
  // claim too unless `include_quarantined` is false.
  BlockClaims ClaimBlocks(bool include_quarantined) const;
  // Rebuilds the bitmap from `claims`: rejected files quarantined, sticky
  // bad lines in unclaimed blocks retired. Under kZeroEpoch also re-zeroes
  // free space.
  void RebuildBitmap(BlockClaims claims);

  void Degrade(std::string reason);

  uint64_t BlockOf(Paddr paddr) const { return (paddr - region_base_) >> kPageShift; }
  Paddr AddrOf(uint64_t block) const { return region_base_ + (block << kPageShift); }

  Machine* machine_;
  Paddr region_base_;
  uint64_t region_bytes_;
  ZeroPolicy zero_policy_;
  uint64_t slot_blocks_ = 0;
  uint64_t meta_blocks_ = 0;  // superblock + both journal slots
  BlockBitmap bitmap_;
  InodeId next_inode_ = 1;
  Namespace ns_;
  std::unordered_map<InodeId, Inode> inodes_;

  MountMode mount_mode_ = MountMode::kReadWrite;
  std::string degrade_reason_;
  uint32_t active_slot_ = 0;
  uint64_t generation_ = 1;
  uint64_t journal_tail_bytes_ = 0;
  uint64_t ops_records_ = 0;

  uint64_t background_zero_cycles_ = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_FS_PMFS_H_
