// FomManager: file-only memory, the paper's primary contribution (Secs. 3.1
// and 4.1-4.2).
//
// Every unit of user-mode memory is a file in a persistent-memory file
// system. The manager provides:
//
//   * CreateSegment  -- allocate memory by creating a file; backing comes as
//     extents (O(extents), not O(pages)); pre-created RO/RW page-table sets
//     are built once and, for persistent files, stored in NVM;
//   * Map / Unmap    -- O(1)-class whole-file mapping via one of three
//     mechanisms: range-table entries (one per extent, Figs. 4/5/9),
//     page-table subtree splices at 2 MiB boundaries (one pointer store per
//     window, Fig. 3 sharing falls out because processes splice the same
//     nodes), or the per-page baseline for comparison;
//   * Protect        -- whole-file permission change: range-entry rewrite or
//     RO/RW table-set swap, never a PTE walk;
//   * reclamation only at file granularity: Unmap/process-exit refcounting
//     plus HandlePressure() deleting discardable files (no page scans, no
//     swap -- what the paper's "persistence management" paragraph removes);
//   * implicit DMA pinning: PinnedExtents() -- frames never move until the
//     file is unmapped, so there is no per-page pin/unpin;
//   * crash behaviour: persistent files and their pre-created tables
//     survive; volatile ones vanish (Pmfs::OnCrash does the file side).
//
// Deliberately unsupported, as the paper concedes (Sec. 3.1): guard pages
// and copy-on-write. Requesting them returns kUnsupported.
#ifndef O1MEM_SRC_FOM_FOM_MANAGER_H_
#define O1MEM_SRC_FOM_FOM_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/fom/precreated_tables.h"
#include "src/fs/pmfs.h"
#include "src/sim/machine.h"

namespace o1mem {

enum class MapMechanism {
  kRangeTable,  // one range-table entry per extent (needs range hardware)
  kPtSplice,    // splice pre-created subtrees at 2 MiB boundaries
  kPerPage,     // baseline: one PTE per page (for comparison benches)
  kPbm,         // physically based mapping: VA = pbm_base + extent paddr
};

struct FomConfig {
  MapMechanism default_mechanism = MapMechanism::kRangeTable;
  // Build pre-created tables at segment creation (else on first kPtSplice
  // map).
  bool precreate_page_tables = true;
  // Virtual region handed out to FOM mappings.
  Vaddr map_region_base = 32 * kTiB;
  uint64_t map_region_bytes = 64 * kTiB;
  // Base of the physically-based-mapping window (Sec. 4.2): every byte of
  // physical memory has the fixed virtual alias pbm_base + paddr.
  Vaddr pbm_base = 128 * kTiB;
};

struct MapOptions {
  std::optional<MapMechanism> mechanism;
  std::optional<Vaddr> fixed_vaddr;  // must be 2 MiB aligned for kPtSplice
  bool guard_page = false;           // unsupported by design
  bool copy_on_write = false;        // unsupported by design
};

struct SegmentOptions {
  FileFlags flags;
  // Pass to require one physically contiguous extent (needed by kPbm
  // subtree sharing and nice for range hardware).
  bool require_single_extent = false;
};

class FomManager;
class FomProcess;

// Observer for mapping lifecycle events, used by the tiering engine
// (src/tier) to track which inodes are mapped where. OnUnmapping and
// OnProtecting fire BEFORE the manager mutates translations, so an observer
// that rearranged entries (e.g. tier promotion splitting a range entry) can
// restore the canonical layout first.
class FomMapObserver {
 public:
  virtual ~FomMapObserver() = default;
  virtual void OnMapped(FomProcess& proc, Vaddr vaddr) = 0;
  virtual void OnUnmapping(FomProcess& proc, Vaddr vaddr) = 0;
  virtual void OnProtecting(FomProcess& proc, Vaddr vaddr) = 0;
};

// Per-process FOM state: the hardware address space plus the table of live
// whole-file mappings. No VMAs, no per-page anything.
class FomProcess {
 public:
  AddressSpace& address_space() { return *as_; }

  struct Mapping {
    InodeId inode = kInvalidInode;
    uint64_t bytes = 0;       // mapped length (file size at map time)
    MapMechanism mech = MapMechanism::kRangeTable;
    Prot prot = Prot::kNone;
    std::vector<Vaddr> range_bases;  // installed range-entry bases
    // Spliced subtrees: (vaddr, level). Level 2 = one store per GiB,
    // level 1 = one per 2 MiB window.
    std::vector<std::pair<Vaddr, int>> splices;
  };

  const std::map<Vaddr, Mapping>& mappings() const { return mappings_; }

 private:
  friend class FomManager;
  explicit FomProcess(std::unique_ptr<AddressSpace> as) : as_(std::move(as)) {}

  std::unique_ptr<AddressSpace> as_;
  std::map<Vaddr, Mapping> mappings_;
  Vaddr bump_ = 0;  // simple aligned bump allocator over the map region
};

class FomManager {
 public:
  FomManager(Machine* machine, Pmfs* pmfs, const FomConfig& config = FomConfig());

  FomManager(const FomManager&) = delete;
  FomManager& operator=(const FomManager&) = delete;

  // --- Processes ---------------------------------------------------------
  std::unique_ptr<FomProcess> CreateProcess();

  // Process exit: unmaps everything (whole-file refcount drops may free the
  // backing). The FomProcess must not be used afterwards.
  Status ExitProcess(FomProcess& proc);

  // --- Segments ------------------------------------------------------------
  // Memory allocation = file creation. O(extents) + optional table build.
  Result<InodeId> CreateSegment(std::string_view path, uint64_t bytes,
                                const SegmentOptions& options = SegmentOptions());

  // Anonymous-memory fast path (Sec. 3.1 "for volatile data, this may be a
  // temporary file"): an O_TMPFILE-style segment with no namespace entry
  // and no journal traffic. Constant-cost regardless of size (one extent
  // allocation + in-memory inode); it dies with its last map reference.
  // Never gets precreated page tables -- anonymous mappings use the O(1)
  // range/splice install and fault pages in on demand.
  Result<InodeId> CreateVolatileSegment(uint64_t bytes);

  // Rolls back a CreateVolatileSegment whose mapping never materialized
  // (the segment has no path, so DeleteSegment cannot reach it).
  Status ReleaseVolatileSegment(InodeId inode);

  // Look up an existing (e.g. persistent, pre-crash) segment by path.
  Result<InodeId> OpenSegment(std::string_view path);

  Status DeleteSegment(std::string_view path);

  // --- Mapping -------------------------------------------------------------
  Result<Vaddr> Map(FomProcess& proc, InodeId inode, Prot prot,
                    const MapOptions& options = MapOptions());
  Status Unmap(FomProcess& proc, Vaddr vaddr);

  // Whole-file permission change (no per-page work).
  Status Protect(FomProcess& proc, Vaddr vaddr, Prot prot);

  // DMA support: the extents of a mapping, implicitly pinned (Sec. 3.1
  // "memory locking").
  Result<std::vector<FileExtentView>> PinnedExtents(FomProcess& proc, Vaddr vaddr);

  // --- Pressure / crash ----------------------------------------------------
  // File-granularity reclamation: deletes discardable files. O(files), no
  // page scanning.
  Result<uint64_t> HandlePressure(uint64_t bytes_needed);

  // After Machine::Crash + Pmfs::OnCrash: drops table caches for files that
  // no longer exist; persistent files keep their NVM-resident tables (the
  // O(1) first-map-after-reboot property). Each surviving sidecar is
  // checksum-validated against the file's extents; a corrupt or stale one is
  // transparently rebuilt (and rewritten, unless the mount is degraded).
  Status OnCrash();

  // --- Metrics -------------------------------------------------------------
  uint64_t precreated_node_count() const;
  const FomConfig& config() const { return config_; }
  Pmfs& fs() { return *pmfs_; }

  // Mapping lifecycle observer (at most one; the tiering engine). Pass
  // nullptr to detach.
  void SetMapObserver(FomMapObserver* observer) { observer_ = observer; }

  // The file's pre-created table sets (built or rehydrated on demand). The
  // tiering engine resplices these canonical nodes when demoting a
  // kPtSplice-mapped window.
  Result<const PrecreatedTables*> Tables(InodeId inode) { return TablesFor(inode); }

 private:
  // Returns the cached set while the file's extents are unchanged since it
  // was built; otherwise loads the sidecar or rebuilds.
  Result<const PrecreatedTables*> TablesFor(InodeId inode);
  // Caches `tables` for `inode`, stamped with the file's extent generation.
  const PrecreatedTables* CacheTables(InodeId inode, PrecreatedTables tables);

  // --- NVM table sidecars --------------------------------------------------
  // A persistent segment's pre-created tables are serialized into a
  // persistent PMFS file ("/.fom/tables/<inode>"): a CRC-protected header
  // plus one backing paddr per 4 KiB page. After a crash the sidecar is
  // validated and rehydrated without rebuilding (no per-PTE work); a failed
  // checksum falls back to a rebuild from the extent tree.
  static std::string SidecarPath(InodeId inode);
  // Best-effort: a degraded (read-only) mount simply skips the write.
  void WriteSidecar(InodeId inode, const PrecreatedTables& tables);
  Result<PrecreatedTables> LoadSidecar(InodeId inode, uint64_t file_bytes,
                                       std::span<const FileExtentView> extents);

  Result<Vaddr> PickVaddr(FomProcess& proc, uint64_t bytes, const MapOptions& options,
                          MapMechanism mech, InodeId inode);

  Status InstallRange(FomProcess& proc, Vaddr vaddr, InodeId inode, Prot prot,
                      FomProcess::Mapping* record);
  Status InstallSplice(FomProcess& proc, Vaddr vaddr, InodeId inode, Prot prot,
                       FomProcess::Mapping* record);
  Status InstallPerPage(FomProcess& proc, Vaddr vaddr, InodeId inode, Prot prot,
                        FomProcess::Mapping* record);

  Machine* machine_;
  Pmfs* pmfs_;
  FomConfig config_;
  FomMapObserver* observer_ = nullptr;
  // Pre-created table cache; for persistent files this models tables stored
  // in NVM next to the file (they survive OnCrash).
  std::unordered_map<InodeId, PrecreatedTables> tables_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_FOM_FOM_MANAGER_H_
