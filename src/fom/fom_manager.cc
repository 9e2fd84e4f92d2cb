#include "src/fom/fom_manager.h"

#include <algorithm>
#include <cstdlib>

#include "src/obs/span.h"
#include "src/support/byte_order.h"
#include "src/support/crc32.h"

namespace o1mem {

namespace {

// Sidecar wire format: header + one u64 backing paddr per 4 KiB page.
//   off  0  u64  magic
//   off  8  u64  inode
//   off 16  u64  file_bytes
//   off 24  u64  page_count
//   off 32  u32  crc   (CRC-32 of the paddr payload)
//   off 36  u32  reserved
constexpr uint64_t kSidecarMagic = 0x4f31464f4d545331ull;  // "O1FOMTS1"
constexpr uint64_t kSidecarHeaderBytes = 40;

}  // namespace

FomManager::FomManager(Machine* machine, Pmfs* pmfs, const FomConfig& config)
    : machine_(machine), pmfs_(pmfs), config_(config) {
  O1_CHECK(machine != nullptr && pmfs != nullptr);
  O1_CHECK(IsAligned(config.map_region_base, kLargePageSize));
}

std::unique_ptr<FomProcess> FomManager::CreateProcess() {
  auto proc = std::unique_ptr<FomProcess>(new FomProcess(machine_->CreateAddressSpace()));
  // ASLR-like per-process stagger: without PBM, nothing guarantees two
  // processes map a file at the same address (the premise of Sec. 4.2).
  const uint64_t slot = proc->address_space().asid() % 512;
  proc->bump_ = config_.map_region_base + slot * (config_.map_region_bytes / 512);
  return proc;
}

Status FomManager::ExitProcess(FomProcess& proc) {
  // Reclamation in units of files: drop every mapping; no page scans.
  while (!proc.mappings_.empty()) {
    O1_RETURN_IF_ERROR(Unmap(proc, proc.mappings_.begin()->first));
  }
  return OkStatus();
}

Result<InodeId> FomManager::CreateSegment(std::string_view path, uint64_t bytes,
                                          const SegmentOptions& options) {
  if (bytes == 0) {
    return InvalidArgument("zero-byte segment");
  }
  auto inode = pmfs_->Create(path, options.flags);
  if (!inode.ok()) {
    return inode;
  }
  Status grow = options.require_single_extent ? pmfs_->ResizeSingleExtent(*inode, bytes)
                                              : pmfs_->Resize(*inode, bytes);
  if (!grow.ok()) {
    (void)pmfs_->Unlink(path);
    return grow;
  }
  if (config_.precreate_page_tables) {
    auto tables = TablesFor(*inode);
    if (!tables.ok()) {
      (void)pmfs_->Unlink(path);
      return tables.status();
    }
  }
  return inode;
}

Result<InodeId> FomManager::CreateVolatileSegment(uint64_t bytes) {
  if (bytes == 0) {
    return InvalidArgument("zero-byte segment");
  }
  O1_ASSIGN_OR_RETURN(const InodeId inode, pmfs_->CreateVolatile(FileFlags{}));
  if (Status grown = pmfs_->Resize(inode, bytes); !grown.ok()) {
    (void)pmfs_->Release(inode);
    return grown;
  }
  return inode;
}

Status FomManager::ReleaseVolatileSegment(InodeId inode) { return pmfs_->Release(inode); }

Result<InodeId> FomManager::OpenSegment(std::string_view path) {
  return pmfs_->LookupPath(path);
}

Status FomManager::DeleteSegment(std::string_view path) {
  auto inode = pmfs_->LookupPath(path);
  if (inode.ok()) {
    tables_.erase(*inode);
    (void)pmfs_->Unlink(SidecarPath(*inode));  // best-effort; may not exist
  }
  return pmfs_->Unlink(path);
}

std::string FomManager::SidecarPath(InodeId inode) {
  return "/.fom/tables/" + std::to_string(inode);
}

void FomManager::WriteSidecar(InodeId inode, const PrecreatedTables& tables) {
  auto extents = pmfs_->Extents(inode);
  if (!extents.ok()) {
    return;
  }
  const uint64_t pages = PagesFor(tables.file_bytes);
  std::vector<uint8_t> buf(kSidecarHeaderBytes + pages * 8, 0);
  StoreLe<uint64_t>(buf.data(), kSidecarMagic);
  StoreLe<uint64_t>(buf.data() + 8, inode);
  StoreLe<uint64_t>(buf.data() + 16, tables.file_bytes);
  StoreLe<uint64_t>(buf.data() + 24, pages);
  size_t page = 0;
  for (const FileExtentView& e : *extents) {
    for (uint64_t off = 0; off < e.bytes && page < pages; off += kPageSize) {
      StoreLe<uint64_t>(buf.data() + kSidecarHeaderBytes + page * 8, e.paddr + off);
      ++page;
    }
  }
  StoreLe<uint32_t>(buf.data() + 32,
                    Crc32(std::span<const uint8_t>(buf).subspan(kSidecarHeaderBytes)));
  // Best-effort persistence: a degraded (read-only) mount or full device
  // just means the next boot rebuilds the tables from extents.
  const std::string path = SidecarPath(inode);
  auto sidecar = pmfs_->LookupPath(path);
  if (!sidecar.ok()) {
    sidecar = pmfs_->Create(path, FileFlags{.persistent = true, .discardable = false});
    if (!sidecar.ok()) {
      return;
    }
  }
  if (Status sized = pmfs_->Resize(*sidecar, buf.size()); !sized.ok()) {
    (void)pmfs_->Unlink(path);
    return;
  }
  if (auto wrote = pmfs_->WriteAt(*sidecar, 0, buf); !wrote.ok()) {
    (void)pmfs_->Unlink(path);
  }
}

Result<PrecreatedTables> FomManager::LoadSidecar(InodeId inode, uint64_t file_bytes,
                                                 std::span<const FileExtentView> extents) {
  O1_ASSIGN_OR_RETURN(const InodeId sidecar, pmfs_->LookupPath(SidecarPath(inode)));
  const uint64_t pages = PagesFor(file_bytes);
  std::vector<uint8_t> buf(kSidecarHeaderBytes + pages * 8);
  O1_ASSIGN_OR_RETURN(const uint64_t got, pmfs_->ReadAt(sidecar, 0, buf));
  if (got != buf.size()) {
    return Corruption("fom table sidecar truncated");
  }
  if (LoadLe<uint64_t>(buf.data()) != kSidecarMagic || LoadLe<uint64_t>(buf.data() + 8) != inode ||
      LoadLe<uint64_t>(buf.data() + 16) != file_bytes ||
      LoadLe<uint64_t>(buf.data() + 24) != pages) {
    return Corruption("fom table sidecar header mismatch");
  }
  if (Crc32(std::span<const uint8_t>(buf).subspan(kSidecarHeaderBytes)) !=
      LoadLe<uint32_t>(buf.data() + 32)) {
    return Corruption("fom table sidecar checksum mismatch");
  }
  // The paddrs must agree with the file's current extents: a stale sidecar
  // (file re-created at a different location) would splice translations to
  // someone else's frames.
  std::vector<Paddr> page_paddrs(pages);
  size_t page = 0;
  for (const FileExtentView& e : extents) {
    for (uint64_t off = 0; off < e.bytes && page < pages; off += kPageSize) {
      const Paddr expect = e.paddr + off;
      if (LoadLe<uint64_t>(buf.data() + kSidecarHeaderBytes + page * 8) != expect) {
        return Corruption("fom table sidecar does not match file extents");
      }
      page_paddrs[page] = expect;
      ++page;
    }
  }
  if (page != pages) {
    return Corruption("fom table sidecar does not cover the file");
  }
  return RehydratePrecreatedTables(page_paddrs, file_bytes);
}

const PrecreatedTables* FomManager::CacheTables(InodeId inode, PrecreatedTables tables) {
  auto generation = pmfs_->ExtentGeneration(inode);
  O1_CHECK(generation.ok());
  tables.extent_generation = *generation;
  return &tables_.insert_or_assign(inode, std::move(tables)).first->second;
}

Result<const PrecreatedTables*> FomManager::TablesFor(InodeId inode) {
  if (auto it = tables_.find(inode); it != tables_.end()) {
    auto generation = pmfs_->ExtentGeneration(inode);
    if (generation.ok() && *generation == it->second.extent_generation) {
      return const_cast<const PrecreatedTables*>(&it->second);
    }
    // The file was resized since: the set would splice in blocks it no
    // longer owns, or miss the ones it gained.
    tables_.erase(it);
  }
  auto extents = pmfs_->Extents(inode);
  if (!extents.ok()) {
    return extents.status();
  }
  auto stat = pmfs_->Stat(inode);
  if (!stat.ok()) {
    return stat.status();
  }
  const uint64_t file_bytes = AlignUp(stat->size, kPageSize);
  if (stat->persistent) {
    // O(1) first map after reboot: rehydrate the NVM-resident tables.
    if (auto loaded = LoadSidecar(inode, file_bytes, *extents); loaded.ok()) {
      return CacheTables(inode, std::move(loaded).value());
    }
  }
  auto tables = BuildPrecreatedTables(&machine_->ctx(), &machine_->phys(), *extents,
                                      file_bytes, stat->persistent);
  if (!tables.ok()) {
    return tables.status();
  }
  const PrecreatedTables* cached = CacheTables(inode, std::move(tables).value());
  if (stat->persistent) {
    WriteSidecar(inode, *cached);
  }
  return cached;
}

Result<Vaddr> FomManager::PickVaddr(FomProcess& proc, uint64_t bytes, const MapOptions& options,
                                    MapMechanism mech, InodeId inode) {
  if (mech == MapMechanism::kPbm) {
    // Physically based mapping: the VA is derived from the extent's physical
    // address, identical in every process (Sec. 4.2).
    auto extents = pmfs_->Extents(inode);
    if (!extents.ok()) {
      return extents.status();
    }
    if (extents->size() != 1) {
      return Unsupported("PBM requires a single-extent file");
    }
    return config_.pbm_base + extents->front().paddr;
  }
  if (options.fixed_vaddr.has_value()) {
    const Vaddr fixed = *options.fixed_vaddr;
    if (mech == MapMechanism::kPtSplice && !IsAligned(fixed, kLargePageSize)) {
      return InvalidArgument("kPtSplice requires a 2 MiB aligned vaddr");
    }
    // Reject overlap with an existing mapping.
    auto next = proc.mappings_.upper_bound(fixed);
    if (next != proc.mappings_.end() && next->first < fixed + bytes) {
      return AlreadyExists("fixed vaddr overlaps a mapping");
    }
    if (next != proc.mappings_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second.bytes > fixed) {
        return AlreadyExists("fixed vaddr overlaps a mapping");
      }
    }
    return fixed;
  }
  // Aligned bump allocation; mappings are dense enough for the benches and
  // address-space size makes reuse optional. Gigabyte-class splice mappings
  // take 1 GiB alignment so the level-2 fast path applies.
  const uint64_t align =
      mech == MapMechanism::kPtSplice && bytes >= BytesPerNode(2) ? BytesPerNode(2)
                                                                  : kLargePageSize;
  const Vaddr vaddr = AlignUp(proc.bump_, align);
  const uint64_t reserve = AlignUp(bytes, kLargePageSize);
  if (vaddr + reserve > config_.map_region_base + config_.map_region_bytes) {
    return OutOfMemory("FOM map region exhausted");
  }
  proc.bump_ = vaddr + reserve;
  return vaddr;
}

Status FomManager::InstallRange(FomProcess& proc, Vaddr vaddr, InodeId inode, Prot prot,
                                FomProcess::Mapping* record) {
  auto extents = pmfs_->Extents(inode);
  if (!extents.ok()) {
    return extents.status();
  }
  SimContext& ctx = machine_->ctx();
  for (const FileExtentView& e : *extents) {
    const RangeEntry entry{.vbase = vaddr + e.file_offset,
                           .bytes = e.bytes,
                           .pbase = e.paddr,
                           .prot = prot};
    Status s = proc.as_->range_table().Insert(entry);
    if (!s.ok()) {
      return s;
    }
    ctx.Charge(ctx.cost().range_entry_install_cycles);
    ctx.counters().range_entries_installed++;
    record->range_bases.push_back(entry.vbase);
  }
  return OkStatus();
}

Status FomManager::InstallSplice(FomProcess& proc, Vaddr vaddr, InodeId inode, Prot prot,
                                 FomProcess::Mapping* record) {
  auto tables = TablesFor(inode);
  if (!tables.ok()) {
    return tables.status();
  }
  const std::vector<NodeRef>& l1 = (*tables)->ForProt(prot);
  const std::vector<NodeRef>& l2 = (*tables)->ForProtL2(prot);
  size_t window = 0;
  // Level-2 splices (one store per GiB) when the target address is 1 GiB
  // aligned -- the "1GB" natural granularity of Sec. 3.1.
  if (IsAligned(vaddr, BytesPerNode(2))) {
    for (size_t g = 0; g < l2.size(); ++g) {
      const Vaddr at = vaddr + g * BytesPerNode(2);
      O1_RETURN_IF_ERROR(proc.as_->page_table().SpliceSubtree(at, /*level=*/2, l2[g]));
      record->splices.emplace_back(at, 2);
      window += kPtEntriesPerNode;
    }
  }
  for (; window < l1.size(); ++window) {
    const Vaddr at = vaddr + window * BytesPerNode(1);
    O1_RETURN_IF_ERROR(proc.as_->page_table().SpliceSubtree(at, /*level=*/1, l1[window]));
    record->splices.emplace_back(at, 1);
  }
  return OkStatus();
}

Status FomManager::InstallPerPage(FomProcess& proc, Vaddr vaddr, InodeId inode, Prot prot,
                                  FomProcess::Mapping* record) {
  auto extents = pmfs_->Extents(inode);
  if (!extents.ok()) {
    return extents.status();
  }
  for (const FileExtentView& e : *extents) {
    for (uint64_t off = 0; off < e.bytes; off += kPageSize) {
      O1_RETURN_IF_ERROR(proc.as_->page_table()
                             .MapPage(vaddr + e.file_offset + off, e.paddr + off, kPageSize, prot)
                             .status());
    }
  }
  (void)record;
  return OkStatus();
}

Result<Vaddr> FomManager::Map(FomProcess& proc, InodeId inode, Prot prot,
                              const MapOptions& options) {
  if (options.guard_page) {
    return Unsupported("guard pages depend on page-level mappings (Sec. 3.1)");
  }
  if (options.copy_on_write) {
    return Unsupported("copy-on-write depends on page-level mappings (Sec. 3.1)");
  }
  auto stat = pmfs_->Stat(inode);
  if (!stat.ok()) {
    return stat.status();
  }
  if (stat->size == 0) {
    return InvalidArgument("cannot map an empty file");
  }
  SimContext& ctx = machine_->ctx();
  // Whole-file map: the operand is the full file size, the exact axis the
  // paper's O(1) claim must be flat along.
  ObsSpan span(ctx, TraceKind::kFomMap, stat->size);
  ctx.Charge(ctx.cost().fom_map_base_cycles);
  const MapMechanism mech = options.mechanism.value_or(config_.default_mechanism);
  const uint64_t bytes = AlignUp(stat->size, kPageSize);
  auto vaddr = PickVaddr(proc, bytes, options, mech, inode);
  if (!vaddr.ok()) {
    return vaddr;
  }
  FomProcess::Mapping record;
  record.inode = inode;
  record.bytes = bytes;
  record.mech = mech;
  record.prot = prot;
  Status installed = OkStatus();
  switch (mech) {
    case MapMechanism::kRangeTable:
    case MapMechanism::kPbm:
      installed = InstallRange(proc, *vaddr, inode, prot, &record);
      break;
    case MapMechanism::kPtSplice:
      installed = InstallSplice(proc, *vaddr, inode, prot, &record);
      break;
    case MapMechanism::kPerPage:
      installed = InstallPerPage(proc, *vaddr, inode, prot, &record);
      break;
  }
  if (!installed.ok()) {
    // Roll back partial installation.
    for (Vaddr base : record.range_bases) {
      (void)proc.as_->range_table().Remove(base);
    }
    for (const auto& [at, level] : record.splices) {
      (void)proc.as_->page_table().UnspliceSubtree(at, level);
    }
    return installed;
  }
  O1_RETURN_IF_ERROR(pmfs_->AddMapRef(inode));
  proc.mappings_.emplace(*vaddr, std::move(record));
  if (observer_ != nullptr) {
    observer_->OnMapped(proc, *vaddr);
  }
  return *vaddr;
}

Status FomManager::Unmap(FomProcess& proc, Vaddr vaddr) {
  auto it = proc.mappings_.find(vaddr);
  if (it == proc.mappings_.end()) {
    return NotFound("no FOM mapping at vaddr");
  }
  if (observer_ != nullptr) {
    // The tier engine demotes any promoted extents, restoring the recorded
    // entry/splice layout before we tear it down.
    observer_->OnUnmapping(proc, vaddr);
  }
  SimContext& ctx = machine_->ctx();
  ObsSpan span(ctx, TraceKind::kFomUnmap, it->second.bytes);
  ctx.Charge(ctx.cost().fom_map_base_cycles);
  FomProcess::Mapping& m = it->second;
  switch (m.mech) {
    case MapMechanism::kRangeTable:
    case MapMechanism::kPbm:
      for (Vaddr base : m.range_bases) {
        O1_RETURN_IF_ERROR(proc.as_->range_table().Remove(base));
      }
      break;
    case MapMechanism::kPtSplice:
      for (const auto& [at, level] : m.splices) {
        O1_RETURN_IF_ERROR(proc.as_->page_table().UnspliceSubtree(at, level));
      }
      break;
    case MapMechanism::kPerPage:
      for (uint64_t off = 0; off < m.bytes; off += kPageSize) {
        O1_RETURN_IF_ERROR(proc.as_->page_table().UnmapPage(vaddr + off, kPageSize));
      }
      break;
  }
  // One shootdown for the whole mapping ("unmapping a file can be a single
  // operation to update the range table and shoot down the entry").
  machine_->mmu().ShootdownRange(proc.as_->asid(), vaddr, m.bytes);
  const InodeId inode = m.inode;
  proc.mappings_.erase(it);
  return pmfs_->DropMapRef(inode);
}

Status FomManager::Protect(FomProcess& proc, Vaddr vaddr, Prot prot) {
  auto it = proc.mappings_.find(vaddr);
  if (it == proc.mappings_.end()) {
    return NotFound("no FOM mapping at vaddr");
  }
  if (observer_ != nullptr) {
    observer_->OnProtecting(proc, vaddr);
  }
  SimContext& ctx = machine_->ctx();
  ctx.Charge(ctx.cost().fom_map_base_cycles);
  FomProcess::Mapping& m = it->second;
  switch (m.mech) {
    case MapMechanism::kRangeTable:
    case MapMechanism::kPbm:
      for (Vaddr base : m.range_bases) {
        O1_RETURN_IF_ERROR(proc.as_->range_table().Protect(base, prot));
        ctx.Charge(ctx.cost().range_entry_install_cycles);
      }
      break;
    case MapMechanism::kPtSplice: {
      // Swap table sets: unsplice, resplice the other variant. O(splices).
      auto tables = TablesFor(m.inode);
      if (!tables.ok()) {
        return tables.status();
      }
      // A segment shrunk since it was mapped has no table nodes for the
      // mapping's tail; refuse before unsplicing anything.
      if ((*tables)->file_bytes < m.bytes) {
        return NotFound("segment shrank under its splice mapping");
      }
      const std::vector<NodeRef>& l1 = (*tables)->ForProt(prot);
      const std::vector<NodeRef>& l2 = (*tables)->ForProtL2(prot);
      for (const auto& [at, level] : m.splices) {
        // A splice at `at` serves file offset (at - vaddr); the node index
        // within its level's vector follows directly from that offset.
        const uint64_t index = (at - vaddr) / BytesPerNode(level);
        const NodeRef& node = level == 2 ? l2.at(index) : l1.at(index);
        O1_RETURN_IF_ERROR(proc.as_->page_table().UnspliceSubtree(at, level));
        O1_RETURN_IF_ERROR(proc.as_->page_table().SpliceSubtree(at, level, node));
      }
      break;
    }
    case MapMechanism::kPerPage:
      O1_RETURN_IF_ERROR(proc.as_->page_table().ProtectRange(vaddr, m.bytes, prot));
      break;
  }
  machine_->mmu().ShootdownRange(proc.as_->asid(), vaddr, m.bytes);
  m.prot = prot;
  return OkStatus();
}

Result<std::vector<FileExtentView>> FomManager::PinnedExtents(FomProcess& proc, Vaddr vaddr) {
  auto it = proc.mappings_.find(vaddr);
  if (it == proc.mappings_.end()) {
    return NotFound("no FOM mapping at vaddr");
  }
  // Data is implicitly pinned: frames never move while mapped, so this is a
  // metadata read, not a per-page pin loop.
  return pmfs_->Extents(it->second.inode);
}

Result<uint64_t> FomManager::HandlePressure(uint64_t bytes_needed) {
  auto released = pmfs_->ReclaimDiscardable(bytes_needed);
  if (released.ok()) {
    // Drop cached tables for files that no longer exist.
    for (auto it = tables_.begin(); it != tables_.end();) {
      if (!pmfs_->Stat(it->first).ok()) {
        it = tables_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return released;
}

Status FomManager::OnCrash() {
  // Processes are gone; volatile files were dropped by Pmfs::OnCrash. The
  // DRAM-side cache died with the machine: every surviving table set must
  // come back from its NVM sidecar (or a rebuild).
  tables_.clear();
  // Validate every sidecar on the device against its segment. Orphans
  // (segment gone) are unlinked; corrupt or stale ones are rebuilt from the
  // extent tree and rewritten. A degraded (read-only) mount skips the
  // cleanup writes but still serves validated sidecars.
  auto listing = pmfs_->List("/.fom/tables");
  if (!listing.ok()) {
    return OkStatus();  // no sidecars ever written
  }
  const bool read_only = pmfs_->mount_mode() == MountMode::kDegraded;
  for (const DirEntry& entry : *listing) {
    if (entry.is_dir) {
      continue;
    }
    char* end = nullptr;
    const InodeId segment = std::strtoull(entry.name.c_str(), &end, 10);
    const bool parsed = end != nullptr && *end == '\0' && segment != kInvalidInode;
    if (!parsed || !pmfs_->Stat(segment).ok()) {
      if (!read_only) {
        (void)pmfs_->Unlink("/.fom/tables/" + entry.name);
      }
      continue;
    }
    auto stat = pmfs_->Stat(segment);
    auto extents = pmfs_->Extents(segment);
    if (!stat.ok() || !extents.ok()) {
      continue;
    }
    const uint64_t file_bytes = AlignUp(stat->size, kPageSize);
    if (auto loaded = LoadSidecar(segment, file_bytes, *extents); loaded.ok()) {
      CacheTables(segment, std::move(loaded).value());
      continue;
    }
    // Checksum or extent mismatch: rebuild transparently. The rebuilt set
    // is correct either way; persisting it again just restores the O(1)
    // next-boot path.
    auto rebuilt = BuildPrecreatedTables(&machine_->ctx(), &machine_->phys(), *extents,
                                         file_bytes, stat->persistent);
    if (!rebuilt.ok()) {
      continue;
    }
    const PrecreatedTables* cached = CacheTables(segment, std::move(rebuilt).value());
    if (!read_only) {
      WriteSidecar(segment, *cached);
    }
  }
  return OkStatus();
}

uint64_t FomManager::precreated_node_count() const {
  uint64_t n = 0;
  for (const auto& [inode, tables] : tables_) {
    n += tables.node_count();
  }
  return n;
}

}  // namespace o1mem
