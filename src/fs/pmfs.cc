#include "src/fs/pmfs.h"

#include "src/obs/span.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "src/sim/fault_injector.h"
#include "src/support/crc32.h"

namespace o1mem {

namespace {

// --- journal wire format ----------------------------------------------------
//
// Record = 24 B header + payload, padded to 8 B:
//   off  0  u32  len   (whole record, multiple of 8, >= 24)
//   off  4  u32  crc   (CRC-32 of the record with this field zeroed)
//   off  8  u64  generation
//   off 16  u8   op
//   off 17  u8[7] reserved
//   off 24  payload
// A len of 0 is the end-of-journal sentinel; a generation mismatch marks
// stale bytes from the slot's previous life; a CRC mismatch or unreadable
// line marks a torn/decayed tail.

constexpr uint64_t kRecordHeaderBytes = 24;
constexpr uint64_t kSuperblockMagic = 0x4f31504d46533142ull;  // "O1PMFS1B"
constexpr uint32_t kSuperblockVersion = 1;

void PutU16(std::vector<uint8_t>& v, uint16_t x) {
  v.push_back(static_cast<uint8_t>(x));
  v.push_back(static_cast<uint8_t>(x >> 8));
}

void PutU64(std::vector<uint8_t>& v, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    v.push_back(static_cast<uint8_t>(x >> (8 * i)));
  }
}

void PutStr(std::vector<uint8_t>& v, std::string_view s) {
  O1_CHECK_MSG(s.size() <= 0xFFFF, "pmfs path too long for journal record");
  PutU16(v, static_cast<uint16_t>(s.size()));
  v.insert(v.end(), s.begin(), s.end());
}

uint16_t LoadU16(const uint8_t* p) { return static_cast<uint16_t>(p[0] | (p[1] << 8)); }

uint32_t LoadU32(const uint8_t* p) {
  uint32_t x = 0;
  for (int i = 3; i >= 0; --i) {
    x = (x << 8) | p[i];
  }
  return x;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t x = 0;
  for (int i = 7; i >= 0; --i) {
    x = (x << 8) | p[i];
  }
  return x;
}

void StoreU32(uint8_t* p, uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(x >> (8 * i));
  }
}

void StoreU64(uint8_t* p, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(x >> (8 * i));
  }
}

std::vector<uint8_t> BeginRecord(uint8_t op) {
  std::vector<uint8_t> v(kRecordHeaderBytes, 0);
  v[16] = op;
  return v;
}

std::vector<uint8_t> FinishRecord(std::vector<uint8_t> v) {
  while (v.size() % 8 != 0) {
    v.push_back(0);
  }
  StoreU32(v.data(), static_cast<uint32_t>(v.size()));
  return v;
}

// Stamps generation and CRC; must be the last mutation before the bytes
// reach NVM.
void StampRecord(std::vector<uint8_t>& rec, uint64_t generation) {
  StoreU64(rec.data() + 8, generation);
  StoreU32(rec.data() + 4, 0);
  StoreU32(rec.data() + 4, Crc32(rec));
}

// Bounds-checked payload reader; any overrun poisons the whole decode.
struct Reader {
  const uint8_t* p;
  uint64_t len;
  uint64_t off = 0;
  bool fail = false;

  uint16_t U16() {
    if (off + 2 > len) {
      fail = true;
      return 0;
    }
    const uint16_t x = LoadU16(p + off);
    off += 2;
    return x;
  }
  uint64_t U64() {
    if (off + 8 > len) {
      fail = true;
      return 0;
    }
    const uint64_t x = LoadU64(p + off);
    off += 8;
    return x;
  }
  uint8_t U8() {
    if (off + 1 > len) {
      fail = true;
      return 0;
    }
    return p[off++];
  }
  std::string Str() {
    const uint16_t n = U16();
    if (fail || off + n > len) {
      fail = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p + off), n);
    off += n;
    return s;
  }
};

}  // namespace

Pmfs::Pmfs(Machine* machine, Paddr region_base, uint64_t region_bytes, ZeroPolicy zero_policy)
    : machine_(machine),
      region_base_(region_base),
      region_bytes_(region_bytes),
      zero_policy_(zero_policy),
      bitmap_(&machine->ctx(), region_bytes >> kPageShift) {
  O1_CHECK(machine != nullptr);
  O1_CHECK(IsAligned(region_base, kPageSize));
  O1_CHECK(IsAligned(region_bytes, kPageSize));
  O1_CHECK_MSG(machine->phys().TierOf(region_base) == MemTier::kNvm,
               "PMFS region must live in NVM");
  O1_CHECK(machine->phys().Contains(region_base, region_bytes));
  const uint64_t region_blocks = region_bytes >> kPageShift;
  // ~0.1% of the region per slot: checkpoint snapshots scale with live file
  // count, so GiB-scale regions need more than the 64 KiB a small region gets.
  slot_blocks_ = std::clamp<uint64_t>(region_blocks / 1024, 4, 512);
  meta_blocks_ = 1 + 2 * slot_blocks_;
  O1_CHECK_MSG(region_blocks > meta_blocks_ + 16, "pmfs region too small for metadata area");
  // Pin the metadata area in the bitmap; a fresh next-fit bitmap starts at
  // block 0, so the reservation always lands at the front of the region.
  auto meta = bitmap_.AllocExtent(meta_blocks_);
  O1_CHECK(meta.ok());
  O1_CHECK(meta->start == 0);
  Format();
}

Pmfs::~Pmfs() = default;

// --- superblock + journal persistence --------------------------------------

void Pmfs::Format() {
  active_slot_ = 0;
  generation_ = 1;
  journal_tail_bytes_ = 0;
  // End-of-journal sentinels (len == 0) so a parse of the fresh device
  // terminates immediately.
  O1_CHECK(machine_->phys().Zero(SlotBase(0), 64).ok());
  O1_CHECK(machine_->phys().Zero(SlotBase(1), 64).ok());
  O1_CHECK(machine_->phys().FlushLines(SlotBase(0), 64).ok());
  O1_CHECK(machine_->phys().FlushLines(SlotBase(1), 64).ok());
  O1_CHECK(WriteSuperblock(0, 1).ok());
}

Status Pmfs::WriteSuperblock(uint32_t active_slot, uint64_t generation) {
  std::array<uint8_t, 64> line{};
  StoreU64(line.data(), kSuperblockMagic);
  StoreU32(line.data() + 8, kSuperblockVersion);
  StoreU32(line.data() + 12, active_slot);
  StoreU64(line.data() + 16, generation);
  StoreU64(line.data() + 24, slot_blocks_);
  StoreU64(line.data() + 32, region_bytes_ >> kPageShift);
  StoreU32(line.data() + 60, Crc32(std::span<const uint8_t>(line.data(), 60)));
  O1_RETURN_IF_ERROR(machine_->phys().Write(region_base_, line));
  return machine_->phys().FlushLines(region_base_, 64);
}

Result<std::pair<uint32_t, uint64_t>> Pmfs::ReadSuperblock() {
  std::array<uint8_t, 64> line{};
  O1_RETURN_IF_ERROR(machine_->phys().Read(region_base_, line));
  if (LoadU32(line.data() + 60) != Crc32(std::span<const uint8_t>(line.data(), 60))) {
    return Corruption("pmfs superblock checksum mismatch");
  }
  if (LoadU64(line.data()) != kSuperblockMagic ||
      LoadU32(line.data() + 8) != kSuperblockVersion) {
    return Corruption("pmfs superblock magic/version mismatch");
  }
  const uint32_t active = LoadU32(line.data() + 12);
  if (active > 1 || LoadU64(line.data() + 24) != slot_blocks_ ||
      LoadU64(line.data() + 32) != (region_bytes_ >> kPageShift)) {
    return Corruption("pmfs superblock names a different geometry");
  }
  return std::make_pair(active, LoadU64(line.data() + 16));
}

Status Pmfs::ReserveJournal(uint64_t len) {
  if (journal_tail_bytes_ + len <= SlotBytes()) {
    return OkStatus();
  }
  O1_RETURN_IF_ERROR(Checkpoint());
  if (journal_tail_bytes_ + len > SlotBytes()) {
    return QuotaExceeded("pmfs journal slot cannot hold live metadata plus record");
  }
  return OkStatus();
}

Status Pmfs::AppendRecord(std::vector<uint8_t>& rec) {
  ObsSpan span(machine_->ctx(), TraceKind::kJournalCommit, rec.size());
  StampRecord(rec, generation_);
  const Paddr at = SlotBase(active_slot_) + journal_tail_bytes_;
  O1_RETURN_IF_ERROR(machine_->phys().Write(at, rec));
  // The flush is the commit point: the record either parses whole after a
  // crash or the tail is truncated at it.
  O1_RETURN_IF_ERROR(machine_->phys().FlushLines(at, rec.size()));
  machine_->ctx().Charge(machine_->ctx().cost().journal_record_cycles);
  journal_tail_bytes_ += rec.size();
  ++ops_records_;
  return OkStatus();
}

std::vector<uint8_t> Pmfs::EncodeSnapshot(uint64_t generation) const {
  std::vector<uint8_t> buf;
  auto emit = [&](std::vector<uint8_t> rec) {
    StampRecord(rec, generation);
    buf.insert(buf.end(), rec.begin(), rec.end());
  };
  // Directories first, sorted, so parents precede children at replay.
  for (const std::string& dir : ns_.AllDirs()) {
    auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kMkdir));
    PutStr(rec, dir);
    emit(FinishRecord(std::move(rec)));
  }
  // One create per inode (its first path), then extents, size, extra links.
  std::map<InodeId, std::vector<std::string>> paths;
  for (const auto& [path, id] : ns_.AllFiles()) {
    paths[id].push_back(path);
  }
  for (const auto& [id, plist] : paths) {
    const Inode& inode = inodes_.at(id);
    {
      auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kCreate));
      PutU64(rec, id);
      rec.push_back(static_cast<uint8_t>((inode.flags.persistent ? 1 : 0) |
                                         (inode.flags.discardable ? 2 : 0) |
                                         (inode.quarantined ? 4 : 0)));
      PutStr(rec, plist.front());
      emit(FinishRecord(std::move(rec)));
    }
    for (const FileExtent& e : inode.extents.Extents()) {
      // Quarantined files can hold garbage extents; only well-formed,
      // in-region ones are worth snapshotting.
      if (e.paddr < AddrOf(meta_blocks_) ||
          e.paddr + e.bytes > region_base_ + region_bytes_ ||
          !IsAligned(e.paddr, kPageSize) || !IsAligned(e.bytes, kPageSize)) {
        continue;
      }
      auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kAllocExtent));
      PutU64(rec, id);
      PutU64(rec, e.file_offset);
      PutU64(rec, BlockOf(e.paddr));
      PutU64(rec, e.bytes >> kPageShift);
      emit(FinishRecord(std::move(rec)));
    }
    {
      auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kResize));
      PutU64(rec, id);
      PutU64(rec, inode.size);
      emit(FinishRecord(std::move(rec)));
    }
    for (size_t i = 1; i < plist.size(); ++i) {
      auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kLink));
      PutU64(rec, id);
      PutStr(rec, plist[i]);
      emit(FinishRecord(std::move(rec)));
    }
  }
  return buf;
}

Status Pmfs::Checkpoint() {
  const uint64_t gen = generation_ + 1;
  std::vector<uint8_t> buf = EncodeSnapshot(gen);
  if (buf.size() + 8 > SlotBytes()) {
    return QuotaExceeded("pmfs live metadata exceeds a journal slot");
  }
  const uint32_t to = 1 - active_slot_;
  if (!buf.empty()) {
    O1_RETURN_IF_ERROR(machine_->phys().Write(SlotBase(to), buf));
    O1_RETURN_IF_ERROR(machine_->phys().FlushLines(SlotBase(to), buf.size()));
  }
  // End sentinel after the snapshot (stale later bytes are also fenced off
  // by their older generation; the sentinel covers the slot's first use).
  O1_RETURN_IF_ERROR(machine_->phys().Zero(SlotBase(to) + buf.size(), 8));
  O1_RETURN_IF_ERROR(machine_->phys().FlushLines(SlotBase(to) + buf.size(), 8));
  // One flushed 64 B superblock line flips the whole file system over.
  O1_RETURN_IF_ERROR(WriteSuperblock(to, gen));
  active_slot_ = to;
  generation_ = gen;
  journal_tail_bytes_ = buf.size();
  return OkStatus();
}

std::optional<Pmfs::DecodedRecord> Pmfs::DecodeRecord(std::span<const uint8_t> bytes) const {
  const uint8_t op_raw = bytes[16];
  if (op_raw < static_cast<uint8_t>(JournalOp::kCreate) ||
      op_raw > static_cast<uint8_t>(JournalOp::kLink)) {
    return std::nullopt;
  }
  DecodedRecord r;
  r.op = static_cast<JournalOp>(op_raw);
  Reader rd{bytes.data() + kRecordHeaderBytes, bytes.size() - kRecordHeaderBytes};
  switch (r.op) {
    case JournalOp::kCreate: {
      r.inode = rd.U64();
      const uint8_t flags = rd.U8();
      r.persistent = (flags & 1) != 0;
      r.discardable = (flags & 2) != 0;
      r.quarantined = (flags & 4) != 0;
      r.path1 = rd.Str();
      break;
    }
    case JournalOp::kUnlink:
    case JournalOp::kMkdir:
    case JournalOp::kRmdir:
      r.path1 = rd.Str();
      break;
    case JournalOp::kRename:
      r.path1 = rd.Str();
      r.path2 = rd.Str();
      break;
    case JournalOp::kLink:
      r.inode = rd.U64();
      r.path1 = rd.Str();
      break;
    case JournalOp::kResize:
      r.inode = rd.U64();
      r.a = rd.U64();
      break;
    case JournalOp::kSetFlags:
      r.inode = rd.U64();
      r.persistent = rd.U8() != 0;
      break;
    case JournalOp::kAllocExtent:
      r.inode = rd.U64();
      r.a = rd.U64();
      r.b = rd.U64();
      r.c = rd.U64();
      break;
  }
  if (rd.fail) {
    return std::nullopt;
  }
  return r;
}

void Pmfs::ApplyRecord(const DecodedRecord& r) {
  switch (r.op) {
    case JournalOp::kCreate: {
      Inode inode(&machine_->ctx());
      inode.id = r.inode;
      inode.flags.persistent = r.persistent;
      inode.flags.discardable = r.discardable;
      inode.quarantined = r.quarantined;
      inode.links = 1;
      inode.provider = std::make_unique<DaxProvider>(this, r.inode);
      if (!ns_.AddFile(r.path1, r.inode).ok()) {
        return;
      }
      inodes_.emplace(r.inode, std::move(inode));
      next_inode_ = std::max(next_inode_, r.inode + 1);
      break;
    }
    case JournalOp::kUnlink: {
      auto removed = ns_.RemoveFile(r.path1);
      if (!removed.ok()) {
        return;
      }
      auto it = inodes_.find(*removed);
      if (it == inodes_.end()) {
        return;
      }
      if (it->second.links > 0) {
        it->second.links--;
      }
      if (it->second.links == 0) {
        // Extents vanish with the inode; the bitmap rebuild reclaims the
        // blocks and the kZeroEpoch re-zero pass clears them.
        inodes_.erase(it);
      }
      break;
    }
    case JournalOp::kResize: {
      auto it = inodes_.find(r.inode);
      if (it == inodes_.end()) {
        return;
      }
      it->second.size = r.a;
      const uint64_t keep = AlignUp(r.a, kPageSize);
      if (keep < it->second.extents.mapped_bytes()) {
        (void)it->second.extents.TruncateFrom(keep);
      }
      break;
    }
    case JournalOp::kSetFlags: {
      auto it = inodes_.find(r.inode);
      if (it != inodes_.end()) {
        it->second.flags.persistent = r.persistent;
      }
      break;
    }
    case JournalOp::kAllocExtent: {
      auto it = inodes_.find(r.inode);
      if (it == inodes_.end()) {
        return;
      }
      (void)it->second.extents.Insert(r.a, AddrOf(r.b), r.c << kPageShift);
      break;
    }
    case JournalOp::kMkdir: {
      Status s = ns_.Mkdir(r.path1);
      (void)s;
      break;
    }
    case JournalOp::kRmdir: {
      Status s = ns_.Rmdir(r.path1);
      (void)s;
      break;
    }
    case JournalOp::kRename: {
      Status s = ns_.Rename(r.path1, r.path2);
      (void)s;
      break;
    }
    case JournalOp::kLink: {
      auto it = inodes_.find(r.inode);
      if (it == inodes_.end()) {
        return;
      }
      if (ns_.AddFile(r.path1, r.inode).ok()) {
        it->second.links++;
      }
      break;
    }
  }
}

Pmfs::SlotProbe Pmfs::ParseSlot(uint32_t slot, bool apply, uint64_t expect_generation) {
  SlotProbe probe;
  const Paddr base = SlotBase(slot);
  const uint64_t cap = SlotBytes();
  uint64_t off = 0;
  std::vector<uint8_t> rec;
  while (off + kRecordHeaderBytes <= cap) {
    std::array<uint8_t, 8> head{};
    if (!machine_->phys().ReadUncharged(base + off, head).ok()) {
      probe.truncated = true;  // unreadable line mid-journal
      break;
    }
    const uint32_t len = LoadU32(head.data());
    if (len == 0) {
      break;  // clean end sentinel
    }
    if (len < kRecordHeaderBytes || len % 8 != 0 || off + len > cap) {
      probe.truncated = true;
      break;
    }
    rec.resize(len);
    if (!machine_->phys().ReadUncharged(base + off, rec).ok()) {
      probe.truncated = true;
      break;
    }
    const uint32_t stored_crc = LoadU32(rec.data() + 4);
    StoreU32(rec.data() + 4, 0);
    if (Crc32(rec) != stored_crc) {
      probe.truncated = true;  // torn or decayed record
      break;
    }
    const uint64_t gen = LoadU64(rec.data() + 8);
    if (expect_generation == 0) {
      expect_generation = gen;  // probe mode: first record names the slot
    }
    if (gen != expect_generation) {
      break;  // stale bytes from the slot's previous generation
    }
    auto decoded = DecodeRecord(rec);
    if (!decoded.has_value()) {
      probe.truncated = true;
      break;
    }
    if (apply) {
      ApplyRecord(*decoded);
    }
    probe.generation = gen;
    ++probe.records;
    off += len;
  }
  probe.bytes = off;
  return probe;
}

// --- inode helpers ----------------------------------------------------------

Result<Pmfs::Inode*> Pmfs::Get(InodeId id) {
  auto it = inodes_.find(id);
  if (it == inodes_.end()) {
    return NotFound("no such pmfs inode");
  }
  return &it->second;
}

Result<Pmfs::Inode*> Pmfs::GetWritable(InodeId id) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    return MediaError("pmfs file quarantined");
  }
  return inode;
}

void Pmfs::TouchAtime(Inode& inode) { inode.atime = machine_->ctx().now(); }

void Pmfs::Degrade(std::string reason) {
  mount_mode_ = MountMode::kDegraded;
  degrade_reason_ = std::move(reason);
}

// --- namespace ops ----------------------------------------------------------

Result<InodeId> Pmfs::Create(std::string_view path, const FileFlags& flags) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  const InodeId id = next_inode_;
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kCreate));
  PutU64(rec, id);
  rec.push_back(static_cast<uint8_t>((flags.persistent ? 1 : 0) | (flags.discardable ? 2 : 0)));
  PutStr(rec, norm);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  Inode inode(&machine_->ctx());
  inode.id = id;
  inode.flags = flags;
  inode.links = 1;
  inode.provider = std::make_unique<DaxProvider>(this, id);
  TouchAtime(inode);
  O1_RETURN_IF_ERROR(ns_.AddFile(norm, id));
  inodes_.emplace(id, std::move(inode));
  ++next_inode_;
  O1_RETURN_IF_ERROR(AppendRecord(rec));
  return id;
}

Result<InodeId> Pmfs::CreateVolatile(const FileFlags& flags) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  if (flags.persistent) {
    return InvalidArgument("volatile inode cannot be persistent");
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  const InodeId id = next_inode_;
  Inode inode(&machine_->ctx());
  inode.id = id;
  inode.flags = flags;
  inode.links = 0;  // born unlinked: open/map references keep it alive
  inode.journaled = false;
  inode.provider = std::make_unique<DaxProvider>(this, id);
  TouchAtime(inode);
  inodes_.emplace(id, std::move(inode));
  ++next_inode_;
  return id;
}

Status Pmfs::Release(InodeId id) { return MaybeFree(id); }

Result<InodeId> Pmfs::LookupPath(std::string_view path) {
  machine_->ctx().Charge(machine_->ctx().cost().file_lookup_cycles);
  return ns_.LookupFile(path);
}

Status Pmfs::Unlink(std::string_view path) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  machine_->ctx().Charge(machine_->ctx().cost().file_delete_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kUnlink));
  PutStr(rec, norm);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  O1_ASSIGN_OR_RETURN(const InodeId id, ns_.RemoveFile(norm));
  // Committed before any block is freed or zeroed: replay either sees the
  // unlink or a fully intact file, never a half-released one.
  O1_RETURN_IF_ERROR(AppendRecord(rec));
  auto inode = Get(id);
  O1_CHECK(inode.ok());
  inode.value()->links--;
  return MaybeFree(id);
}

std::vector<std::string> Pmfs::ListPaths() const {
  std::vector<std::string> out;
  for (const auto& [path, id] : ns_.AllFiles()) {
    out.push_back(path);
  }
  return out;
}

Status Pmfs::Mkdir(std::string_view path) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kMkdir));
  PutStr(rec, norm);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  O1_RETURN_IF_ERROR(ns_.Mkdir(norm));
  return AppendRecord(rec);
}

Status Pmfs::Rmdir(std::string_view path) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kRmdir));
  PutStr(rec, norm);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  O1_RETURN_IF_ERROR(ns_.Rmdir(norm));
  return AppendRecord(rec);
}

Result<std::vector<DirEntry>> Pmfs::List(std::string_view path) {
  machine_->ctx().Charge(machine_->ctx().cost().file_lookup_cycles);
  return ns_.List(path);
}

Status Pmfs::Rename(std::string_view from, std::string_view to) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm_from, Namespace::Normalize(from));
  O1_ASSIGN_OR_RETURN(const std::string norm_to, Namespace::Normalize(to));
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kRename));
  PutStr(rec, norm_from);
  PutStr(rec, norm_to);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  O1_RETURN_IF_ERROR(ns_.Rename(norm_from, norm_to));
  return AppendRecord(rec);
}

Status Pmfs::Link(std::string_view existing, std::string_view new_path) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const InodeId id, ns_.LookupFile(existing));
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(new_path));
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kLink));
  PutU64(rec, id);
  PutStr(rec, norm);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  O1_RETURN_IF_ERROR(ns_.AddFile(norm, id));
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  inode->links++;
  return AppendRecord(rec);
}

// --- reference counting -----------------------------------------------------

Status Pmfs::AddOpenRef(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  machine_->ctx().Charge(machine_->ctx().cost().refcount_op_cycles);
  inode->opens++;
  TouchAtime(*inode);
  return OkStatus();
}

Status Pmfs::DropOpenRef(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->opens == 0) {
    return InvalidArgument("open refcount underflow");
  }
  machine_->ctx().Charge(machine_->ctx().cost().refcount_op_cycles);
  inode->opens--;
  return MaybeFree(id);
}

Status Pmfs::AddMapRef(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  machine_->ctx().Charge(machine_->ctx().cost().refcount_op_cycles);
  inode->maps++;
  TouchAtime(*inode);
  return OkStatus();
}

Status Pmfs::DropMapRef(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->maps == 0) {
    return InvalidArgument("map refcount underflow");
  }
  machine_->ctx().Charge(machine_->ctx().cost().refcount_op_cycles);
  inode->maps--;
  return MaybeFree(id);
}

// --- size changes -----------------------------------------------------------

Status Pmfs::GrowTo(Inode& inode, uint64_t new_size) {
  uint64_t allocated = inode.extents.mapped_bytes();
  const uint64_t target = AlignUp(new_size, kPageSize);
  while (allocated < target) {
    const uint64_t want_blocks = (target - allocated) >> kPageShift;
    auto extent = bitmap_.AllocExtentAtMost(want_blocks, 1);
    if (!extent.ok()) {
      return extent.status();
    }
    const Paddr paddr = AddrOf(extent->start);
    const uint64_t bytes = extent->count << kPageShift;
    if (zero_policy_ == ZeroPolicy::kEagerZero) {
      // Zero BEFORE the journal can map the extent into the file: a crash
      // in between leaves an unowned zeroed run for recovery to reclaim,
      // never a reachable extent of another file's stale bytes.
      O1_RETURN_IF_ERROR(machine_->phys().Zero(paddr, bytes));
      O1_RETURN_IF_ERROR(machine_->phys().FlushLines(paddr, bytes));
    }
    // kZeroEpoch: blocks were zeroed in the background when freed, so the
    // foreground allocation path does no per-byte work.
    if (inode.journaled) {
      auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kAllocExtent));
      PutU64(rec, inode.id);
      PutU64(rec, allocated);
      PutU64(rec, extent->start);
      PutU64(rec, extent->count);
      rec = FinishRecord(std::move(rec));
      O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
      O1_RETURN_IF_ERROR(inode.extents.Insert(allocated, paddr, bytes));
      O1_RETURN_IF_ERROR(AppendRecord(rec));
    } else {
      // Unjournaled volatile inode: a crash leaves these blocks unowned and
      // the bitmap rebuild frees them, which is exactly the teardown a
      // linked volatile file would get.
      O1_RETURN_IF_ERROR(inode.extents.Insert(allocated, paddr, bytes));
    }
    allocated += bytes;
  }
  if (!inode.journaled) {
    inode.size = new_size;
    return OkStatus();
  }
  // The size commits LAST: replay exposes only fully journaled extents, and
  // a crash mid-grow leaves the file readable at its old size.
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kResize));
  PutU64(rec, inode.id);
  PutU64(rec, new_size);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  inode.size = new_size;
  return AppendRecord(rec);
}

Status Pmfs::ZeroOnFree(Paddr paddr, uint64_t bytes) {
  if (zero_policy_ != ZeroPolicy::kZeroEpoch) {
    return OkStatus();
  }
  // Background zeroing: contents are cleared before the block can ever be
  // reallocated, but the cycles are accounted off the critical path.
  O1_RETURN_IF_ERROR(machine_->phys().ZeroUncharged(paddr, bytes));
  const uint64_t flushed = machine_->phys().FlushLinesUncharged(paddr, bytes);
  background_zero_cycles_ += machine_->ctx().cost().NvmWriteBulkCycles(bytes) +
                             flushed * machine_->ctx().cost().clwb_cycles;
  return OkStatus();
}

Status Pmfs::ShrinkTo(Inode& inode, uint64_t new_size) {
  const uint64_t keep = AlignUp(new_size, kPageSize);
  std::vector<FileExtent> released = inode.extents.TruncateFrom(keep);
  for (const FileExtent& e : released) {
    O1_RETURN_IF_ERROR(ZeroOnFree(e.paddr, e.bytes));
    O1_RETURN_IF_ERROR(bitmap_.FreeExtent(
        BlockExtent{.start = BlockOf(e.paddr), .count = e.bytes >> kPageShift}));
  }
  // Zero the kept tail beyond the new size: a later extension must read
  // zeros there, not the dead bytes (truncate(2) semantics).
  if (new_size < keep) {
    if (auto tail = inode.extents.Lookup(new_size); tail.has_value()) {
      O1_RETURN_IF_ERROR(machine_->phys().Zero(tail->paddr + (new_size - tail->file_offset),
                                               keep - new_size));
    }
  }
  inode.size = new_size;
  return OkStatus();
}

Status Pmfs::ResizeSingleExtent(InodeId id, uint64_t size) {
  O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
  if (inode->extents.extent_count() > 0) {
    return InvalidArgument("file already has backing");
  }
  if (size == 0) {
    return InvalidArgument("empty single-extent file");
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  auto extent = bitmap_.AllocExtent(PagesFor(size));
  if (!extent.ok()) {
    return extent.status();
  }
  const Paddr paddr = AddrOf(extent->start);
  const uint64_t bytes = extent->count << kPageShift;
  if (zero_policy_ == ZeroPolicy::kEagerZero) {
    O1_RETURN_IF_ERROR(machine_->phys().Zero(paddr, bytes));
    O1_RETURN_IF_ERROR(machine_->phys().FlushLines(paddr, bytes));
  }
  if (!inode->journaled) {
    O1_RETURN_IF_ERROR(inode->extents.Insert(0, paddr, bytes));
    inode->size = size;
    TouchAtime(*inode);
    return OkStatus();
  }
  auto arec = BeginRecord(static_cast<uint8_t>(JournalOp::kAllocExtent));
  PutU64(arec, id);
  PutU64(arec, 0);
  PutU64(arec, extent->start);
  PutU64(arec, extent->count);
  arec = FinishRecord(std::move(arec));
  auto rrec = BeginRecord(static_cast<uint8_t>(JournalOp::kResize));
  PutU64(rrec, id);
  PutU64(rrec, size);
  rrec = FinishRecord(std::move(rrec));
  O1_RETURN_IF_ERROR(ReserveJournal(arec.size() + rrec.size()));
  O1_RETURN_IF_ERROR(inode->extents.Insert(0, paddr, bytes));
  O1_RETURN_IF_ERROR(AppendRecord(arec));
  inode->size = size;
  O1_RETURN_IF_ERROR(AppendRecord(rrec));
  TouchAtime(*inode);
  return OkStatus();
}

Status Pmfs::Resize(InodeId id, uint64_t size) {
  O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  TouchAtime(*inode);
  if (size >= inode->size) {
    return GrowTo(*inode, size);
  }
  // Shrink: commit the new size FIRST, so a crash mid-free never zeroes
  // blocks a replayed journal still maps into the file.
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kResize));
  PutU64(rec, id);
  PutU64(rec, size);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  O1_RETURN_IF_ERROR(AppendRecord(rec));
  return ShrinkTo(*inode, size);
}

// --- data path --------------------------------------------------------------

Result<Paddr> Pmfs::GetBackingPage(InodeId id, uint64_t offset, bool for_write) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    return MediaError("pmfs file quarantined");
  }
  if (for_write && mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  if (offset >= AlignUp(std::max<uint64_t>(inode->size, 1), kPageSize)) {
    return InvalidArgument("page beyond end of pmfs file");
  }
  auto extent = inode->extents.Lookup(offset);
  if (!extent.has_value()) {
    // Should not happen: PMFS allocates eagerly at Resize. Treat as
    // corruption rather than silently allocating.
    return Corruption("pmfs hole inside file size");
  }
  const Paddr paddr = extent->paddr + (offset - extent->file_offset);
  return paddr;
}

Result<uint64_t> Pmfs::ReadAt(InodeId id, uint64_t offset, std::span<uint8_t> out) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    return MediaError("pmfs file quarantined");
  }
  TouchAtime(*inode);
  if (offset >= inode->size) {
    return uint64_t{0};
  }
  const uint64_t len = std::min<uint64_t>(out.size(), inode->size - offset);
  uint64_t done = 0;
  while (done < len) {
    const uint64_t cur = offset + done;
    auto extent = inode->extents.Lookup(cur);
    if (!extent.has_value()) {
      return Corruption("pmfs hole inside file size");
    }
    const uint64_t in_extent =
        std::min<uint64_t>(extent->file_offset + extent->bytes - cur, len - done);
    const Paddr paddr = extent->paddr + (cur - extent->file_offset);
    O1_RETURN_IF_ERROR(machine_->phys().Read(paddr, out.subspan(done, in_extent)));
    done += in_extent;
  }
  return len;
}

Result<uint64_t> Pmfs::WriteAt(InodeId id, uint64_t offset, std::span<const uint8_t> data) {
  {
    O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
    if (offset + data.size() > inode->size) {
      O1_RETURN_IF_ERROR(Resize(id, offset + data.size()));
    }
    TouchAtime(*inode);
  }
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t cur = offset + done;
    auto extent = inode->extents.Lookup(cur);
    if (!extent.has_value()) {
      return Corruption("pmfs hole inside file size");
    }
    const uint64_t in_extent =
        std::min<uint64_t>(extent->file_offset + extent->bytes - cur, data.size() - done);
    const Paddr paddr = extent->paddr + (cur - extent->file_offset);
    O1_RETURN_IF_ERROR(machine_->phys().Write(paddr, data.subspan(done, in_extent)));
    // write(2) on a PM file system is durable on return (NT stores + fence).
    O1_RETURN_IF_ERROR(machine_->phys().FlushLines(paddr, in_extent));
    done += in_extent;
  }
  return static_cast<uint64_t>(data.size());
}

Result<BackingProvider*> Pmfs::Provider(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  return static_cast<BackingProvider*>(inode->provider.get());
}

Result<std::vector<FileExtentView>> Pmfs::Extents(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  std::vector<FileExtentView> out;
  for (const FileExtent& e : inode->extents.Extents()) {
    machine_->ctx().Charge(machine_->ctx().cost().extent_tree_op_cycles);
    out.push_back(FileExtentView{.file_offset = e.file_offset, .paddr = e.paddr,
                                 .bytes = e.bytes});
  }
  return out;
}

Result<uint64_t> Pmfs::ExtentGeneration(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  return inode->extents.generation();
}

Result<FileStat> Pmfs::Stat(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  FileStat st;
  st.id = inode->id;
  st.size = inode->size;
  st.allocated_bytes = inode->extents.mapped_bytes();
  st.persistent = inode->flags.persistent;
  st.discardable = inode->flags.discardable;
  st.link_count = inode->links;
  st.open_count = inode->opens;
  st.map_count = inode->maps;
  st.extent_count = inode->extents.extent_count();
  st.quarantined = inode->quarantined;
  return st;
}

uint64_t Pmfs::free_bytes() const { return bitmap_.free_blocks() << kPageShift; }

Result<uint64_t> Pmfs::ReclaimDiscardable(uint64_t bytes_needed) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  std::vector<std::tuple<uint64_t, std::string, InodeId>> candidates;
  for (const auto& [path, id] : ns_.AllFiles()) {
    const Inode& inode = inodes_.at(id);
    if (inode.flags.discardable && !inode.quarantined && inode.maps == 0 && inode.opens == 0) {
      candidates.emplace_back(inode.atime, path, id);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  uint64_t released = 0;
  for (const auto& [atime, path, id] : candidates) {
    if (released >= bytes_needed) {
      break;
    }
    // Hard links: only the last name's unlink releases the extents.
    const bool frees_storage = inodes_.at(id).links == 1;
    const uint64_t bytes = inodes_.at(id).extents.mapped_bytes();
    O1_RETURN_IF_ERROR(Unlink(path));
    if (frees_storage) {
      released += bytes;
      machine_->ctx().counters().files_reclaimed++;
    }
  }
  return released;
}

Status Pmfs::SetPersistent(InodeId id, bool persistent) {
  O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
  if (!inode->journaled && persistent) {
    // A pathless unjournaled inode cannot survive a checkpoint, let alone a
    // crash; persistence requires a linked, journaled file.
    return InvalidArgument("volatile O_TMPFILE-style inode cannot be made persistent");
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  auto rec = BeginRecord(static_cast<uint8_t>(JournalOp::kSetFlags));
  PutU64(rec, id);
  rec.push_back(persistent ? 1 : 0);
  rec = FinishRecord(std::move(rec));
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  inode->flags.persistent = persistent;
  return AppendRecord(rec);
}

Status Pmfs::MaybeFree(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->links > 0 || inode->opens > 0 || inode->maps > 0) {
    return OkStatus();
  }
  if (mount_mode_ == MountMode::kDegraded) {
    // Freeing rewrites the bitmap and (under kZeroEpoch) media; defer until
    // a scrub or recovery makes the mount writable again.
    return OkStatus();
  }
  return Destroy(id);
}

Status Pmfs::Destroy(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    // Keep the blocks fenced off in the bitmap; the next scrub or recovery
    // reconsiders ownerless blocks with full knowledge of media state.
    inodes_.erase(id);
    return OkStatus();
  }
  O1_RETURN_IF_ERROR(ShrinkTo(*inode, 0));
  inodes_.erase(id);
  return OkStatus();
}

Status Pmfs::LeakBlocksForTest(uint64_t blocks) {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  auto extent = bitmap_.AllocExtent(blocks);
  if (!extent.ok()) {
    return extent.status();
  }
  // Deliberately forget the owner: simulates a torn allocation where the
  // bitmap update persisted but the extent-tree/journal commit did not.
  return OkStatus();
}

// --- recovery ---------------------------------------------------------------

void Pmfs::RebuildBitmap() {
  const uint64_t region_blocks = region_bytes_ >> kPageShift;
  std::vector<bool> owned(region_blocks, false);
  for (uint64_t b = 0; b < meta_blocks_; ++b) {
    owned[b] = true;
  }
  // Deterministic order: the lowest inode id keeps contested blocks.
  std::vector<InodeId> ids;
  ids.reserve(inodes_.size());
  for (const auto& [id, inode] : inodes_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  const Paddr data_base = AddrOf(meta_blocks_);
  for (InodeId id : ids) {
    Inode& inode = inodes_.at(id);
    bool bad = false;
    for (const FileExtent& e : inode.extents.Extents()) {
      if (e.paddr < data_base || e.paddr + e.bytes > region_base_ + region_bytes_ ||
          !IsAligned(e.paddr, kPageSize) || !IsAligned(e.bytes, kPageSize)) {
        bad = true;
        break;
      }
      for (uint64_t b = BlockOf(e.paddr); b < BlockOf(e.paddr) + (e.bytes >> kPageShift); ++b) {
        if (owned[b]) {
          bad = true;
          break;
        }
      }
      if (bad) {
        break;
      }
    }
    if (bad) {
      // All-or-nothing claims: a file with a conflicting or out-of-range
      // extent keeps NO blocks and is quarantined instead of aborting the
      // mount.
      inode.quarantined = true;
      continue;
    }
    for (const FileExtent& e : inode.extents.Extents()) {
      for (uint64_t b = BlockOf(e.paddr); b < BlockOf(e.paddr) + (e.bytes >> kPageShift); ++b) {
        owned[b] = true;
      }
    }
  }
  // Sticky-unreadable lines reported by the platform (ARS-style bad-line
  // list) are fenced off so the allocator never hands them out.
  const FaultInjector* fi = machine_->phys().fault_injector();
  if (fi != nullptr && fi->has_poison()) {
    Paddr cursor = region_base_;
    const Paddr end = region_base_ + region_bytes_;
    while (cursor < end) {
      auto bad = machine_->phys().FindUnreadableLineUncharged(cursor, end - cursor);
      if (!bad.has_value()) {
        break;
      }
      const uint64_t block = BlockOf(*bad);
      if (block >= meta_blocks_ && !owned[block] && fi->IsSticky(*bad)) {
        owned[block] = true;
        bad_blocks_.insert(block);
      }
      cursor = AlignDown(*bad, 64) + 64;
    }
  }
  Status reset = bitmap_.Reset(owned);
  O1_CHECK(reset.ok());
  // kZeroEpoch hands out pre-zeroed blocks; a crash may have interrupted a
  // background zero, so re-zero free space before it can be reallocated.
  if (zero_policy_ == ZeroPolicy::kZeroEpoch) {
    uint64_t run_start = 0;
    bool in_run = false;
    for (uint64_t b = meta_blocks_; b <= region_blocks; ++b) {
      const bool is_free = b < region_blocks && !owned[b];
      if (is_free && !in_run) {
        run_start = b;
        in_run = true;
      } else if (!is_free && in_run) {
        Status zeroed = ZeroOnFree(AddrOf(run_start), (b - run_start) << kPageShift);
        O1_CHECK(zeroed.ok());
        in_run = false;
      }
    }
  }
}

Status Pmfs::OnCrash() {
  SimContext& ctx = machine_->ctx();
  // Reboot trusts nothing but NVM: forget all in-memory state.
  ns_.Clear();
  inodes_.clear();
  next_inode_ = 1;
  bad_blocks_.clear();
  mount_mode_ = MountMode::kReadWrite;
  degrade_reason_.clear();
  ops_records_ = 0;

  // 1. Superblock names the active slot; on damage, probe both slots and
  //    adopt the one with the newest valid generation.
  bool sb_healthy = true;
  uint32_t slot = 0;
  uint64_t gen = 0;
  if (auto sb = ReadSuperblock(); sb.ok()) {
    slot = sb->first;
    gen = sb->second;
  } else {
    sb_healthy = false;
    const SlotProbe p0 = ParseSlot(0, /*apply=*/false, 0);
    const SlotProbe p1 = ParseSlot(1, /*apply=*/false, 0);
    slot = p1.generation > p0.generation ? 1 : 0;
    gen = std::max(p0.generation, p1.generation);  // 0 if both empty: infer
  }

  // 2. Replay the valid journal prefix.
  SlotProbe replay;
  {
    ObsSpan replay_span(ctx, TraceKind::kJournalReplay);
    replay = ParseSlot(slot, /*apply=*/true, gen);
    active_slot_ = slot;
    generation_ = std::max<uint64_t>({replay.generation, gen, 1});
    journal_tail_bytes_ = replay.bytes;
    ctx.Charge(ctx.cost().NvmReadBulkCycles(std::max<uint64_t>(replay.bytes, 64)) +
               replay.records * ctx.cost().journal_record_cycles / 4);
    replay_span.set_operand(replay.bytes);
  }

  // 3. Processes died with the power: all open/map references vanish, and
  //    volatile files go with them (metadata-only teardown; the closing
  //    checkpoint persists the result and the bitmap rebuild frees blocks).
  std::vector<std::string> volatile_paths;
  for (const auto& [path, id] : ns_.AllFiles()) {
    Inode& inode = inodes_.at(id);
    inode.opens = 0;
    inode.maps = 0;
    if (!inode.flags.persistent) {
      volatile_paths.push_back(path);
    }
  }
  for (const std::string& path : volatile_paths) {
    auto removed = ns_.RemoveFile(path);
    O1_CHECK(removed.ok());
    auto it = inodes_.find(*removed);
    if (it == inodes_.end()) {
      continue;  // later hard link to an already-torn-down inode
    }
    if (it->second.links > 0) {
      it->second.links--;
    }
    if (it->second.links == 0) {
      inodes_.erase(it);
    }
  }
  // A shrink commits its size record before zeroing the kept tail, so a
  // crash can leave dead bytes between size and the page boundary; clear
  // them now, off the critical path (nothing live can sit past the final
  // size -- growing writes always extend the size first).
  for (auto& [id, inode] : inodes_) {
    const uint64_t keep = AlignUp(inode.size, kPageSize);
    if (inode.size < keep && inode.size < inode.extents.mapped_bytes()) {
      if (auto tail = inode.extents.Lookup(inode.size); tail.has_value()) {
        const Paddr at = tail->paddr + (inode.size - tail->file_offset);
        (void)machine_->phys().ZeroUncharged(at, keep - inode.size);
        const uint64_t flushed = machine_->phys().FlushLinesUncharged(at, keep - inode.size);
        background_zero_cycles_ += ctx.cost().NvmWriteBulkCycles(keep - inode.size) +
                                   flushed * ctx.cost().clwb_cycles;
      }
    }
  }

  // 4. Bitmap rebuild: leaked blocks (allocated but ownerless, e.g. a torn
  //    allocation) are reclaimed; conflicting files are quarantined.
  RebuildBitmap();

  // 5. Compact the replayed state into the other slot and flip. Failure
  //    degrades the mount instead of failing the boot.
  if (Status ck = Checkpoint(); !ck.ok()) {
    Degrade("recovery checkpoint failed: " + ck.ToString());
  } else if (auto sb = ReadSuperblock(); !sb.ok()) {
    // The write went through but the line does not read back (sticky media
    // fault): future boots cannot trust this mount's commits.
    Degrade("superblock unreadable after recovery: " + sb.status().ToString());
  } else if (journal_tail_bytes_ > 0) {
    std::vector<uint8_t> scratch(journal_tail_bytes_);
    if (!machine_->phys().ReadUncharged(SlotBase(active_slot_), scratch).ok()) {
      Degrade("journal slot unreadable after recovery");
    }
  }
  (void)sb_healthy;
  ops_records_ = 0;
  return OkStatus();
}

Result<ScrubReport> Pmfs::Scrub() {
  SimContext& ctx = machine_->ctx();
  ScrubReport report;
  bool healthy = true;
  std::string reason;
  auto note_unhealthy = [&](std::string r) {
    if (healthy) {
      healthy = false;
      reason = std::move(r);
    }
  };
  auto count_quarantined = [&] {
    uint64_t n = 0;
    for (const auto& [id, inode] : inodes_) {
      n += inode.quarantined ? 1 : 0;
    }
    return n;
  };
  const uint64_t quarantined_before = count_quarantined();

  // 1. Superblock: revalidate against in-memory truth; rewrite on damage.
  if (auto sb = ReadSuperblock(); !sb.ok()) {
    if (sb.status().code() == StatusCode::kMediaError) {
      ++report.media_errors_found;
    }
    (void)WriteSuperblock(active_slot_, generation_);
    report.superblock_rewritten = true;
    if (auto again = ReadSuperblock(); !again.ok()) {
      note_unhealthy("superblock cannot be repaired: " + again.status().ToString());
    }
  }

  // 2. Journal: the valid prefix must cover everything appended. A shorter
  //    prefix means torn or decayed records -- compact the (authoritative)
  //    in-memory state into the other slot.
  const SlotProbe probe = ParseSlot(active_slot_, /*apply=*/false, generation_);
  report.journal_records_checked = probe.records;
  if (probe.bytes < journal_tail_bytes_) {
    report.journal_truncated_bytes = journal_tail_bytes_ - probe.bytes;
    if (Status ck = Checkpoint(); ck.ok()) {
      report.journal_compacted = true;
    } else {
      note_unhealthy("journal compaction failed: " + ck.ToString());
    }
  }

  // 3. Media patrol, charged as one sequential read of the region. Poison
  //    in live file data quarantines the file; transient poison in free
  //    space heals by rewrite; sticky poison in free space is retired.
  ctx.Charge(ctx.cost().NvmReadBulkCycles(region_bytes_));
  std::unordered_map<uint64_t, InodeId> owner;
  for (const auto& [id, inode] : inodes_) {
    for (const FileExtent& e : inode.extents.Extents()) {
      if (e.paddr < region_base_ || e.paddr + e.bytes > region_base_ + region_bytes_) {
        continue;
      }
      for (uint64_t b = BlockOf(e.paddr); b < BlockOf(e.paddr) + (e.bytes >> kPageShift); ++b) {
        owner.emplace(b, id);
      }
    }
  }
  const FaultInjector* fi = machine_->phys().fault_injector();
  Paddr cursor = region_base_ + kPageSize;  // superblock handled above
  const Paddr end = region_base_ + region_bytes_;
  while (cursor < end) {
    auto bad = machine_->phys().FindUnreadableLineUncharged(cursor, end - cursor);
    if (!bad.has_value()) {
      break;
    }
    ++report.media_errors_found;
    const uint64_t block = BlockOf(*bad);
    const bool sticky = fi != nullptr && fi->IsSticky(*bad);
    if (block < meta_blocks_) {
      // Journal area. The active valid prefix was just re-verified (and
      // compacted away from any damage), so this line is reconstructible --
      // unless the medium refuses to take a rewrite.
      if (sticky) {
        note_unhealthy("sticky media fault inside the journal area");
      } else {
        const Paddr line = AlignDown(*bad, 64);
        (void)machine_->phys().ZeroUncharged(line, 64);
        (void)machine_->phys().FlushLinesUncharged(line, 64);
        ++report.blocks_repaired;
      }
    } else if (auto own = owner.find(block); own != owner.end()) {
      auto it = inodes_.find(own->second);
      if (it != inodes_.end() && !it->second.quarantined) {
        it->second.quarantined = true;
      }
    } else if (sticky) {
      bad_blocks_.insert(block);
      ++report.bad_blocks_retired;
    } else {
      (void)machine_->phys().ZeroUncharged(AddrOf(block), kPageSize);
      (void)machine_->phys().FlushLinesUncharged(AddrOf(block), kPageSize);
      ++report.blocks_repaired;
    }
    cursor = AlignDown(*bad, 64) + 64;
  }

  // 4. Structure: quarantine conflicting/out-of-range files and rebuild
  //    the bitmap around the survivors and the retired blocks.
  RebuildBitmap();
  report.files_quarantined = count_quarantined() - quarantined_before;

  // Quarantine verdicts must survive the next crash: they ride in checkpoint
  // snapshots (flag bit 4 of the create record), so commit one whenever this
  // scrub isolated a file.
  if (healthy && report.files_quarantined > 0) {
    if (Status ck = Checkpoint(); ck.ok()) {
      report.journal_compacted = true;
    } else {
      note_unhealthy("cannot persist quarantine verdicts: " + ck.ToString());
    }
  }

  // 5. Verdict. A scrub that repaired everything lifts a degraded mount
  //    back to read-write; one that could not, degrades it.
  if (healthy) {
    mount_mode_ = MountMode::kReadWrite;
    degrade_reason_.clear();
  } else {
    Degrade(reason);
  }
  report.degraded = mount_mode_ == MountMode::kDegraded;
  return report;
}

Status Pmfs::VerifyIntegrity() {
  SimContext& ctx = machine_->ctx();
  std::vector<bool> owned(region_bytes_ >> kPageShift, false);
  for (uint64_t b = 0; b < meta_blocks_; ++b) {
    owned[b] = true;
  }
  const Paddr data_base = AddrOf(meta_blocks_);
  for (auto& [id, inode] : inodes_) {
    if (inode.quarantined) {
      continue;  // already isolated; its claims are void
    }
    for (const FileExtent& e : inode.extents.Extents()) {
      ctx.Charge(ctx.cost().extent_tree_op_cycles);
      if (e.paddr < data_base || e.paddr + e.bytes > region_base_ + region_bytes_) {
        return Corruption("extent outside pmfs data area");
      }
      for (uint64_t b = BlockOf(e.paddr); b < BlockOf(e.paddr) + (e.bytes >> kPageShift); ++b) {
        if (owned[b]) {
          return Corruption("block owned by two extents");
        }
        owned[b] = true;
        if (!bitmap_.IsAllocated(b)) {
          return Corruption("extent block not marked allocated in bitmap");
        }
      }
    }
  }
  return OkStatus();
}

}  // namespace o1mem
