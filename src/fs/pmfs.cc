#include "src/fs/pmfs.h"

#include "src/obs/span.h"

#include <algorithm>
#include <tuple>

#include "src/sim/fault_injector.h"
#include "src/support/bits.h"
#include "src/support/byte_order.h"
#include "src/support/crc32.h"

namespace o1mem {

// --- journal wire format ----------------------------------------------------
//
// Record = 24 B header + fields, zero-padded to 8 B:
//   off  0  u32  len   (whole record, multiple of 8, >= 24)
//   off  4  u32  crc   (CRC-32 of the record with this field zeroed)
//   off  8  u64  generation
//   off 16  u8   op
//   off 17  u8[7] reserved
//   off 24  fields, as JournalFields lists them for the op
// Fields are little-endian; a string is a u16 length and its bytes; flags
// pack into one byte, the first listed in bit 0. A len of 0 is the
// end-of-journal sentinel; a generation mismatch marks stale bytes from the
// slot's previous life; a CRC mismatch or unreadable line marks a
// torn/decayed tail.

// One journal record: what a live op appends, what a checkpoint snapshot is
// made of, and what replay applies. Paths are views: of the caller's strings
// when encoding, of the slot bytes being parsed when decoding.
struct JournalRecord {
  enum class Op : uint8_t {
    kCreate = 1,
    kUnlink,
    kResize,
    kSetFlags,
    kAllocExtent,
    kMkdir,
    kRmdir,
    kRename,
    kLink,
  };
  Op op = Op::kCreate;
  InodeId inode = kInvalidInode;
  uint64_t size = 0;         // kResize
  uint64_t file_offset = 0;  // kAllocExtent: file bytes from file_offset
  uint64_t start = 0;        // live in blocks [start, start + count)
  uint64_t count = 0;
  bool persistent = false;   // kCreate, kSetFlags
  bool discardable = false;  // kCreate
  bool quarantined = false;  // kCreate (set only in checkpoint snapshots)
  std::string_view path1;
  std::string_view path2;    // kRename's destination
};

namespace {

using Op = JournalRecord::Op;

constexpr uint64_t kRecordHeaderBytes = 24;
constexpr uint64_t kSuperblockMagic = 0x4f31504d46533142ull;  // "O1PMFS1B"
constexpr uint32_t kSuperblockVersion = 1;

// The one field list of each record kind, in wire order. Sizing, encoding
// and decoding all walk it, so each layout is written once. `R` is const
// for the sizer and the writer.
template <class Io, class R>
void JournalFields(Io& io, R& r) {
  switch (r.op) {
    case Op::kCreate:
      io.U64(r.inode);
      io.Flags(r.persistent, r.discardable, r.quarantined);
      io.Str(r.path1);
      return;
    case Op::kUnlink:
    case Op::kMkdir:
    case Op::kRmdir:
      io.Str(r.path1);
      return;
    case Op::kRename:
      io.Str(r.path1);
      io.Str(r.path2);
      return;
    case Op::kLink:
      io.U64(r.inode);
      io.Str(r.path1);
      return;
    case Op::kResize:
      io.U64(r.inode);
      io.U64(r.size);
      return;
    case Op::kSetFlags:
      io.U64(r.inode);
      io.Flags(r.persistent);
      return;
    case Op::kAllocExtent:
      io.U64(r.inode);
      io.U64(r.file_offset);
      io.U64(r.start);
      io.U64(r.count);
      return;
  }
}

struct FieldSizer {
  uint64_t bytes = 0;
  void U64(uint64_t) { bytes += 8; }
  void Flags(auto...) { bytes += 1; }
  void Str(std::string_view s) { bytes += 2 + s.size(); }
};

// Writes fields at a cursor into space FieldSizer measured.
struct FieldWriter {
  uint8_t* p;
  void U64(uint64_t x) {
    StoreLe(p, x);
    p += 8;
  }
  template <class... B>
  void Flags(B... flags) {
    unsigned byte = 0;
    unsigned bit = 0;
    ((byte |= (flags ? 1u : 0u) << bit++), ...);
    *p++ = static_cast<uint8_t>(byte);
  }
  void Str(std::string_view s) {
    O1_CHECK_MSG(s.size() <= 0xFFFF, "pmfs path too long for journal record");
    StoreLe(p, static_cast<uint16_t>(s.size()));
    p = std::copy(s.begin(), s.end(), p + 2);
  }
};

// Bounds-checked field reader; any overrun fails the whole decode.
struct FieldReader {
  std::span<const uint8_t> in;
  bool fail = false;

  const uint8_t* Take(uint64_t n) {
    if (fail || n > in.size()) {
      fail = true;
      return nullptr;
    }
    const uint8_t* p = in.data();
    in = in.subspan(n);
    return p;
  }
  void U64(uint64_t& x) {
    if (const uint8_t* p = Take(8)) {
      x = LoadLe<uint64_t>(p);
    }
  }
  template <class... B>
  void Flags(B&... flags) {
    if (const uint8_t* p = Take(1)) {
      unsigned bit = 0;
      ((flags = ((*p >> bit++) & 1) != 0), ...);
    }
  }
  void Str(std::string_view& s) {
    uint16_t n = 0;
    if (const uint8_t* len = Take(2)) {
      n = LoadLe<uint16_t>(len);
    }
    const uint8_t* p = Take(n);
    if (!fail) {
      s = std::string_view(reinterpret_cast<const char*>(p), n);
    }
  }
};

uint64_t EncodedBytes(const JournalRecord& rec) {
  FieldSizer sizer;
  JournalFields(sizer, rec);
  return AlignUp(kRecordHeaderBytes + sizer.bytes, 8);
}

// Appends `rec` to `out` with its generation and CRC still zero.
void Encode(const JournalRecord& rec, std::vector<uint8_t>& out) {
  const size_t at = out.size();
  const uint64_t len = EncodedBytes(rec);
  out.resize(at + len, 0);
  StoreLe(out.data() + at, static_cast<uint32_t>(len));
  out[at + 16] = static_cast<uint8_t>(rec.op);
  FieldWriter writer{out.data() + at + kRecordHeaderBytes};
  JournalFields(writer, rec);
}

// Stamps generation and CRC into one encoded record; must be the last
// mutation before the bytes reach NVM.
void Stamp(std::span<uint8_t> rec, uint64_t generation) {
  StoreLe(rec.data() + 8, generation);
  StoreLe(rec.data() + 4, uint32_t{0});
  StoreLe(rec.data() + 4, Crc32(rec));
}

std::optional<JournalRecord> Decode(std::span<const uint8_t> rec) {
  const uint8_t op = rec[16];
  if (op < static_cast<uint8_t>(Op::kCreate) || op > static_cast<uint8_t>(Op::kLink)) {
    return std::nullopt;
  }
  JournalRecord r{.op = static_cast<Op>(op)};
  FieldReader reader{rec.subspan(kRecordHeaderBytes)};
  JournalFields(reader, r);
  if (reader.fail) {
    return std::nullopt;
  }
  return r;
}

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
  StoreLe(line.data(), kSuperblockMagic);
  StoreLe(line.data() + 8, kSuperblockVersion);
  StoreLe(line.data() + 12, active_slot);
  StoreLe(line.data() + 16, generation);
  StoreLe(line.data() + 24, slot_blocks_);
  StoreLe(line.data() + 32, region_bytes_ >> kPageShift);
  StoreLe(line.data() + 60, Crc32(std::span<const uint8_t>(line.data(), 60)));
  O1_RETURN_IF_ERROR(machine_->phys().Write(region_base_, line));
  return machine_->phys().FlushLines(region_base_, 64);
}

Result<std::pair<uint32_t, uint64_t>> Pmfs::ReadSuperblock() {
  std::array<uint8_t, 64> line{};
  O1_RETURN_IF_ERROR(machine_->phys().Read(region_base_, line));
  if (LoadLe<uint32_t>(line.data() + 60) != Crc32(std::span<const uint8_t>(line.data(), 60))) {
    return Corruption("pmfs superblock checksum mismatch");
  }
  if (LoadLe<uint64_t>(line.data()) != kSuperblockMagic ||
      LoadLe<uint32_t>(line.data() + 8) != kSuperblockVersion) {
    return Corruption("pmfs superblock magic/version mismatch");
  }
  const uint32_t active = LoadLe<uint32_t>(line.data() + 12);
  if (active > 1 || LoadLe<uint64_t>(line.data() + 24) != slot_blocks_ ||
      LoadLe<uint64_t>(line.data() + 32) != (region_bytes_ >> kPageShift)) {
    return Corruption("pmfs superblock names a different geometry");
  }
  return std::make_pair(active, LoadLe<uint64_t>(line.data() + 16));
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
  Stamp(rec, generation_);
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

template <class Apply>
Status Pmfs::Commit(const JournalRecord& rec, Apply&& apply) {
  std::vector<uint8_t> bytes;
  Encode(rec, bytes);
  O1_RETURN_IF_ERROR(ReserveJournal(bytes.size()));
  O1_RETURN_IF_ERROR(apply());
  return AppendRecord(bytes);
}

Status Pmfs::Commit(const JournalRecord& rec) {
  return Commit(rec, [&] { return ApplyRecord(rec); });
}

std::vector<uint8_t> Pmfs::EncodeSnapshot(uint64_t generation) const {
  std::vector<uint8_t> buf;
  auto emit = [&](const JournalRecord& rec) {
    const size_t at = buf.size();
    Encode(rec, buf);
    Stamp(std::span<uint8_t>(buf).subspan(at), generation);
  };
  // Directories first, sorted, so parents precede children at replay.
  for (const std::string& dir : ns_.AllDirs()) {
    emit({.op = Op::kMkdir, .path1 = dir});
  }
  // One create per inode (its first path), then extents, size, extra links.
  std::map<InodeId, std::vector<std::string>> paths;
  for (const auto& [path, id] : ns_.AllFiles()) {
    paths[id].push_back(path);
  }
  for (const auto& [id, plist] : paths) {
    const Inode& inode = inodes_.at(id);
    emit({.op = Op::kCreate,
          .inode = id,
          .persistent = inode.flags.persistent,
          .discardable = inode.flags.discardable,
          .quarantined = inode.quarantined,
          .path1 = plist.front()});
    for (const FileExtent& e : inode.extents.Extents()) {
      // Quarantined files can hold garbage extents; only well-formed,
      // in-region ones are worth snapshotting.
      if (InDataArea(e)) {
        emit({.op = Op::kAllocExtent,
              .inode = id,
              .file_offset = e.file_offset,
              .start = BlockOf(e.paddr),
              .count = e.bytes >> kPageShift});
      }
    }
    emit({.op = Op::kResize, .inode = id, .size = inode.size});
    for (size_t i = 1; i < plist.size(); ++i) {
      emit({.op = Op::kLink, .inode = id, .path1 = plist[i]});
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

Status Pmfs::ApplyRecord(const JournalRecord& r) {
  switch (r.op) {
    case Op::kCreate: {
      O1_RETURN_IF_ERROR(ns_.AddFile(r.path1, r.inode));
      Inode inode(&machine_->ctx());
      inode.id = r.inode;
      inode.flags.persistent = r.persistent;
      inode.flags.discardable = r.discardable;
      inode.quarantined = r.quarantined;
      inode.links = 1;
      inode.provider = std::make_unique<DaxProvider>(this, r.inode);
      inodes_.emplace(r.inode, std::move(inode));
      next_inode_ = std::max(next_inode_, r.inode + 1);
      return OkStatus();
    }
    case Op::kUnlink: {
      O1_ASSIGN_OR_RETURN(const InodeId id, ns_.RemoveFile(r.path1));
      if (auto it = inodes_.find(id); it != inodes_.end()) {
        if (it->second.links > 0) {
          it->second.links--;
        }
        if (it->second.links == 0) {
          // Extents vanish with the inode; the bitmap rebuild reclaims the
          // blocks and the kZeroEpoch re-zero pass clears them.
          inodes_.erase(it);
        }
      }
      return OkStatus();
    }
    case Op::kResize: {
      O1_ASSIGN_OR_RETURN(Inode * inode, Get(r.inode));
      inode->size = r.size;
      const uint64_t keep = AlignUp(r.size, kPageSize);
      if (keep < inode->extents.mapped_bytes()) {
        (void)inode->extents.TruncateFrom(keep);
      }
      return OkStatus();
    }
    case Op::kSetFlags: {
      O1_ASSIGN_OR_RETURN(Inode * inode, Get(r.inode));
      inode->flags.persistent = r.persistent;
      return OkStatus();
    }
    case Op::kAllocExtent: {
      O1_ASSIGN_OR_RETURN(Inode * inode, Get(r.inode));
      return inode->extents.Insert(r.file_offset, AddrOf(r.start), r.count << kPageShift);
    }
    case Op::kMkdir:
      return ns_.Mkdir(r.path1);
    case Op::kRmdir:
      return ns_.Rmdir(r.path1);
    case Op::kRename:
      return ns_.Rename(r.path1, r.path2);
    case Op::kLink: {
      O1_ASSIGN_OR_RETURN(Inode * inode, Get(r.inode));
      O1_RETURN_IF_ERROR(ns_.AddFile(r.path1, r.inode));
      inode->links++;
      return OkStatus();
    }
  }
  return OkStatus();
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
    const uint32_t len = LoadLe<uint32_t>(head.data());
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
    const uint32_t stored_crc = LoadLe<uint32_t>(rec.data() + 4);
    StoreLe(rec.data() + 4, uint32_t{0});
    if (Crc32(rec) != stored_crc) {
      probe.truncated = true;  // torn or decayed record
      break;
    }
    const uint64_t gen = LoadLe<uint64_t>(rec.data() + 8);
    if (expect_generation == 0) {
      expect_generation = gen;  // probe mode: first record names the slot
    }
    if (gen != expect_generation) {
      break;  // stale bytes from the slot's previous generation
    }
    auto decoded = Decode(rec);
    if (!decoded.has_value()) {
      probe.truncated = true;
      break;
    }
    if (apply) {
      (void)ApplyRecord(*decoded);  // a record that no longer applies is skipped
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

Status Pmfs::CheckWritable() const {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  return OkStatus();
}

Result<Pmfs::Inode*> Pmfs::GetWritable(InodeId id) {
  O1_RETURN_IF_ERROR(CheckWritable());
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
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  const InodeId id = next_inode_;
  const JournalRecord rec{.op = Op::kCreate,
                          .inode = id,
                          .persistent = flags.persistent,
                          .discardable = flags.discardable,
                          .path1 = norm};
  O1_RETURN_IF_ERROR(Commit(rec, [&] {
    Status created = ApplyRecord(rec);
    if (created.ok()) {
      TouchAtime(inodes_.at(id));
    }
    return created;
  }));
  return id;
}

Result<InodeId> Pmfs::CreateVolatile(const FileFlags& flags) {
  O1_RETURN_IF_ERROR(CheckWritable());
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
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().file_delete_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  // Committed before any block is freed or zeroed: replay either sees the
  // unlink or a fully intact file, never a half-released one.
  InodeId id = kInvalidInode;
  O1_RETURN_IF_ERROR(Commit(JournalRecord{.op = Op::kUnlink, .path1 = norm}, [&] {
    O1_ASSIGN_OR_RETURN(id, ns_.RemoveFile(norm));
    return OkStatus();
  }));
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
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  return Commit(JournalRecord{.op = Op::kMkdir, .path1 = norm});
}

Status Pmfs::Rmdir(std::string_view path) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  return Commit(JournalRecord{.op = Op::kRmdir, .path1 = norm});
}

Result<std::vector<DirEntry>> Pmfs::List(std::string_view path) {
  machine_->ctx().Charge(machine_->ctx().cost().file_lookup_cycles);
  return ns_.List(path);
}

Status Pmfs::Rename(std::string_view from, std::string_view to) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm_from, Namespace::Normalize(from));
  O1_ASSIGN_OR_RETURN(const std::string norm_to, Namespace::Normalize(to));
  return Commit(JournalRecord{.op = Op::kRename, .path1 = norm_from, .path2 = norm_to});
}

Status Pmfs::Link(std::string_view existing, std::string_view new_path) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const InodeId id, ns_.LookupFile(existing));
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(new_path));
  return Commit(JournalRecord{.op = Op::kLink, .inode = id, .path1 = norm});
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

Status Pmfs::GrowTo(Inode& inode, uint64_t new_size, bool single_extent) {
  const JournalRecord size_rec{.op = Op::kResize, .inode = inode.id, .size = new_size};
  uint64_t allocated = inode.extents.mapped_bytes();
  const uint64_t target = AlignUp(new_size, kPageSize);
  while (allocated < target) {
    const uint64_t want_blocks = (target - allocated) >> kPageShift;
    O1_ASSIGN_OR_RETURN(const BlockExtent extent,
                        single_extent ? bitmap_.AllocExtent(want_blocks)
                                      : bitmap_.AllocExtentAtMost(want_blocks, 1));
    const Paddr paddr = AddrOf(extent.start);
    const uint64_t bytes = extent.count << kPageShift;
    if (zero_policy_ == ZeroPolicy::kEagerZero) {
      // Zero BEFORE the journal can map the extent into the file: a crash
      // in between leaves an unowned zeroed run for recovery to reclaim,
      // never a reachable extent of another file's stale bytes.
      O1_RETURN_IF_ERROR(machine_->phys().Zero(paddr, bytes));
      O1_RETURN_IF_ERROR(machine_->phys().FlushLines(paddr, bytes));
    }
    // kZeroEpoch: blocks were zeroed in the background when freed, so the
    // foreground allocation path does no per-byte work.
    const JournalRecord grant{.op = Op::kAllocExtent,
                              .inode = inode.id,
                              .file_offset = allocated,
                              .start = extent.start,
                              .count = extent.count};
    if (!inode.journaled) {
      // Unjournaled volatile inode: a crash leaves these blocks unowned and
      // the bitmap rebuild frees them, which is exactly the teardown a
      // linked volatile file would get.
      O1_RETURN_IF_ERROR(ApplyRecord(grant));
    } else {
      if (single_extent) {
        // One reservation for both records: no checkpoint can fall between
        // the extent and the size that exposes it.
        O1_RETURN_IF_ERROR(ReserveJournal(EncodedBytes(grant) + EncodedBytes(size_rec)));
      }
      O1_RETURN_IF_ERROR(Commit(grant));
    }
    allocated += bytes;
  }
  // The size commits LAST: replay exposes only fully journaled extents, and
  // a crash mid-grow leaves the file readable at its old size.
  auto set_size = [&] {
    inode.size = new_size;
    return OkStatus();
  };
  return inode.journaled ? Commit(size_rec, set_size) : set_size();
}

Status Pmfs::BackgroundZero(Paddr paddr, uint64_t bytes) {
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
    // kZeroEpoch clears contents before the blocks can be reallocated, with
    // the cycles booked off the critical path.
    if (zero_policy_ == ZeroPolicy::kZeroEpoch) {
      O1_RETURN_IF_ERROR(BackgroundZero(e.paddr, e.bytes));
    }
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
  O1_RETURN_IF_ERROR(GrowTo(*inode, size, /*single_extent=*/true));
  TouchAtime(*inode);
  return OkStatus();
}

Status Pmfs::Resize(InodeId id, uint64_t size) {
  O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  TouchAtime(*inode);
  if (size >= inode->size) {
    return GrowTo(*inode, size, /*single_extent=*/false);
  }
  // Shrink: commit the new size FIRST, so a crash mid-free never zeroes
  // blocks a replayed journal still maps into the file.
  O1_RETURN_IF_ERROR(Commit(JournalRecord{.op = Op::kResize, .inode = id, .size = size},
                            [] { return OkStatus(); }));
  return ShrinkTo(*inode, size);
}

// --- data path --------------------------------------------------------------

Result<Paddr> Pmfs::GetBackingPage(InodeId id, uint64_t offset, bool for_write) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    return MediaError("pmfs file quarantined");
  }
  if (for_write) {
    O1_RETURN_IF_ERROR(CheckWritable());
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
  O1_RETURN_IF_ERROR(CheckWritable());
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
  return Commit(JournalRecord{.op = Op::kSetFlags, .inode = id, .persistent = persistent});
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
  O1_RETURN_IF_ERROR(CheckWritable());
  auto extent = bitmap_.AllocExtent(blocks);
  if (!extent.ok()) {
    return extent.status();
  }
  // Deliberately forget the owner: simulates a torn allocation where the
  // bitmap update persisted but the extent-tree/journal commit did not.
  return OkStatus();
}

// --- block ownership + recovery ---------------------------------------------

bool Pmfs::InDataArea(const FileExtent& e) const {
  return e.paddr >= AddrOf(meta_blocks_) && e.paddr + e.bytes <= region_base_ + region_bytes_ &&
         IsAligned(e.paddr, kPageSize) && IsAligned(e.bytes, kPageSize);
}

std::optional<InodeId> Pmfs::BlockClaims::OwnerOf(uint64_t block) const {
  // Runs overlap only within one inode, so the last run that starts at or
  // below a claimed block names its owner even when an earlier run holds it.
  auto it = std::upper_bound(runs.begin(), runs.end(), block,
                             [](uint64_t b, const Run& run) { return b < run.start; });
  if (it == runs.begin() || ((owned[block >> 6] >> (block & 63)) & 1) == 0) {
    return std::nullopt;
  }
  return std::prev(it)->owner;
}

Pmfs::BlockClaims Pmfs::ClaimBlocks(bool include_quarantined) const {
  const uint64_t blocks = bitmap_.block_count();
  BlockClaims claims;
  claims.owned.assign((blocks + 63) / 64, 0);
  AssignBits(claims.owned, 0, meta_blocks_, true);
  // Deterministic order: the lowest inode id keeps contested blocks.
  std::vector<InodeId> ids;
  ids.reserve(inodes_.size());
  for (const auto& [id, inode] : inodes_) {
    if (include_quarantined || !inode.quarantined) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (InodeId id : ids) {
    const std::vector<FileExtent> extents = inodes_.at(id).extents.Extents();
    claims.extents += extents.size();
    const char* fault = nullptr;
    for (const FileExtent& e : extents) {
      if (!InDataArea(e)) {
        fault = "extent outside pmfs data area";
        break;
      }
      const uint64_t end = BlockOf(e.paddr) + (e.bytes >> kPageShift);
      if (FindBit(claims.owned, BlockOf(e.paddr), end, true) != end) {
        fault = "block owned by two extents";
        break;
      }
    }
    if (fault != nullptr) {
      if (claims.rejected.empty()) {
        claims.first_fault = Corruption(fault);
      }
      claims.rejected.push_back(id);
      continue;
    }
    for (const FileExtent& e : extents) {
      const BlockClaims::Run run{
          .start = BlockOf(e.paddr), .count = e.bytes >> kPageShift, .owner = id};
      AssignBits(claims.owned, run.start, run.count, true);
      claims.runs.push_back(run);
    }
  }
  std::sort(claims.runs.begin(), claims.runs.end(),
            [](const BlockClaims::Run& a, const BlockClaims::Run& b) { return a.start < b.start; });
  return claims;
}

void Pmfs::RebuildBitmap(BlockClaims claims) {
  // All-or-nothing claims: a file with a conflicting or out-of-range extent
  // keeps NO blocks and is quarantined instead of aborting the mount.
  for (InodeId id : claims.rejected) {
    inodes_.at(id).quarantined = true;
  }
  // Sticky-unreadable lines reported by the platform (ARS-style bad-line
  // list) are fenced off so the allocator never hands them out; a block a
  // file claimed stays its own.
  const FaultInjector* fi = machine_->phys().fault_injector();
  if (fi != nullptr && fi->has_poison()) {
    Paddr cursor = region_base_;
    const Paddr end = region_base_ + region_bytes_;
    while (cursor < end) {
      auto bad = machine_->phys().FindUnreadableLineUncharged(cursor, end - cursor);
      if (!bad.has_value()) {
        break;
      }
      if (BlockOf(*bad) >= meta_blocks_ && fi->IsSticky(*bad)) {
        AssignBits(claims.owned, BlockOf(*bad), 1, true);
      }
      cursor = AlignDown(*bad, 64) + 64;
    }
  }
  Status reset = bitmap_.Reset(claims.owned);
  O1_CHECK(reset.ok());
  // kZeroEpoch hands out pre-zeroed blocks; a crash may have interrupted a
  // background zero, so re-zero each free run before it can be reallocated.
  if (zero_policy_ == ZeroPolicy::kZeroEpoch) {
    const uint64_t blocks = bitmap_.block_count();
    for (uint64_t run = FindBit(claims.owned, meta_blocks_, blocks, false); run < blocks;) {
      const uint64_t run_end = FindBit(claims.owned, run, blocks, true);
      Status zeroed = BackgroundZero(AddrOf(run), (run_end - run) << kPageShift);
      O1_CHECK(zeroed.ok());
      run = FindBit(claims.owned, run_end, blocks, false);
    }
  }
}

Status Pmfs::OnCrash() {
  SimContext& ctx = machine_->ctx();
  // Reboot trusts nothing but NVM: forget all in-memory state.
  ns_.Clear();
  inodes_.clear();
  next_inode_ = 1;
  mount_mode_ = MountMode::kReadWrite;
  degrade_reason_.clear();
  ops_records_ = 0;

  // 1. Superblock names the active slot; on damage, probe both slots and
  //    adopt the one with the newest valid generation.
  uint32_t slot = 0;
  uint64_t gen = 0;
  if (auto sb = ReadSuperblock(); sb.ok()) {
    slot = sb->first;
    gen = sb->second;
  } else {
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
  //    volatile files go with them, unlinked name by name as replay would
  //    (metadata-only teardown; the closing checkpoint persists the result
  //    and the bitmap rebuild frees blocks).
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
    (void)ApplyRecord(JournalRecord{.op = Op::kUnlink, .path1 = path});
  }
  // A shrink commits its size record before zeroing the kept tail, so a
  // crash can leave dead bytes between size and the page boundary; clear
  // them now, off the critical path (nothing live can sit past the final
  // size -- growing writes always extend the size first).
  for (auto& [id, inode] : inodes_) {
    const uint64_t keep = AlignUp(inode.size, kPageSize);
    if (inode.size < keep && inode.size < inode.extents.mapped_bytes()) {
      if (auto tail = inode.extents.Lookup(inode.size); tail.has_value()) {
        (void)BackgroundZero(tail->paddr + (inode.size - tail->file_offset), keep - inode.size);
      }
    }
  }

  // 4. Bitmap rebuild: leaked blocks (allocated but ownerless, e.g. a torn
  //    allocation) are reclaimed; conflicting files are quarantined.
  RebuildBitmap(ClaimBlocks(/*include_quarantined=*/true));

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
  //    in live file data quarantines the file that claimed the block;
  //    transient poison in free space heals by rewrite; sticky poison in
  //    free space is retired.
  ctx.Charge(ctx.cost().NvmReadBulkCycles(region_bytes_));
  BlockClaims claims = ClaimBlocks(/*include_quarantined=*/true);
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
    } else if (auto owner = claims.OwnerOf(block); owner.has_value()) {
      inodes_.at(*owner).quarantined = true;
    } else if (sticky) {
      ++report.bad_blocks_retired;  // the bitmap rebuild fences it off
    } else {
      (void)machine_->phys().ZeroUncharged(AddrOf(block), kPageSize);
      (void)machine_->phys().FlushLinesUncharged(AddrOf(block), kPageSize);
      ++report.blocks_repaired;
    }
    cursor = AlignDown(*bad, 64) + 64;
  }

  // 4. Structure: quarantine conflicting/out-of-range files and rebuild
  //    the bitmap around the survivors and the retired blocks.
  RebuildBitmap(std::move(claims));
  report.files_quarantined = count_quarantined() - quarantined_before;

  // Quarantine verdicts must survive the next crash: they ride in checkpoint
  // snapshots (the create record's quarantined flag), so commit one whenever
  // this scrub isolated a file.
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
  // Quarantined files are already isolated; their claims are void.
  const BlockClaims claims = ClaimBlocks(/*include_quarantined=*/false);
  SimContext& ctx = machine_->ctx();
  ctx.Charge(claims.extents * ctx.cost().extent_tree_op_cycles);
  O1_RETURN_IF_ERROR(claims.first_fault);
  // The claim pass kept inodes apart; two extents of one inode may still
  // share a block.
  uint64_t claimed_end = 0;
  for (const BlockClaims::Run& run : claims.runs) {
    if (run.start < claimed_end) {
      return Corruption("block owned by two extents");
    }
    claimed_end = run.start + run.count;
    if (!bitmap_.AllAllocated(BlockExtent{.start = run.start, .count = run.count})) {
      return Corruption("extent block not marked allocated in bitmap");
    }
  }
  return OkStatus();
}

}  // namespace o1mem
