// persistent_kv: a crash-safe key-value store built on file-only memory.
//
// The store is ONE persistent segment file mapped into the process; its
// layout is a header + open-addressing hash table of fixed-size slots, all
// accessed through ordinary loads/stores (no serialization, no buffer
// cache). Because the segment is a persistent PMFS file:
//   * the whole store maps in O(1) at startup -- no warm-up, no recovery
//     scan of data pages;
//   * a power failure loses nothing that a Put completed (the simulated NVM
//     retains every store);
//   * deleting the store is unlink(), not a page-by-page teardown.
//
// This is the kind of application Sec. 3.1 sketches: "recovery of large
// in-memory data sets after a process crash".
#include <cstdio>
#include <cstring>

#include "src/os/system.h"

using namespace o1mem;

namespace {

constexpr uint64_t kSlots = 1 << 16;
constexpr uint64_t kKeyBytes = 32;
constexpr uint64_t kValueBytes = 88;

struct Slot {
  uint8_t used = 0;
  char key[kKeyBytes] = {};
  char value[kValueBytes] = {};
};

// Copies `text` into a fixed-size field, cut short to leave room for its
// terminator, and zero-fills the rest of the field.
template <size_t N>
void CopyField(char (&field)[N], const char* text) {
  const size_t len = strnlen(text, N - 1);
  std::memcpy(field, text, len);
  std::memset(field + len, 0, N - len);
}

struct Header {
  uint64_t magic = 0;
  uint64_t slots = 0;
  uint64_t live = 0;
};

constexpr uint64_t kMagic = 0x6f316d656d6b7621ULL;  // "o1memkv!"
constexpr uint64_t kStoreBytes = sizeof(Header) + kSlots * sizeof(Slot);

// A tiny typed view over the mapped store. All persistence happens through
// UserRead/UserWrite on the mapping -- the store has no other I/O path.
class KvStore {
 public:
  KvStore(System* sys, Process* proc, Vaddr base) : sys_(sys), proc_(proc), base_(base) {}

  Status Format() {
    Header header;
    header.magic = kMagic;
    header.slots = kSlots;
    header.live = 0;
    return WriteRaw(0, &header, sizeof(header));
  }

  // True if the mapped segment already contains a formatted store.
  Result<Header> ReadHeader() {
    Header header;
    O1_RETURN_IF_ERROR(ReadRaw(0, &header, sizeof(header)));
    if (header.magic != kMagic || header.slots != kSlots) {
      return Corruption("not a kv store (or wrong geometry)");
    }
    return header;
  }

  Status Put(const char* key, const char* value) {
    uint64_t index = Hash(key) % kSlots;
    for (uint64_t probe = 0; probe < kSlots; ++probe, index = (index + 1) % kSlots) {
      Slot slot;
      O1_RETURN_IF_ERROR(ReadRaw(SlotOffset(index), &slot, sizeof(slot)));
      const bool match = slot.used != 0 && std::strncmp(slot.key, key, kKeyBytes) == 0;
      if (slot.used != 0 && !match) {
        continue;
      }
      const bool fresh = slot.used == 0;
      slot.used = 1;
      CopyField(slot.key, key);
      CopyField(slot.value, value);
      O1_RETURN_IF_ERROR(WriteRaw(SlotOffset(index), &slot, sizeof(slot)));
      if (fresh) {
        Header header;
        O1_RETURN_IF_ERROR(ReadRaw(0, &header, sizeof(header)));
        header.live++;
        O1_RETURN_IF_ERROR(WriteRaw(0, &header, sizeof(header)));
      }
      return OkStatus();
    }
    return OutOfMemory("kv store full");
  }

  Result<std::string> Get(const char* key) {
    uint64_t index = Hash(key) % kSlots;
    for (uint64_t probe = 0; probe < kSlots; ++probe, index = (index + 1) % kSlots) {
      Slot slot;
      O1_RETURN_IF_ERROR(ReadRaw(SlotOffset(index), &slot, sizeof(slot)));
      if (slot.used == 0) {
        return NotFound("no such key");
      }
      if (std::strncmp(slot.key, key, kKeyBytes) == 0) {
        return std::string(slot.value);
      }
    }
    return NotFound("no such key");
  }

 private:
  static uint64_t SlotOffset(uint64_t index) { return sizeof(Header) + index * sizeof(Slot); }

  static uint64_t Hash(const char* key) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (const char* p = key; *p != '\0'; ++p) {
      h = (h ^ static_cast<uint8_t>(*p)) * 1099511628211ULL;
    }
    return h;
  }

  Status WriteRaw(uint64_t offset, const void* data, uint64_t len) {
    return sys_->UserWrite(*proc_, base_ + offset,
                           std::span<const uint8_t>(static_cast<const uint8_t*>(data), len));
  }
  Status ReadRaw(uint64_t offset, void* data, uint64_t len) {
    return sys_->UserRead(*proc_, base_ + offset,
                          std::span<uint8_t>(static_cast<uint8_t*>(data), len));
  }

  System* sys_;
  Process* proc_;
  Vaddr base_;
};

// Opens (or creates+formats) the store for a process; returns the view.
Result<KvStore> OpenStore(System& sys, Process* proc) {
  InodeId seg = kInvalidInode;
  bool fresh = false;
  if (auto existing = sys.fom().OpenSegment("/db/kv"); existing.ok()) {
    seg = *existing;
  } else {
    auto created = sys.fom().CreateSegment(
        "/db/kv", kStoreBytes, SegmentOptions{.flags = FileFlags{.persistent = true}});
    if (!created.ok()) {
      return created.status();
    }
    seg = *created;
    fresh = true;
  }
  auto base = sys.fom().Map(proc->fom(), seg, Prot::kReadWrite);
  if (!base.ok()) {
    return base.status();
  }
  KvStore store(&sys, proc, *base);
  if (fresh) {
    O1_RETURN_IF_ERROR(store.Format());
  } else if (auto header = store.ReadHeader(); !header.ok()) {
    return header.status();
  }
  return store;
}

}  // namespace

int main() {
  SystemConfig config;
  config.machine.dram_bytes = 2 * kGiB;
  config.machine.nvm_bytes = 8 * kGiB;
  System sys(config);

  // Generation 1: create the store and fill it.
  {
    Process* proc = sys.Launch(Backend::kFom).value();
    const uint64_t t0 = sys.ctx().now();
    KvStore store = OpenStore(sys, proc).value();
    std::printf("store created+mapped in %.1f us (size %llu MiB)\n",
                sys.ctx().clock().CyclesToUs(sys.ctx().now() - t0),
                static_cast<unsigned long long>(kStoreBytes / kMiB));
    char key[32];
    char value[64];
    for (int i = 0; i < 10000; ++i) {
      std::snprintf(key, sizeof(key), "user:%d", i);
      std::snprintf(value, sizeof(value), "profile-%d@example.com", i);
      O1_CHECK(store.Put(key, value).ok());
    }
    std::printf("put 10000 entries; header.live=%llu\n",
                static_cast<unsigned long long>(store.ReadHeader()->live));
  }

  // Power failure between generations.
  O1_CHECK(sys.Crash().ok());
  std::printf("\n*** power failure ***\n\n");

  // Generation 2: reopen -- O(1) map, no recovery scan -- and read back.
  {
    Process* proc = sys.Launch(Backend::kFom).value();
    const uint64_t t0 = sys.ctx().now();
    KvStore store = OpenStore(sys, proc).value();
    const double reopen_us = sys.ctx().clock().CyclesToUs(sys.ctx().now() - t0);
    auto header = store.ReadHeader();
    O1_CHECK(header.ok());
    std::printf("reopened in %.1f us; %llu live entries survived\n", reopen_us,
                static_cast<unsigned long long>(header->live));
    int verified = 0;
    char key[32];
    char expected[64];
    for (int i = 0; i < 10000; i += 997) {
      std::snprintf(key, sizeof(key), "user:%d", i);
      std::snprintf(expected, sizeof(expected), "profile-%d@example.com", i);
      auto got = store.Get(key);
      O1_CHECK(got.ok());
      O1_CHECK_MSG(*got == expected, "value mismatch after crash");
      ++verified;
    }
    std::printf("spot-checked %d keys: all intact\n", verified);
    // And updates keep working.
    O1_CHECK(store.Put("user:0", "updated@example.com").ok());
    std::printf("post-recovery update: user:0 -> %s\n", store.Get("user:0")->c_str());
  }
  return 0;
}
