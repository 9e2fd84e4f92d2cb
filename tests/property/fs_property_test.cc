// Property test: both file systems behave like an ideal byte store.
//
// A random stream of create/write/read/resize/unlink operations runs against
// tmpfs and PMFS (both zeroing policies) in lockstep with a reference model
// (path -> byte vector). Reads must always return exactly the model's bytes
// (including zeros for holes); PMFS must additionally pass integrity
// verification throughout, and its persistent files must survive a crash
// with contents intact while volatile files vanish.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/fs/pmfs.h"
#include "src/fs/tmpfs.h"
#include "src/mm/phys_manager.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

// 64-bit so Param has no padding: gtest prints a Param's raw bytes into each
// case's listed name, and padding bytes would make that name vary per run.
enum class FsKind : uint64_t { kTmpfs, kPmfsEager, kPmfsEpoch };

struct Param {
  FsKind fs;
  uint64_t seed;
};

class FsProperty : public ::testing::TestWithParam<Param> {
 protected:
  FsProperty()
      : machine_(MachineConfig{.dram_bytes = 128 * kMiB, .nvm_bytes = 128 * kMiB}),
        phys_mgr_(&machine_) {
    switch (GetParam().fs) {
      case FsKind::kTmpfs:
        tmpfs_ = std::make_unique<Tmpfs>(&machine_, &phys_mgr_, 96 * kMiB);
        fs_ = tmpfs_.get();
        break;
      case FsKind::kPmfsEager:
        pmfs_ = std::make_unique<Pmfs>(&machine_, machine_.phys().nvm_base(), 128 * kMiB,
                                       ZeroPolicy::kEagerZero);
        fs_ = pmfs_.get();
        break;
      case FsKind::kPmfsEpoch:
        pmfs_ = std::make_unique<Pmfs>(&machine_, machine_.phys().nvm_base(), 128 * kMiB,
                                       ZeroPolicy::kZeroEpoch);
        fs_ = pmfs_.get();
        break;
    }
  }

  Machine machine_;
  PhysManager phys_mgr_;
  std::unique_ptr<Tmpfs> tmpfs_;
  std::unique_ptr<Pmfs> pmfs_;
  FileSystem* fs_ = nullptr;
};

TEST_P(FsProperty, BehavesLikeAByteStore) {
  Rng rng(GetParam().seed);
  std::map<std::string, std::vector<uint8_t>> model;  // reference contents
  std::map<std::string, InodeId> inodes;
  int created = 0;

  for (int step = 0; step < 300; ++step) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 20 && created < 40) {
      // Create.
      const std::string path = "/f" + std::to_string(created++);
      FileFlags flags;
      flags.persistent = GetParam().fs != FsKind::kTmpfs && rng.NextBool(0.5);
      auto inode = fs_->Create(path, flags);
      ASSERT_TRUE(inode.ok());
      inodes[path] = *inode;
      model[path] = {};
    } else if (dice < 55 && !model.empty()) {
      // Write at a random offset (may extend the file).
      auto it = std::next(model.begin(), static_cast<int>(rng.NextBelow(model.size())));
      const uint64_t offset = rng.NextBelow(96 * kKiB);
      std::vector<uint8_t> data(rng.NextInRange(1, 16 * kKiB));
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      auto wrote = fs_->WriteAt(inodes.at(it->first), offset, data);
      if (!wrote.ok()) {
        continue;  // quota/space pressure is legal; model unchanged
      }
      ASSERT_EQ(*wrote, data.size());
      auto& bytes = it->second;
      if (bytes.size() < offset + data.size()) {
        bytes.resize(offset + data.size(), 0);
      }
      std::copy(data.begin(), data.end(),
                bytes.begin() + static_cast<std::ptrdiff_t>(offset));
    } else if (dice < 75 && !model.empty()) {
      // Read a random window and compare with the model (EOF clamping too).
      auto it = std::next(model.begin(), static_cast<int>(rng.NextBelow(model.size())));
      const uint64_t offset = rng.NextBelow(128 * kKiB);
      std::vector<uint8_t> out(rng.NextInRange(1, 8 * kKiB), 0xEE);
      auto read = fs_->ReadAt(inodes.at(it->first), offset, out);
      ASSERT_TRUE(read.ok());
      const auto& bytes = it->second;
      const uint64_t expected =
          offset >= bytes.size() ? 0 : std::min<uint64_t>(out.size(), bytes.size() - offset);
      ASSERT_EQ(*read, expected) << it->first << " @" << offset;
      for (uint64_t i = 0; i < expected; ++i) {
        ASSERT_EQ(out[i], bytes[offset + i]) << it->first << " @" << offset + i;
      }
    } else if (dice < 85 && !model.empty()) {
      // Resize (both directions). Growth reads back as zeros.
      auto it = std::next(model.begin(), static_cast<int>(rng.NextBelow(model.size())));
      const uint64_t new_size = rng.NextBelow(128 * kKiB);
      Status s = fs_->Resize(inodes.at(it->first), new_size);
      if (!s.ok()) {
        continue;  // out of space
      }
      it->second.resize(new_size, 0);
    } else if (dice < 92 && !model.empty()) {
      // Unlink.
      auto it = std::next(model.begin(), static_cast<int>(rng.NextBelow(model.size())));
      ASSERT_TRUE(fs_->Unlink(it->first).ok());
      inodes.erase(it->first);
      model.erase(it);
    } else if (pmfs_ != nullptr && dice < 95) {
      ASSERT_TRUE(pmfs_->VerifyIntegrity().ok()) << "step " << step;
    }
  }

  // Full final sweep: every file's entire contents match the model.
  for (const auto& [path, bytes] : model) {
    auto stat = fs_->Stat(inodes.at(path));
    ASSERT_TRUE(stat.ok());
    EXPECT_EQ(stat->size, bytes.size()) << path;
    std::vector<uint8_t> out(bytes.size() + 16, 0xEE);
    auto read = fs_->ReadAt(inodes.at(path), 0, out);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(*read, bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i) {
      ASSERT_EQ(out[i], bytes[i]) << path << " byte " << i;
    }
  }

  // Crash pass for PMFS: persistent files keep contents, volatile vanish.
  if (pmfs_ != nullptr) {
    std::map<std::string, bool> persistent;
    for (const auto& [path, id] : inodes) {
      persistent[path] = fs_->Stat(id)->persistent;
    }
    machine_.Crash();
    ASSERT_TRUE(pmfs_->OnCrash().ok());
    ASSERT_TRUE(pmfs_->VerifyIntegrity().ok());
    for (const auto& [path, bytes] : model) {
      auto found = pmfs_->LookupPath(path);
      if (!persistent.at(path)) {
        EXPECT_FALSE(found.ok()) << path << " should have vanished";
        continue;
      }
      ASSERT_TRUE(found.ok()) << path;
      std::vector<uint8_t> out(bytes.size());
      auto read = pmfs_->ReadAt(*found, 0, out);
      ASSERT_TRUE(read.ok());
      ASSERT_EQ(*read, bytes.size());
      for (size_t i = 0; i < bytes.size(); ++i) {
        ASSERT_EQ(out[i], bytes[i]) << path << " byte " << i << " after crash";
      }
    }
  }
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string fs;
  switch (info.param.fs) {
    case FsKind::kTmpfs:
      fs = "Tmpfs";
      break;
    case FsKind::kPmfsEager:
      fs = "PmfsEager";
      break;
    case FsKind::kPmfsEpoch:
      fs = "PmfsEpoch";
      break;
  }
  return fs + "Seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FsProperty,
    ::testing::Values(Param{FsKind::kTmpfs, 1}, Param{FsKind::kTmpfs, 2},
                      Param{FsKind::kTmpfs, 3}, Param{FsKind::kPmfsEager, 1},
                      Param{FsKind::kPmfsEager, 2}, Param{FsKind::kPmfsEager, 3},
                      Param{FsKind::kPmfsEpoch, 1}, Param{FsKind::kPmfsEpoch, 2},
                      Param{FsKind::kPmfsEpoch, 3}),
    ParamName);

}  // namespace
}  // namespace o1mem
