// Exhaustive crash-point sweep: a fixed ~55-op PMFS + FOM workload is first
// run to completion once (the golden run) to count every NVM line-write and
// flush event it generates. The workload is then re-run once per event
// index with the fault injector armed to cut power exactly there. After
// each crash + recovery the test asserts:
//   * Pmfs::VerifyIntegrity() and an online Scrub() both pass;
//   * every persistent file and FOM segment whose state was settled before
//     the interrupted operation has exactly the model's contents (the
//     syscall write path is durable-on-return; segments are durable after
//     UserFlush);
//   * paths touched by the operation the crash interrupted may be in either
//     the old or the new state, but nothing else may have changed;
//   * no volatile file survives.
// The strict (explicit-flush) machine additionally runs with torn persists
// enabled, so unflushed multi-line persists land partially instead of
// taking the kindest all-revert outcome.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/os/system.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

constexpr uint64_t kSweepSeed = 0x5eedull;

// Small segments keep the total event count (= sweep iterations) tractable.
ProcessImage TinyImage() {
  return ProcessImage{.code_bytes = kPageSize, .stack_bytes = kPageSize,
                      .heap_bytes = kPageSize};
}

SystemConfig SweepConfig(PersistenceModel persistence) {
  SystemConfig config;
  config.machine.dram_bytes = 16 * kMiB;
  config.machine.nvm_bytes = 32 * kMiB;
  config.machine.persistence = persistence;
  config.swap_pages = 1024;
  return config;
}

struct Model {
  // Path -> exact expected contents.
  std::map<std::string, std::vector<uint8_t>> files;  // PMFS persistent files
  std::map<std::string, std::vector<uint8_t>> segs;   // persistent FOM segments
};

struct Op {
  std::vector<std::string> touched;  // paths left indeterminate by a mid-op crash
  std::function<void()> run;
};

// Shared workload helpers. Lives in the test body so the ops (which capture
// it by reference) never outlive it.
struct Driver {
  System& sys;
  Process*& proc;
  Rng& rng;
  Model& m;

  std::vector<uint8_t> Fill(uint64_t n) {
    std::vector<uint8_t> data(n);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return data;
  }

  void Pwrite(const std::string& path, uint64_t offset, uint64_t len) {
    auto fd = sys.Open(*proc, path);
    O1_CHECK(fd.ok());
    auto data = Fill(len);
    O1_CHECK(sys.Pwrite(*proc, *fd, offset, data).ok());
    O1_CHECK(sys.Close(*proc, *fd).ok());
    auto& bytes = m.files[path];
    if (bytes.size() < offset + data.size()) {
      bytes.resize(offset + data.size(), 0);
    }
    std::copy(data.begin(), data.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  void SegWrite(const std::string& path, bool create, bool single_extent = false) {
    const uint64_t bytes = create ? rng.NextInRange(1, 2) * kPageSize
                                  : m.segs.at(path).size();
    Result<InodeId> seg =
        create ? sys.fom().CreateSegment(path, bytes,
                                         SegmentOptions{.flags = {.persistent = true},
                                                        .require_single_extent = single_extent})
               : sys.fom().OpenSegment(path);
    O1_CHECK(seg.ok());
    auto va = sys.fom().Map(proc->fom(), *seg, Prot::kReadWrite);
    O1_CHECK(va.ok());
    auto data = Fill(bytes);
    O1_CHECK(sys.UserWrite(*proc, *va, data).ok());
    O1_CHECK(sys.UserFlush(*proc, *va, bytes).ok());
    O1_CHECK(sys.fom().Unmap(proc->fom(), *va).ok());
    m.segs[path] = std::move(data);
  }
};

// Builds the deterministic workload. `d.rng` is drawn only inside op bodies,
// in order, so any prefix of the op list consumes an identical prefix of the
// random stream on every run.
std::vector<Op> BuildWorkload(Driver& d) {
  std::vector<Op> ops;
  // Phase 1: create eight small persistent files.
  for (int i = 0; i < 8; ++i) {
    const std::string path = "/d/f" + std::to_string(i);
    ops.push_back({{path}, [&d, path, i] {
                     auto fd = d.sys.Creat(*d.proc, d.sys.pmfs(), path,
                                           FileFlags{.persistent = true});
                     O1_CHECK(fd.ok());
                     O1_CHECK(d.sys.Close(*d.proc, *fd).ok());
                     d.m.files[path] = {};
                     d.Pwrite(path, 0, 256 + 64 * static_cast<uint64_t>(i));
                   }});
  }
  // Phase 2: overwrite and extend them.
  for (int i = 0; i < 8; ++i) {
    const std::string path = "/d/f" + std::to_string(i);
    ops.push_back({{path}, [&d, path, i] {
                     d.Pwrite(path, static_cast<uint64_t>(i) * 128, 512);
                   }});
  }
  // Phase 3: volatile noise files -- must all vanish at every crash point.
  for (int i = 0; i < 6; ++i) {
    const std::string path = "/d/v" + std::to_string(i);
    ops.push_back({{path}, [&d, path] {
                     auto fd = d.sys.Creat(*d.proc, d.sys.pmfs(), path,
                                           FileFlags{.persistent = false});
                     O1_CHECK(fd.ok());
                     auto data = d.Fill(300);
                     O1_CHECK(d.sys.Pwrite(*d.proc, *fd, 0, data).ok());
                     O1_CHECK(d.sys.Close(*d.proc, *fd).ok());
                   }});
  }
  // Phase 4: persistent FOM segments written through the DAX mapping.
  for (int i = 0; i < 4; ++i) {
    const std::string path = "/d/s" + std::to_string(i);
    ops.push_back({{path}, [&d, path] { d.SegWrite(path, /*create=*/true); }});
  }
  // Phase 5: namespace churn -- renames and unlinks.
  for (int i = 0; i < 2; ++i) {
    const std::string from = "/d/f" + std::to_string(i);
    const std::string to = "/d/r" + std::to_string(i);
    ops.push_back({{from, to}, [&d, from, to] {
                     O1_CHECK(d.sys.Rename(from, to).ok());
                     auto node = d.m.files.extract(from);
                     node.key() = to;
                     d.m.files.insert(std::move(node));
                   }});
  }
  for (const char* victim : {"/d/f2", "/d/f3", "/d/v0", "/d/v1"}) {
    const std::string path = victim;
    ops.push_back({{path}, [&d, path] {
                     O1_CHECK(d.sys.Unlink(path).ok());
                     d.m.files.erase(path);
                   }});
  }
  // Phase 6: truncate -- grow (zero-filled) then shrink.
  ops.push_back({{"/d/f4"}, [&d] {
                   auto fd = d.sys.Open(*d.proc, "/d/f4");
                   O1_CHECK(fd.ok());
                   O1_CHECK(d.sys.Ftruncate(*d.proc, *fd, 3 * kKiB).ok());
                   O1_CHECK(d.sys.Close(*d.proc, *fd).ok());
                   d.m.files["/d/f4"].resize(3 * kKiB, 0);
                 }});
  ops.push_back({{"/d/f5"}, [&d] {
                   auto fd = d.sys.Open(*d.proc, "/d/f5");
                   O1_CHECK(fd.ok());
                   O1_CHECK(d.sys.Ftruncate(*d.proc, *fd, 200).ok());
                   O1_CHECK(d.sys.Close(*d.proc, *fd).ok());
                   d.m.files["/d/f5"].resize(200);
                 }});
  // Phase 7: rewrite the FOM segments in place (exercises sidecar reuse).
  for (int i = 0; i < 4; ++i) {
    const std::string path = "/d/s" + std::to_string(i);
    ops.push_back({{path}, [&d, path] { d.SegWrite(path, /*create=*/false); }});
  }
  // Phase 8: delete one segment (its sidecar must go with it), then a final
  // round of writes into a fresh directory.
  ops.push_back({{"/d/s3"}, [&d] {
                   O1_CHECK(d.sys.fom().DeleteSegment("/d/s3").ok());
                   d.m.segs.erase("/d/s3");
                 }});
  ops.push_back({{"/d2"}, [&d] { O1_CHECK(d.sys.Mkdir(d.sys.pmfs(), "/d2").ok()); }});
  for (int i = 0; i < 6; ++i) {
    const std::string path = "/d2/g" + std::to_string(i);
    ops.push_back({{path}, [&d, path] {
                     auto fd = d.sys.Creat(*d.proc, d.sys.pmfs(), path,
                                           FileFlags{.persistent = true});
                     O1_CHECK(fd.ok());
                     O1_CHECK(d.sys.Close(*d.proc, *fd).ok());
                     d.m.files[path] = {};
                     d.Pwrite(path, 0, 700);
                   }});
  }
  // Phase 9: a last pass of overwrites so late crash points still have
  // journal traffic ahead of them.
  for (int i = 4; i < 8; ++i) {
    const std::string path = "/d/f" + std::to_string(i);
    ops.push_back({{path}, [&d, path] { d.Pwrite(path, 64, 256); }});
  }
  // Phase 10: the journal records no phase above writes -- a hard link, a
  // persistence flip and an rmdir -- and a single-extent segment.
  ops.push_back({{"/d/l6"}, [&d] {
                   O1_CHECK(d.sys.Link(d.sys.pmfs(), "/d/f6", "/d/l6").ok());
                   d.m.files["/d/l6"] = d.m.files.at("/d/f6");
                 }});
  ops.push_back({{"/d/p0"}, [&d] {
                   auto fd = d.sys.Creat(*d.proc, d.sys.pmfs(), "/d/p0",
                                         FileFlags{.persistent = false});
                   O1_CHECK(fd.ok());
                   O1_CHECK(d.sys.Close(*d.proc, *fd).ok());
                   d.m.files["/d/p0"] = {};
                   d.Pwrite("/d/p0", 0, 400);
                   auto inode = d.sys.pmfs().LookupPath("/d/p0");
                   O1_CHECK(inode.ok());
                   O1_CHECK(d.sys.pmfs().SetPersistent(*inode, true).ok());
                 }});
  ops.push_back({{"/d3"}, [&d] { O1_CHECK(d.sys.Mkdir(d.sys.pmfs(), "/d3").ok()); }});
  ops.push_back({{"/d3"}, [&d] { O1_CHECK(d.sys.Rmdir(d.sys.pmfs(), "/d3").ok()); }});
  ops.push_back({{"/d/s4"}, [&d] {
                   d.SegWrite("/d/s4", /*create=*/true, /*single_extent=*/true);
                 }});
  return ops;
}

// Verifies recovered state against `m`, treating every path in `touched` as
// indeterminate (old or new state both legal).
void VerifyRecovered(System& sys, const Model& m,
                     const std::set<std::string>& touched) {
  ASSERT_TRUE(sys.pmfs().VerifyIntegrity().ok());
  auto scrub = sys.pmfs().Scrub();
  ASSERT_TRUE(scrub.ok());
  ASSERT_FALSE(scrub->degraded);
  ASSERT_EQ(scrub->files_quarantined, 0u);
  ASSERT_EQ(scrub->media_errors_found, 0u);
  ASSERT_TRUE(sys.pmfs().VerifyIntegrity().ok());

  // Persistent files: exact contents.
  for (const auto& [path, bytes] : m.files) {
    if (touched.contains(path)) {
      continue;
    }
    auto inode = sys.pmfs().LookupPath(path);
    ASSERT_TRUE(inode.ok()) << path << " lost";
    auto st = sys.pmfs().Stat(*inode);
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(st->size, bytes.size()) << path;
    if (!bytes.empty()) {
      std::vector<uint8_t> out(bytes.size());
      auto read = sys.pmfs().ReadAt(*inode, 0, out);
      ASSERT_TRUE(read.ok()) << path;
      ASSERT_EQ(*read, bytes.size());
      ASSERT_EQ(out, bytes) << path << " corrupted";
    }
  }

  // Persistent FOM segments: reopen and remap through a fresh process using
  // the pt-splice path, which rehydrates the NVM table sidecars.
  auto launched = sys.Launch(Backend::kFom, TinyImage());
  ASSERT_TRUE(launched.ok());
  Process* proc = *launched;
  for (const auto& [path, bytes] : m.segs) {
    if (touched.contains(path)) {
      continue;
    }
    auto seg = sys.fom().OpenSegment(path);
    ASSERT_TRUE(seg.ok()) << path << " lost";
    auto va = sys.fom().Map(proc->fom(), *seg, Prot::kRead,
                            MapOptions{.mechanism = MapMechanism::kPtSplice});
    ASSERT_TRUE(va.ok());
    std::vector<uint8_t> out(bytes.size());
    ASSERT_TRUE(sys.UserRead(*proc, *va, out).ok());
    ASSERT_EQ(out, bytes) << path << " corrupted";
    ASSERT_TRUE(sys.fom().Unmap(proc->fom(), *va).ok());
  }
  ASSERT_TRUE(sys.Exit(proc).ok());

  // No survivors beyond the model, table sidecars, and the interrupted op's
  // own paths (volatile files never survive, so anything else is a leak of
  // the journal replay).
  for (const std::string& path : sys.pmfs().ListPaths()) {
    const bool allowed = m.files.contains(path) || m.segs.contains(path) ||
                         path.starts_with("/.fom/tables/") || touched.contains(path);
    ASSERT_TRUE(allowed) << "unexpected survivor " << path;
  }
}

enum class SweepEvent { kWrite, kFlush };

// The sweep is embarrassingly parallel, so each (persistence, event) pair is
// split into kShards ctest cases; shard s takes crash indices s, s+kShards,
// s+2*kShards, ... Together the shards cover every index exactly once.
constexpr int kShards = 4;

struct Param {
  PersistenceModel persistence;
  SweepEvent event;
  int shard = 0;
};

class CrashSweep : public ::testing::TestWithParam<Param> {};

TEST_P(CrashSweep, EveryCrashPointRecovers) {
  const PersistenceModel persistence = GetParam().persistence;
  const SweepEvent event = GetParam().event;
  const auto shard = static_cast<uint64_t>(GetParam().shard);

  // Golden run: count the workload's events and capture the final model.
  uint64_t first = 0;
  uint64_t last = 0;
  {
    System sys(SweepConfig(persistence));
    auto launched = sys.Launch(Backend::kFom, TinyImage());
    ASSERT_TRUE(launched.ok());
    Process* proc = *launched;
    Rng rng(kSweepSeed);
    Model model;
    Driver driver{sys, proc, rng, model};
    auto ops = BuildWorkload(driver);
    FaultInjector& fi = sys.machine().fault_injector();
    first = event == SweepEvent::kWrite ? fi.nvm_line_writes() : fi.nvm_flushes();
    for (Op& op : ops) {
      op.run();
    }
    last = event == SweepEvent::kWrite ? fi.nvm_line_writes() : fi.nvm_flushes();
    // Sanity: the workload must be big enough to be a meaningful sweep, and
    // the end state must survive a clean crash.
    ASSERT_GE(ops.size(), 50u);
    ASSERT_GT(last, first);
    ASSERT_TRUE(sys.Crash().ok());
    VerifyRecovered(sys, model, {});
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  SCOPED_TRACE("sweeping shard " + std::to_string(shard) + " of " +
               std::to_string(last - first) + " crash points");

  for (uint64_t index = first + shard; index < last; index += kShards) {
    System sys(SweepConfig(persistence));
    auto launched = sys.Launch(Backend::kFom, TinyImage());
    ASSERT_TRUE(launched.ok());
    Process* proc = *launched;
    Rng rng(kSweepSeed);
    Model model;
    Driver driver{sys, proc, rng, model};
    auto ops = BuildWorkload(driver);

    FaultInjector& fi = sys.machine().fault_injector();
    if (persistence == PersistenceModel::kExplicitFlush) {
      // Unflushed lines land partially, not all-revert.
      fi.EnableTornPersists(/*seed=*/index * 2654435761ull + 1, /*persist_percent=*/50);
    }
    if (event == SweepEvent::kWrite) {
      fi.ArmCrashAtNvmWrite(index);
    } else {
      fi.ArmCrashAtFlush(index);
    }

    // Run until the armed event fires mid-op; the model snapshot from just
    // before that op is the reference state.
    Model snapshot;
    std::set<std::string> touched;
    for (Op& op : ops) {
      snapshot = model;
      op.run();
      if (fi.triggered()) {
        touched.insert(op.touched.begin(), op.touched.end());
        break;
      }
    }
    ASSERT_TRUE(fi.triggered()) << "index " << index << " never fired";
    ASSERT_TRUE(sys.Crash().ok()) << "index " << index;
    {
      SCOPED_TRACE("crash index " + std::to_string(index));
      VerifyRecovered(sys, snapshot, touched);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string name = info.param.persistence == PersistenceModel::kAutoDurable
                         ? "Auto"
                         : "Strict";
  name += info.param.event == SweepEvent::kWrite ? "Writes" : "Flushes";
  name += "Shard" + std::to_string(info.param.shard);
  return name;
}

std::vector<Param> SweepParams() {
  std::vector<Param> params;
  for (PersistenceModel persistence :
       {PersistenceModel::kAutoDurable, PersistenceModel::kExplicitFlush}) {
    for (SweepEvent event : {SweepEvent::kWrite, SweepEvent::kFlush}) {
      for (int shard = 0; shard < kShards; ++shard) {
        params.push_back(Param{persistence, event, shard});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashSweep, ::testing::ValuesIn(SweepParams()), ParamName);

}  // namespace
}  // namespace o1mem
