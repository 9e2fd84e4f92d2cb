#include "src/os/system.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <string>
#include <utility>
#include <vector>

#include "src/sim/phys_mem.h"

namespace o1mem {
namespace {

SystemConfig SmallConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 128 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  return config;
}

// Minor faults this thread has taken: host pages it faulted in.
long ThreadMinorFaults() {
  rusage usage{};
  O1_CHECK(getrusage(RUSAGE_THREAD, &usage) == 0);
  return usage.ru_minflt;
}

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : sys_(SmallConfig()) {}
  System sys_;
};

TEST_F(SystemTest, LaunchBaselineProcessWithSegments) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  Process& p = **proc;
  // Code is populated and executable; heap/stack fault in on demand.
  EXPECT_TRUE(sys_.UserTouch(p, p.code_base(), 1, AccessType::kExec).ok());
  EXPECT_TRUE(sys_.UserTouch(p, p.heap_base(), 1, AccessType::kWrite).ok());
  EXPECT_TRUE(sys_.UserTouch(p, p.stack_base(), 1, AccessType::kWrite).ok());
  // Writing to code is denied.
  EXPECT_FALSE(sys_.UserTouch(p, p.code_base(), 1, AccessType::kWrite).ok());
}

TEST_F(SystemTest, LaunchFomProcessWithSegmentFiles) {
  auto proc = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  Process& p = **proc;
  EXPECT_TRUE(sys_.UserTouch(p, p.code_base(), 1, AccessType::kExec).ok());
  EXPECT_TRUE(sys_.UserTouch(p, p.heap_base(), 1, AccessType::kWrite).ok());
  EXPECT_TRUE(sys_.UserTouch(p, p.stack_base(), 1, AccessType::kWrite).ok());
  // FOM: zero page faults for all of that.
  EXPECT_EQ(sys_.ctx().counters().minor_faults, 0u);
}

TEST_F(SystemTest, AnonymousMmapRoundTripBothBackends) {
  for (Backend backend : {Backend::kBaseline, Backend::kFom}) {
    auto proc = sys_.Launch(backend);
    ASSERT_TRUE(proc.ok());
    auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 64 * kPageSize});
    ASSERT_TRUE(vaddr.ok());
    std::vector<uint8_t> data(10000, 0x3c);
    ASSERT_TRUE(sys_.UserWrite(**proc, *vaddr + 5000, data).ok());
    std::vector<uint8_t> out(10000);
    ASSERT_TRUE(sys_.UserRead(**proc, *vaddr + 5000, out).ok());
    EXPECT_EQ(out, data);
    ASSERT_TRUE(sys_.Munmap(**proc, *vaddr, 64 * kPageSize).ok());
    EXPECT_FALSE(sys_.UserTouch(**proc, *vaddr, 1, AccessType::kRead).ok());
  }
}

TEST_F(SystemTest, AnonymousMemoryIsZeroedBothBackends) {
  for (Backend backend : {Backend::kBaseline, Backend::kFom}) {
    auto proc = sys_.Launch(backend);
    ASSERT_TRUE(proc.ok());
    auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 8 * kPageSize});
    ASSERT_TRUE(vaddr.ok());
    std::vector<uint8_t> out(256, 0xff);
    ASSERT_TRUE(sys_.UserRead(**proc, *vaddr + kPageSize, out).ok());
    for (uint8_t b : out) {
      ASSERT_EQ(b, 0);
    }
  }
}

TEST_F(SystemTest, FileMmapTmpfsDemandVsPopulate) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto fd = sys_.Creat(**proc, sys_.tmpfs(), "/t/file", FileFlags{});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(sys_.Ftruncate(**proc, *fd, 64 * kPageSize).ok());

  auto demand = sys_.Mmap(**proc, MmapArgs{.length = 64 * kPageSize, .fd = *fd});
  ASSERT_TRUE(demand.ok());
  auto populate =
      sys_.Mmap(**proc, MmapArgs{.length = 64 * kPageSize, .populate = true, .fd = *fd});
  ASSERT_TRUE(populate.ok());

  const uint64_t faults_before = sys_.ctx().counters().minor_faults;
  ASSERT_TRUE(sys_.UserTouch(**proc, *populate, 64 * kPageSize, AccessType::kRead).ok());
  EXPECT_EQ(sys_.ctx().counters().minor_faults, faults_before);
  ASSERT_TRUE(sys_.UserTouch(**proc, *demand + 3 * kPageSize, 1, AccessType::kRead).ok());
  EXPECT_EQ(sys_.ctx().counters().minor_faults, faults_before + 1);
  // Both views see the same backing page.
  std::vector<uint8_t> data{1, 2, 3};
  ASSERT_TRUE(sys_.UserWrite(**proc, *demand + 3 * kPageSize, data).ok());
  std::vector<uint8_t> out(3);
  ASSERT_TRUE(sys_.UserRead(**proc, *populate + 3 * kPageSize, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(SystemTest, FileIoSyscalls) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto fd = sys_.Creat(**proc, sys_.pmfs(), "/data/log", FileFlags{.persistent = true});
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data(1000, 0x61);
  auto wrote = sys_.Write(**proc, *fd, data);
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(*wrote, 1000u);
  // Sequential offset advanced; pread sees from the start.
  std::vector<uint8_t> out(1000);
  auto seq = sys_.Read(**proc, *fd, out);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 0u);  // at EOF
  auto pread = sys_.Pread(**proc, *fd, 0, out);
  ASSERT_TRUE(pread.ok());
  EXPECT_EQ(*pread, 1000u);
  EXPECT_EQ(out, data);
  ASSERT_TRUE(sys_.Close(**proc, *fd).ok());
  EXPECT_FALSE(sys_.Read(**proc, *fd, out).ok());
}

TEST_F(SystemTest, OpenResolvesPmfsThenTmpfs) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(sys_.pmfs().Create("/only/pm", FileFlags{.persistent = true}).ok());
  ASSERT_TRUE(sys_.tmpfs().Create("/only/tmp", FileFlags{}).ok());
  EXPECT_TRUE(sys_.Open(**proc, "/only/pm").ok());
  EXPECT_TRUE(sys_.Open(**proc, "/only/tmp").ok());
  EXPECT_FALSE(sys_.Open(**proc, "/missing").ok());
}

TEST_F(SystemTest, MprotectBothBackends) {
  for (Backend backend : {Backend::kBaseline, Backend::kFom}) {
    auto proc = sys_.Launch(backend);
    ASSERT_TRUE(proc.ok());
    auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 16 * kPageSize, .populate = true});
    ASSERT_TRUE(vaddr.ok());
    ASSERT_TRUE(sys_.UserTouch(**proc, *vaddr, 1, AccessType::kWrite).ok());
    ASSERT_TRUE(sys_.Mprotect(**proc, *vaddr, 16 * kPageSize, Prot::kRead).ok());
    EXPECT_FALSE(sys_.UserTouch(**proc, *vaddr, 1, AccessType::kWrite).ok())
        << "backend " << static_cast<int>(backend);
    EXPECT_TRUE(sys_.UserTouch(**proc, *vaddr, 1, AccessType::kRead).ok());
  }
}

TEST_F(SystemTest, PartialMunmapAnonymousOnly) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto anon = sys_.Mmap(**proc, MmapArgs{.length = 8 * kPageSize, .populate = true});
  ASSERT_TRUE(anon.ok());
  ASSERT_TRUE(sys_.Munmap(**proc, *anon + 2 * kPageSize, 2 * kPageSize).ok());
  EXPECT_TRUE(sys_.UserTouch(**proc, *anon, 1, AccessType::kRead).ok());
  EXPECT_FALSE(sys_.UserTouch(**proc, *anon + 2 * kPageSize, 1, AccessType::kRead).ok());
  EXPECT_TRUE(sys_.UserTouch(**proc, *anon + 4 * kPageSize, 1, AccessType::kRead).ok());

  auto fd = sys_.Creat(**proc, sys_.tmpfs(), "/pm/f", FileFlags{});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(sys_.Ftruncate(**proc, *fd, 8 * kPageSize).ok());
  auto file_map = sys_.Mmap(**proc, MmapArgs{.length = 8 * kPageSize, .fd = *fd});
  ASSERT_TRUE(file_map.ok());
  EXPECT_EQ(sys_.Munmap(**proc, *file_map, 2 * kPageSize).code(), StatusCode::kUnsupported);
  EXPECT_TRUE(sys_.Munmap(**proc, *file_map, 8 * kPageSize).ok());
}

TEST_F(SystemTest, ExitReleasesMemory) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = kMiB, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  const uint64_t free_with_proc = sys_.phys_manager().free_bytes();
  ASSERT_TRUE(sys_.Exit(*proc).ok());
  EXPECT_GT(sys_.phys_manager().free_bytes(), free_with_proc);
  EXPECT_EQ(sys_.process_count(), 0u);
}

TEST_F(SystemTest, FomExitFreesSegmentFiles) {
  const uint64_t free_before = sys_.pmfs().free_bytes();
  auto proc = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  EXPECT_LT(sys_.pmfs().free_bytes(), free_before);
  ASSERT_TRUE(sys_.Exit(*proc).ok());
  EXPECT_EQ(sys_.pmfs().free_bytes(), free_before);
}

TEST_F(SystemTest, BaselineReclaimUnderPressure) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto vaddr = sys_.Mmap(**proc, MmapArgs{.length = 64 * kPageSize, .populate = true});
  ASSERT_TRUE(vaddr.ok());
  auto stats = sys_.ReclaimBaseline(**proc, 16, System::ReclaimPolicy::kClock);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reclaimed, 16u);
  EXPECT_GT(sys_.ctx().counters().pages_swapped_out, 0u);
  // Data comes back via major faults.
  EXPECT_TRUE(sys_.UserTouch(**proc, *vaddr, 64 * kPageSize, AccessType::kRead).ok());
}

TEST_F(SystemTest, CrashKillsProcessesRecoversPersistentData) {
  auto proc = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  // Persistent segment with data.
  auto seg = sys_.fom().CreateSegment(
      "/db/table", 2 * kMiB, SegmentOptions{.flags = FileFlags{.persistent = true}});
  ASSERT_TRUE(seg.ok());
  auto vaddr = sys_.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite);
  ASSERT_TRUE(vaddr.ok());
  std::vector<uint8_t> data(128, 0xEE);
  ASSERT_TRUE(sys_.UserWrite(**proc, *vaddr + 100, data).ok());

  ASSERT_TRUE(sys_.Crash().ok());
  EXPECT_EQ(sys_.process_count(), 0u);

  auto proc2 = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(proc2.ok());
  auto seg2 = sys_.fom().OpenSegment("/db/table");
  ASSERT_TRUE(seg2.ok());
  auto v2 = sys_.fom().Map((*proc2)->fom(), *seg2, Prot::kRead);
  ASSERT_TRUE(v2.ok());
  std::vector<uint8_t> out(128);
  ASSERT_TRUE(sys_.UserRead(**proc2, *v2 + 100, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(SystemTest, CrashEmptiesTmpfsAndDram) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(sys_.Creat(**proc, sys_.tmpfs(), "/gone", FileFlags{}).ok());
  ASSERT_TRUE(sys_.Crash().ok());
  auto proc2 = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc2.ok());
  EXPECT_FALSE(sys_.Open(**proc2, "/gone").ok());
}

TEST_F(SystemTest, SyscallsAreCharged) {
  auto proc = sys_.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  const uint64_t syscalls_before = sys_.ctx().counters().syscalls;
  const uint64_t t0 = sys_.ctx().now();
  ASSERT_TRUE(sys_.Mmap(**proc, MmapArgs{.length = kPageSize}).ok());
  EXPECT_EQ(sys_.ctx().counters().syscalls, syscalls_before + 1);
  EXPECT_GT(sys_.ctx().now() - t0, sys_.ctx().cost().syscall_cycles);
}

TEST_F(SystemTest, FomMmapUsesConfiguredMechanism) {
  auto proc = sys_.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  auto with_splice = sys_.Mmap(
      **proc, MmapArgs{.length = 4 * kMiB, .mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(with_splice.ok());
  EXPECT_GT(sys_.ctx().counters().subtree_splices, 0u);
}

// Under kZeroEpoch, PMFS zeroes a file's blocks when it is unlinked, so their
// frames give their host pages back. Files written and dropped one at a time
// then reuse the first file's host pages, though PMFS's next-fit puts each
// on new blocks: after the first file, the host faults in next to nothing
// per file, not one page per page written.
TEST(SystemHostMemoryTest, DroppedPmfsFilesRecycleHostPages) {
  SystemConfig config = SmallConfig();
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  System sys(config);
  auto proc = sys.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  const std::vector<uint8_t> page(kPageSize, 0xa5);
  std::vector<long> faults;
  for (int i = 0; i < 64; ++i) {
    const long before = ThreadMinorFaults();
    const std::string path = "/recycled" + std::to_string(i);
    auto fd = sys.Creat(**proc, sys.pmfs(), path, FileFlags{});
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(sys.Ftruncate(**proc, *fd, kMiB).ok());
    auto vaddr = sys.Mmap(**proc, MmapArgs{.length = kMiB, .fd = *fd});
    ASSERT_TRUE(vaddr.ok());
    for (uint64_t off = 0; off < kMiB; off += kPageSize) {
      ASSERT_TRUE(sys.UserWrite(**proc, *vaddr + off, page).ok());
    }
    ASSERT_TRUE(sys.Munmap(**proc, *vaddr, kMiB).ok());
    ASSERT_TRUE(sys.Close(**proc, *fd).ok());
    ASSERT_TRUE(sys.Unlink(path).ok());
    faults.push_back(ThreadMinorFaults() - before);
  }
  // Keeping every frame ever written would fault in 256 pages per file. The
  // bound leaves room for the System's own allocations, which a sanitizer's
  // allocator serves from fresh memory.
  for (size_t i = 1; i < faults.size(); ++i) {
    EXPECT_LT(faults[i], 64) << "file " << i << "; the first faulted in " << faults[0];
  }
}

// A System built after another takes the host reservation the first left
// behind, so its frames take host pages that are already resident and zero.
// Two Systems on the o1bench machine run the same FOM write mix: they end in
// the same simulated state, and the second faults in a small fraction of
// the host pages the first did.
TEST(SystemHostMemoryTest, NextSystemReusesTheLastOnesHostPages) {
  SystemConfig config;
  config.machine.dram_bytes = 4 * kGiB;
  config.machine.nvm_bytes = 16 * kGiB;
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  // Holds any reservation an earlier test in this process left, so the
  // first System maps a fresh one.
  SimContext holder_ctx;
  const PhysicalMemory holder(&holder_ctx, config.machine.dram_bytes, config.machine.nvm_bytes);
  struct Run {
    uint64_t clock = 0;
    std::vector<std::pair<std::string, uint64_t>> counters;
    long host_faults = 0;
  };
  // Pool pages outnumber the System's own allocations many times over, even
  // under a sanitizer's allocator, which serves those from fresh memory.
  constexpr uint64_t kFileBytes = 4 * kMiB;
  const auto run_mix = [&config] {
    Run run;
    const long before = ThreadMinorFaults();
    System sys(config);
    auto proc = sys.Launch(Backend::kFom);
    O1_CHECK(proc.ok());
    const std::vector<uint8_t> page(kPageSize, 0x6d);
    for (int i = 0; i < 16; ++i) {
      const std::string path = "/mix" + std::to_string(i);
      auto fd = sys.Creat(**proc, sys.pmfs(), path, FileFlags{});
      O1_CHECK(fd.ok());
      O1_CHECK(sys.Ftruncate(**proc, *fd, kFileBytes).ok());
      auto vaddr = sys.Mmap(**proc, MmapArgs{.length = kFileBytes, .fd = *fd});
      O1_CHECK(vaddr.ok());
      for (uint64_t off = 0; off < kFileBytes; off += kPageSize) {
        O1_CHECK(sys.UserWrite(**proc, *vaddr + off, page).ok());
      }
      O1_CHECK(sys.Munmap(**proc, *vaddr, kFileBytes).ok());
      O1_CHECK(sys.Close(**proc, *fd).ok());
      if (i % 4 == 3) {
        O1_CHECK(sys.Unlink(path).ok());
      }
    }
    run.host_faults = ThreadMinorFaults() - before;
    run.clock = sys.ctx().now();
    sys.ctx().counters().ForEachField(
        [&run](const char* name, uint64_t value) { run.counters.emplace_back(name, value); });
    return run;
  };
  const Run first = run_mix();
  const Run second = run_mix();
  EXPECT_EQ(second.clock, first.clock);
  EXPECT_EQ(second.counters, first.counters);
  EXPECT_LT(second.host_faults * 10, first.host_faults)
      << "first " << first.host_faults << ", second " << second.host_faults;
}

}  // namespace
}  // namespace o1mem
