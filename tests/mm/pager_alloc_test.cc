// Host heap allocations of the baseline pager. The simulated kernel charges
// per page for installing, sharing and dropping anonymous pages; the host
// must not allocate per page for them. This file replaces the global
// operator new with one that counts, so it is a test executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/os/system.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace o1mem {
namespace {

// What 8,192 pages may allocate beyond 1,024: a page-table node per 2 MiB,
// a PageMeta chunk per 8 MiB and the pager's table and index doubling --
// about 30 -- against the two allocations per page of a node-based table.
constexpr uint64_t kSlack = 64;

SystemConfig Config() {
  SystemConfig config;
  config.machine.dram_bytes = 256 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  return config;
}

// Allocations made by mmap(MAP_POPULATE) of `pages` anonymous pages and the
// munmap of them.
uint64_t PopulateAndUnmap(uint64_t pages) {
  System sys(Config());
  auto proc = sys.Launch(Backend::kBaseline);
  EXPECT_TRUE(proc.ok());
  const uint64_t before = g_allocations.load();
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = pages * kPageSize, .populate = true});
  const bool mapped = vaddr.ok();
  const bool unmapped = mapped && sys.Munmap(**proc, *vaddr, pages * kPageSize).ok();
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(mapped && unmapped);
  return allocations;
}

// Allocations made by fork() of a process holding `pages` resident anonymous
// pages and the child's exit.
uint64_t ForkAndExit(uint64_t pages) {
  System sys(Config());
  auto proc = sys.Launch(Backend::kBaseline);
  EXPECT_TRUE(proc.ok());
  EXPECT_TRUE(sys.Mmap(**proc, MmapArgs{.length = pages * kPageSize, .populate = true}).ok());
  const uint64_t before = g_allocations.load();
  auto child = sys.Fork(**proc);
  const bool forked = child.ok();
  const bool exited = forked && sys.Exit(*child).ok();
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(forked && exited);
  return allocations;
}

TEST(PagerAllocationTest, PopulateAndMunmapAllocateNothingPerPage) {
  const uint64_t small = PopulateAndUnmap(1024);
  const uint64_t large = PopulateAndUnmap(8192);
  EXPECT_LT(large, small + kSlack) << "1,024 pages: " << small << ", 8,192 pages: " << large;
}

TEST(PagerAllocationTest, ForkAndExitAllocateNothingPerPage) {
  const uint64_t small = ForkAndExit(1024);
  const uint64_t large = ForkAndExit(8192);
  EXPECT_LT(large, small + kSlack) << "1,024 pages: " << small << ", 8,192 pages: " << large;
}

}  // namespace
}  // namespace o1mem
