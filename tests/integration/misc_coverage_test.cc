// Remaining coverage: populate-mode user allocator, strict-mode pre-created
// table persistence, pmfs flag interplay, and reporter formatting.
#include <gtest/gtest.h>

#include "src/os/malloc.h"
#include "src/os/system.h"
#include "src/support/table.h"

namespace o1mem {
namespace {

SystemConfig MiscConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 128 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  return config;
}

TEST(MallocPopulateTest, PopulatedChunksNeverFault) {
  System sys(MiscConfig());
  auto proc = sys.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  SizeClassAllocator alloc(&sys, *proc, /*populate=*/true);
  auto p = alloc.Malloc(1000);
  ASSERT_TRUE(p.ok());
  const uint64_t faults_before = sys.ctx().counters().minor_faults;
  std::vector<uint8_t> data(1000, 1);
  ASSERT_TRUE(sys.UserWrite(**proc, *p, data).ok());
  EXPECT_EQ(sys.ctx().counters().minor_faults, faults_before);

  SizeClassAllocator lazy(&sys, *proc, /*populate=*/false);
  auto q = lazy.Malloc(1000);
  ASSERT_TRUE(q.ok());
  const uint64_t faults_mid = sys.ctx().counters().minor_faults;
  ASSERT_TRUE(sys.UserWrite(**proc, *q, data).ok());
  EXPECT_GT(sys.ctx().counters().minor_faults, faults_mid);
}

TEST(StrictTablesTest, PersistentTablesStillO1AfterCrashOnStrictHardware) {
  SystemConfig config = MiscConfig();
  config.machine.persistence = PersistenceModel::kExplicitFlush;
  System sys(config);
  auto seg = sys.fom().CreateSegment(
      "/strict/tables", 64 * kMiB, SegmentOptions{.flags = FileFlags{.persistent = true}});
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(sys.Crash().ok());
  auto proc = sys.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  const uint64_t nodes_before = sys.ctx().counters().pt_nodes_allocated;
  auto found = sys.fom().OpenSegment("/strict/tables");
  ASSERT_TRUE(found.ok());
  auto vaddr = sys.fom().Map((*proc)->fom(), *found, Prot::kReadWrite,
                             MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(vaddr.ok());
  EXPECT_LE(sys.ctx().counters().pt_nodes_allocated, nodes_before + 3);
}

TEST(PmfsFlagsTest, SetPersistentOnDiscardableKeepsDiscardability) {
  System sys(MiscConfig());
  auto seg = sys.fom().CreateSegment(
      "/flags/seg", 4 * kMiB,
      SegmentOptions{.flags = FileFlags{.persistent = false, .discardable = true}});
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(sys.pmfs().SetPersistent(*seg, true).ok());
  auto st = sys.pmfs().Stat(*seg);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->persistent);
  EXPECT_TRUE(st->discardable);
  // Persistent AND discardable: survives crashes, but pressure may delete it.
  ASSERT_TRUE(sys.Crash().ok());
  EXPECT_TRUE(sys.fom().OpenSegment("/flags/seg").ok());
  auto released = sys.ReclaimFom(kMiB);
  ASSERT_TRUE(released.ok());
  EXPECT_GE(released.value(), 4 * kMiB);
  EXPECT_FALSE(sys.fom().OpenSegment("/flags/seg").ok());
}

TEST(PmfsStatTest, FieldsReflectState) {
  System sys(MiscConfig());
  auto proc = sys.Launch(Backend::kFom);
  ASSERT_TRUE(proc.ok());
  auto seg = sys.fom().CreateSegment("/stat/seg", 3 * kMiB + 100);
  ASSERT_TRUE(seg.ok());
  auto vaddr = sys.fom().Map((*proc)->fom(), *seg, Prot::kRead);
  ASSERT_TRUE(vaddr.ok());
  auto st = sys.pmfs().Stat(*seg);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 3 * kMiB + 100);
  EXPECT_EQ(st->allocated_bytes, AlignUp(3 * kMiB + 100, kPageSize));
  EXPECT_EQ(st->link_count, 1u);
  EXPECT_EQ(st->map_count, 1u);
  EXPECT_EQ(st->open_count, 0u);
  EXPECT_GE(st->extent_count, 1u);
}

TEST(TableTest, PrintProducesAlignedColumns) {
  Table table("demo");
  table.AddRow({"name", "value"});
  table.AddRow({"short", "1"});
  table.AddRow({"a-much-longer-name", "12345"});
  // Render to a memory stream via tmpfile.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  table.Print(f);
  std::rewind(f);
  char buf[512] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string out(buf, n);
  EXPECT_NE(out.find("=== demo ==="), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // Header underline exists.
  EXPECT_NE(out.find("----"), std::string::npos);
  // Columns align: "value" and "1" start at the same offset within their
  // lines (name column padded to the longest cell).
  const size_t header_pos = out.find("name");
  ASSERT_NE(header_pos, std::string::npos);
}

TEST(ForkPbmTest, PbmMappingsForkAtTheSameAddress) {
  System sys(MiscConfig());
  auto parent = sys.Launch(Backend::kFom);
  ASSERT_TRUE(parent.ok());
  auto seg = sys.fom().CreateSegment("/pbm/seg", 2 * kMiB,
                                     SegmentOptions{.require_single_extent = true});
  ASSERT_TRUE(seg.ok());
  auto vaddr = sys.fom().Map((*parent)->fom(), *seg, Prot::kReadWrite,
                             MapOptions{.mechanism = MapMechanism::kPbm});
  ASSERT_TRUE(vaddr.ok());
  auto child = sys.Fork(**parent);
  ASSERT_TRUE(child.ok());
  // PBM: the child's mapping derived the identical address.
  ASSERT_TRUE((*child)->fom().mappings().contains(*vaddr));
  std::vector<uint8_t> data{5, 6, 7};
  ASSERT_TRUE(sys.UserWrite(**child, *vaddr, data).ok());
  std::vector<uint8_t> out(3);
  ASSERT_TRUE(sys.UserRead(**parent, *vaddr, out).ok());
  EXPECT_EQ(out, data);
}

TEST(BackgroundZeroAccountingTest, DebtMatchesBytesFreed) {
  SystemConfig config = MiscConfig();
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  System sys(config);
  auto seg = sys.fom().CreateSegment("/z/seg", 8 * kMiB);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(sys.pmfs().background_zero_cycles(), 0u);
  ASSERT_TRUE(sys.fom().DeleteSegment("/z/seg").ok());
  const uint64_t debt = sys.pmfs().background_zero_cycles();
  EXPECT_GE(debt, sys.ctx().cost().NvmWriteBulkCycles(8 * kMiB));
}

}  // namespace
}  // namespace o1mem
