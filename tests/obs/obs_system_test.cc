// End-to-end observability: the observer sees the workload, costs it
// nothing, and stays within its fixed memory no matter how long the
// simulation runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/exporters.h"
#include "src/os/system.h"
#include "src/support/check.h"

namespace o1mem {
namespace {

struct RunResult {
  uint64_t cycles = 0;
  EventCounters counters;
};

// A workload touching every instrumented subsystem: syscalls, demand
// faults, PMFS journal commits, a FOM map, and a crash (journal replay).
RunResult RunWorkload(SystemConfig config) {
  System sys(config);
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  auto populated = sys.Mmap(**proc, MmapArgs{.length = kMiB, .populate = true});
  O1_CHECK(populated.ok());
  auto demand = sys.Mmap(**proc, MmapArgs{.length = 64 * kKiB});
  O1_CHECK(demand.ok());
  O1_CHECK(sys.UserTouch(**proc, *demand, 64 * kKiB, AccessType::kWrite).ok());
  auto fd = sys.Creat(**proc, sys.pmfs(), "/obs/file", FileFlags{.persistent = true});
  O1_CHECK(fd.ok());
  O1_CHECK(sys.Ftruncate(**proc, *fd, 256 * kKiB).ok());
  std::vector<uint8_t> buf(4 * kKiB, 7);
  O1_CHECK(sys.Pwrite(**proc, *fd, 0, buf).ok());

  auto fom_proc = sys.Launch(Backend::kFom);
  O1_CHECK(fom_proc.ok());
  auto seg = sys.fom().CreateSegment("/obs/seg", 8 * kMiB);
  O1_CHECK(seg.ok());
  O1_CHECK(sys.fom().Map((*fom_proc)->fom(), *seg, Prot::kReadWrite).ok());

  O1_CHECK(sys.Crash().ok());
  return RunResult{sys.ctx().now(), sys.ctx().counters()};
}

SystemConfig ObsConfigOn() {
  SystemConfig config;
  config.machine.obs.trace = true;
  config.machine.obs.histograms = true;
  return config;
}

TEST(ObsSystemTest, ObserverIsCycleNeutral) {
  // The acceptance bar for the whole subsystem: with tracing and histograms
  // on, the simulated clock and every event counter are bit-identical to
  // the default-off run. Observation cannot perturb what it measures.
  const RunResult off = RunWorkload(SystemConfig());
  const RunResult on = RunWorkload(ObsConfigOn());
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(std::memcmp(&off.counters, &on.counters, sizeof(EventCounters)), 0);
  EXPECT_GT(off.cycles, 0u);
}

TEST(ObsSystemTest, RingCapturesWorkloadKinds) {
  System sys(ObsConfigOn());
  auto proc = sys.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  auto demand = sys.Mmap(**proc, MmapArgs{.length = 64 * kKiB});
  ASSERT_TRUE(demand.ok());
  ASSERT_TRUE(sys.UserTouch(**proc, *demand, 64 * kKiB, AccessType::kWrite).ok());
  auto fd = sys.Creat(**proc, sys.pmfs(), "/obs/file", FileFlags{.persistent = true});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(sys.Ftruncate(**proc, *fd, 64 * kKiB).ok());
  auto fom_proc = sys.Launch(Backend::kFom);
  ASSERT_TRUE(fom_proc.ok());
  auto seg = sys.fom().CreateSegment("/obs/seg", 8 * kMiB);
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(sys.fom().Map((*fom_proc)->fom(), *seg, Prot::kReadWrite).ok());
  ASSERT_TRUE(sys.Crash().ok());

  const TraceRing* ring = sys.machine().observer().ring();
  ASSERT_NE(ring, nullptr);
  const auto events = ring->Snapshot();
  auto has = [&events](TraceKind kind) {
    return std::any_of(events.begin(), events.end(),
                       [kind](const TraceEvent& e) { return e.kind == kind; });
  };
  EXPECT_TRUE(has(TraceKind::kLaunch));
  EXPECT_TRUE(has(TraceKind::kMmap));
  EXPECT_TRUE(has(TraceKind::kFault));
  EXPECT_TRUE(has(TraceKind::kJournalCommit));
  EXPECT_TRUE(has(TraceKind::kFomMap));
  EXPECT_TRUE(has(TraceKind::kCrash));
  EXPECT_TRUE(has(TraceKind::kJournalReplay));

  // Spans carry the operand and its class; stamps never run backwards.
  const auto mmap_it = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.kind == TraceKind::kMmap;
  });
  ASSERT_NE(mmap_it, events.end());
  EXPECT_EQ(mmap_it->operand_bytes, 64 * kKiB);
  EXPECT_EQ(mmap_it->size_class, SizeClass::k2M);
  EXPECT_EQ(mmap_it->instant, 0);
  // Events land in completion order (a nested fault finishes inside its
  // mmap), so end stamps -- not start stamps -- are nondecreasing.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_cycles + events[i - 1].duration_cycles,
              events[i].start_cycles + events[i].duration_cycles);
  }
}

TEST(ObsSystemTest, RingStaysBoundedUnderLongRuns) {
  SystemConfig config;
  config.machine.obs.trace = true;
  config.machine.obs.ring_capacity = 8;
  System sys(config);
  auto proc = sys.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  for (int i = 0; i < 100; ++i) {
    auto addr = sys.Mmap(**proc, MmapArgs{.length = 4 * kKiB});
    ASSERT_TRUE(addr.ok());
    ASSERT_TRUE(sys.Munmap(**proc, *addr, 4 * kKiB).ok());
  }
  const TraceRing* ring = sys.machine().observer().ring();
  EXPECT_EQ(ring->capacity(), 8u);
  EXPECT_EQ(ring->size(), 8u);
  EXPECT_GT(ring->total_pushed(), 200u);
  EXPECT_EQ(ring->dropped(), ring->total_pushed() - 8u);
}

TEST(ObsSystemTest, HistogramsKeyOnKindAndSizeClass) {
  SystemConfig config;
  config.machine.obs.histograms = true;
  System sys(config);
  auto proc = sys.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(sys.Mmap(**proc, MmapArgs{.length = 4 * kKiB}).ok());
  ASSERT_TRUE(sys.Mmap(**proc, MmapArgs{.length = 16 * kMiB}).ok());

  const HistogramRegistry* hist = sys.machine().observer().hist();
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->At(TraceKind::kMmap, SizeClass::k4K).count(), 1u);
  EXPECT_EQ(hist->At(TraceKind::kMmap, SizeClass::k1G).count(), 1u);
  EXPECT_EQ(hist->At(TraceKind::kMmap, SizeClass::k2M).count(), 0u);
  EXPECT_GT(hist->At(TraceKind::kLaunch, SizeClass::k2M).count() +
                hist->At(TraceKind::kLaunch, SizeClass::k1G).count(),
            0u);
}

TEST(ObsSystemTest, ProcSnapshotHasAllSections) {
  System sys(ObsConfigOn());
  auto proc = sys.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(sys.Mmap(**proc, MmapArgs{.length = kMiB, .populate = true}).ok());

  const std::string snap = sys.DumpProcSnapshot();
  for (const char* section :
       {"== meminfo ==", "== tierstat ==", "== contigstat ==", "== pmfs ==", "== vmstat ==",
        "== trace ==", "== latency ==", "== tailstat =="}) {
    EXPECT_NE(snap.find(section), std::string::npos) << "missing " << section << "\n" << snap;
  }
  // vmstat rows come from the X-macro visitor, so every counter is present.
  EXPECT_NE(snap.find("minor_faults"), std::string::npos);
  EXPECT_NE(snap.find("tier_migrated_bytes"), std::string::npos);
  // The latency section names the op and its class.
  EXPECT_NE(snap.find("mmap"), std::string::npos);
}

TEST(ObsSystemTest, WriteTraceEmitsChromeJson) {
  System sys(ObsConfigOn());
  auto proc = sys.Launch(Backend::kBaseline);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(sys.Mmap(**proc, MmapArgs{.length = kMiB, .populate = true}).ok());

  const std::string path = testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(sys.WriteTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  const std::string json = body.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mmap\""), std::string::npos);
  EXPECT_NE(json.find("\"size_class\":\"2M\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsSystemTest, ChromeExportNamesEachCategory) {
  // A request's root span and an overload instant are service events; a
  // fault and an mmap keep their own categories.
  TraceGroup group{.pid = 1, .label = "test"};
  group.events.push_back(TraceEvent{.duration_cycles = 10,
                                    .operand_bytes = 64,
                                    .trace_id = 5,
                                    .span_id = 1,
                                    .kind = TraceKind::kKvGet});
  group.events.push_back(TraceEvent{.kind = TraceKind::kAdmissionShed, .instant = 1});
  group.events.push_back(TraceEvent{.duration_cycles = 10, .kind = TraceKind::kFault});
  group.events.push_back(TraceEvent{.duration_cycles = 10, .kind = TraceKind::kMmap});
  const std::string json = ChromeTraceJson({group}, /*cpu_ghz=*/2.0);
  EXPECT_NE(json.find("\"name\":\"kv_get\",\"cat\":\"service\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"admission_shed\",\"cat\":\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault\",\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mmap\",\"cat\":\"syscall\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\":\"other\""), std::string::npos);
}

TEST(ObsSystemTest, WriteTraceUnsupportedWhenOff) {
  System sys;
  const Status status = sys.WriteTrace(testing::TempDir() + "/never_written.json");
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace o1mem
