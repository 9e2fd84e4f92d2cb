// Request-scoped causal tracing: the serving stack tags spans with
// (trace id, span id, parent span), stages complete trees per request, and
// keeps tail exemplars in a fixed reservoir -- deterministically (identical
// runs retain byte-identical trees), in O(1) memory, and at zero simulated
// cost (the traced run's clock and counters are bit-identical to the
// untraced run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/chaos/shard_service.h"
#include "src/obs/exemplar.h"

namespace o1mem {
namespace {

TraceEvent Ev(uint64_t trace_id, uint32_t span, uint32_t parent, uint64_t start) {
  return TraceEvent{.start_cycles = start,
                    .duration_cycles = 10,
                    .operand_bytes = 64,
                    .trace_id = trace_id,
                    .span_id = span,
                    .parent_span = parent,
                    .kind = TraceKind::kServiceOp,
                    .cpu = 0,
                    .instant = 0,
                    .size_class = SizeClass::k4K};
}

TEST(TraceStagerTest, ClaimsAppendsAndReleasesSlots) {
  TraceStager stager(2, 4);
  EXPECT_EQ(stager.capacity(), 2u);
  EXPECT_TRUE(stager.Begin(11));
  EXPECT_TRUE(stager.Begin(22));
  EXPECT_FALSE(stager.Begin(33));  // pool exhausted
  EXPECT_FALSE(stager.Begin(11));  // duplicate id
  EXPECT_EQ(stager.misses(), 2u);

  stager.Append(Ev(11, 2, 1, 100));
  stager.Append(Ev(11, 3, 1, 200));
  stager.Append(Ev(99, 2, 1, 300));  // unstaged trace: dropped silently
  const TraceStager::Slot* slot = stager.Find(11);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->count, 2u);
  EXPECT_EQ(slot->overflow, 0u);

  stager.Release(11);
  EXPECT_EQ(stager.Find(11), nullptr);
  EXPECT_TRUE(stager.Begin(33));  // slot recycled
  EXPECT_EQ(stager.staged(), 2u);
}

TEST(TraceStagerTest, OverflowCountsBeyondSlotCapacity) {
  TraceStager stager(1, 2);
  ASSERT_TRUE(stager.Begin(7));
  for (uint32_t i = 0; i < 5; ++i) {
    stager.Append(Ev(7, 2 + i, 1, i));
  }
  const TraceStager::Slot* slot = stager.Find(7);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->count, 2u);     // first two kept
  EXPECT_EQ(slot->overflow, 3u);  // rest counted, not stored
}

TEST(ExemplarReservoirTest, OverwritesOldestPerBucket) {
  ExemplarReservoir reservoir(/*per_bucket=*/2, /*max_events=*/8);
  TraceStager stager(1, 8);
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(stager.Begin(id));
    stager.Append(Ev(id, 2, 1, id * 100));
    TraceEvent root = Ev(id, 1, 0, id * 100);
    root.kind = TraceKind::kKvGet;
    reservoir.Keep(root, *stager.Find(id));
    stager.Release(id);
  }
  EXPECT_EQ(reservoir.kept_total(), 5u);
  std::vector<uint64_t> ids;
  reservoir.ForEach([&ids](const Exemplar& e) { ids.push_back(e.trace_id); });
  // Bucket holds 2: the two newest, oldest first.
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 4u);
  EXPECT_EQ(ids[1], 5u);

  const std::vector<Exemplar> drained = reservoir.Drain();
  EXPECT_EQ(drained.size(), 2u);
  std::vector<uint64_t> after;
  reservoir.ForEach([&after](const Exemplar& e) { after.push_back(e.trace_id); });
  EXPECT_TRUE(after.empty());
}

TEST(ExemplarReservoirTest, TruncatesWideTreesAndCountsDrops) {
  ExemplarReservoir reservoir(/*per_bucket=*/1, /*max_events=*/2);
  TraceStager stager(1, 4);
  ASSERT_TRUE(stager.Begin(9));
  for (uint32_t i = 0; i < 6; ++i) {
    stager.Append(Ev(9, 2 + i, 1, i));  // 4 staged + 2 overflow
  }
  reservoir.Keep(Ev(9, 1, 0, 0), *stager.Find(9));
  reservoir.ForEach([](const Exemplar& e) {
    EXPECT_EQ(e.events.size(), 2u);       // truncated to max_events
    EXPECT_EQ(e.events_dropped, 2u + 2u);  // slot overflow + truncation
  });
}

// --- service-level: the whole artifact, end to end -------------------------

SystemConfig ServiceMachine(bool traced) {
  SystemConfig config;
  config.machine.dram_bytes = 64 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  config.machine.smp.num_cpus = 2;
  if (traced) {
    config.machine.obs.histograms = true;
    config.machine.obs.trace = true;
  }
  return config;
}

// Bursty open loop over capacity: long admission waits and client retries,
// so the tail has structure worth explaining.
ShardServiceConfig BurstService() {
  ShardServiceConfig config;
  config.shards = 3;
  config.shard_bytes = 1024 * ShardedKvService::kRecordBytes;
  config.ops = 1500;
  config.arrival.enabled = true;
  config.arrival.kind = ArrivalConfig::Kind::kBurst;
  config.arrival.rate = 24.0;
  config.arrival.burst_ticks = 40;
  config.overload = OverloadConfig::Protected();
  return config;
}

struct TracedRun {
  ShardServiceReport report;
  uint64_t cycles = 0;
  EventCounters counters;
  std::vector<Exemplar> exemplars;
  std::vector<MetricSample> metrics;
  TailSnapshot tail;
};

TracedRun RunTraced(bool traced) {
  System sys(ServiceMachine(traced));
  ShardedKvService service(sys, BurstService());
  TracedRun out;
  out.report = service.Run();
  out.cycles = sys.ctx().now();
  out.counters = sys.ctx().counters();
  Observer& obs = sys.machine().observer();
  if (obs.exemplars() != nullptr) {
    obs.exemplars()->ForEach([&out](const Exemplar& e) { out.exemplars.push_back(e); });
  }
  if (obs.metrics() != nullptr) {
    out.metrics = obs.metrics()->Snapshot();
  }
  out.tail = obs.tail();
  return out;
}

TEST(CausalTraceTest, TracedServiceRunIsCycleNeutral) {
  // The acceptance bar: arming trace + exemplars + metrics + histograms
  // must not move the simulated clock, any event counter, or any report
  // number relative to the all-off run.
  const TracedRun off = RunTraced(false);
  const TracedRun on = RunTraced(true);
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(std::memcmp(&off.counters, &on.counters, sizeof(EventCounters)), 0);
  EXPECT_EQ(off.report.ops_attempted, on.report.ops_attempted);
  EXPECT_EQ(off.report.ops_ok, on.report.ops_ok);
  EXPECT_EQ(off.report.retries, on.report.retries);
  EXPECT_EQ(off.report.overload.served, on.report.overload.served);
  EXPECT_EQ(off.report.overload.sheds, on.report.overload.sheds);
  EXPECT_EQ(off.report.run_us, on.report.run_us);
  EXPECT_EQ(off.report.ticks, on.report.ticks);
  // The tail snapshot is service-side accounting, identical either way.
  EXPECT_EQ(off.report.tail.p999_us, on.report.tail.p999_us);
  EXPECT_EQ(off.report.tail.top_component, on.report.tail.top_component);
  EXPECT_GT(off.cycles, 0u);
  EXPECT_FALSE(on.exemplars.empty());  // and the traced run kept trees
}

TEST(CausalTraceTest, ExemplarTreesAreWellFormed) {
  const TracedRun run = RunTraced(true);
  ASSERT_FALSE(run.exemplars.empty());
  for (const Exemplar& e : run.exemplars) {
    EXPECT_NE(e.trace_id, 0u);
    EXPECT_GT(e.duration_cycles, 0u);
    ASSERT_FALSE(e.events.empty());
    std::set<uint32_t> spans;
    bool saw_root = false;
    for (const TraceEvent& ev : e.events) {
      EXPECT_EQ(ev.trace_id, e.trace_id);  // one tree, one trace
      EXPECT_TRUE(spans.insert(ev.span_id).second) << "duplicate span id";
      if (ev.span_id == 1) {
        saw_root = true;
        EXPECT_EQ(ev.parent_span, 0u);
        EXPECT_EQ(ev.kind, e.kind);
      }
    }
    EXPECT_TRUE(saw_root);
    // Every non-root event parents onto another span of the same tree (the
    // parent completes after its children, so parents may appear later).
    for (const TraceEvent& ev : e.events) {
      if (ev.span_id != 1) {
        EXPECT_TRUE(spans.count(ev.parent_span) != 0)
            << "span " << ev.span_id << " orphaned (parent " << ev.parent_span << ")";
      }
    }
  }
}

TEST(CausalTraceTest, ExemplarsReplayByteIdentically) {
  // Same workload, same seeds => the reservoir retains the same trees in
  // the same order, byte for byte. This is what makes a p999 exemplar a
  // *replayable* artifact rather than a lucky sample.
  const TracedRun a = RunTraced(true);
  const TracedRun b = RunTraced(true);
  ASSERT_EQ(a.exemplars.size(), b.exemplars.size());
  ASSERT_FALSE(a.exemplars.empty());
  for (size_t i = 0; i < a.exemplars.size(); ++i) {
    const Exemplar& ea = a.exemplars[i];
    const Exemplar& eb = b.exemplars[i];
    EXPECT_EQ(ea.trace_id, eb.trace_id);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.start_cycles, eb.start_cycles);
    EXPECT_EQ(ea.duration_cycles, eb.duration_cycles);
    EXPECT_EQ(ea.events_dropped, eb.events_dropped);
    ASSERT_EQ(ea.events.size(), eb.events.size());
    EXPECT_EQ(std::memcmp(ea.events.data(), eb.events.data(),
                          ea.events.size() * sizeof(TraceEvent)),
              0);
  }
  // The metrics ring replays too.
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  EXPECT_EQ(std::memcmp(a.metrics.data(), b.metrics.data(),
                        a.metrics.size() * sizeof(MetricSample)),
            0);
}

TEST(CausalTraceTest, MetricsRingSamplesEveryTick) {
  const TracedRun run = RunTraced(true);
  ASSERT_FALSE(run.metrics.empty());
  // One sample per supervisor tick, ticks strictly increasing, stamps
  // nondecreasing, and the queue-depth signal actually moved under burst.
  uint64_t max_depth = 0;
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(run.metrics[i].tick, run.metrics[i - 1].tick);
      EXPECT_GE(run.metrics[i].cycles, run.metrics[i - 1].cycles);
    }
    max_depth = std::max<uint64_t>(max_depth, run.metrics[i].queue_depth);
  }
  EXPECT_GT(max_depth, 0u);
  EXPECT_EQ(run.metrics.size(), static_cast<size_t>(run.report.ticks));
}

TEST(CausalTraceTest, TailSnapshotPublishedToObserver) {
  const TracedRun run = RunTraced(true);
  EXPECT_TRUE(run.tail.valid);
  EXPECT_GT(run.tail.p999_us, 0.0);
  EXPECT_GE(run.tail.blame_coverage, 0.0);
  EXPECT_LE(run.tail.blame_coverage, 1.0);
  EXPECT_FALSE(run.tail.top_component.empty());
  EXPECT_EQ(run.tail.shards.size(), 3u);
  // Report-side copy matches what the observer republishes.
  EXPECT_EQ(run.tail.p999_us, run.report.tail.p999_us);
}

TEST(CausalTraceTest, ProcSnapshotHasTailstatSection) {
  System sys(ServiceMachine(true));
  ShardedKvService service(sys, BurstService());
  (void)service.Run();
  const std::string snap = sys.DumpProcSnapshot();
  EXPECT_NE(snap.find("== tailstat =="), std::string::npos) << snap;
  EXPECT_NE(snap.find("p999_us"), std::string::npos);
  EXPECT_NE(snap.find("top "), std::string::npos);
}

TEST(CausalTraceTest, ReservoirMemoryIsBoundedUnderLongRuns) {
  // Run a longer campaign than the reservoir could ever hold and check the
  // retained state stays within the configured bounds.
  System sys(ServiceMachine(true));
  ShardServiceConfig config = BurstService();
  config.ops = 4000;
  ShardedKvService service(sys, config);
  (void)service.Run();
  Observer& obs = sys.machine().observer();
  ASSERT_NE(obs.exemplars(), nullptr);
  size_t total = 0;
  obs.exemplars()->ForEach([&](const Exemplar& e) {
    ++total;
    EXPECT_LE(e.events.size(), kExemplarMaxEvents);
  });
  EXPECT_LE(total, static_cast<size_t>(kTraceKindCount) * kSizeClassCount * kExemplarsPerBucket);
  EXPECT_GT(obs.exemplars()->kept_total(), total);  // it did overwrite
  // The stager pool drained back to empty: every request released its slot.
  ASSERT_NE(obs.stager(), nullptr);
  EXPECT_EQ(obs.stager()->staged(), 0u);
}

}  // namespace
}  // namespace o1mem
