// Ablation: crash-recovery and scrub latency.
//
// Recovery cost is the price of the paper's persistence story: after a
// power cut, PMFS re-reads the superblock, replays the valid journal
// prefix, rebuilds the block bitmap, and compacts the journal; FOM then
// revalidates every persistent segment's table sidecar. Scrub() is the
// online version (plus a full media patrol).
//
// Two sweeps, both on the simulated clock (deterministic):
//   * journal length -- metadata ops since the last checkpoint; replay is
//     linear in records, everything else is fixed;
//   * file count -- live persistent files at crash time; checkpoint
//     snapshot encoding, bitmap rebuild, and sidecar revalidation are
//     linear in files/extents, not in bytes.
#include "bench/common.h"

namespace o1mem {
namespace {

SystemConfig RecoveryConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 512 * kMiB;
  config.machine.nvm_bytes = 2 * kGiB;
  return config;
}

struct Row {
  uint64_t x = 0;  // journal records or file count
  double recover_us = 0;
  double scrub_us = 0;
};

// Sweep 1: recovery/scrub vs journal length. A fixed small file set, then
// `target_records` metadata ops (size flips) to grow the journal tail.
Row MeasureJournalLength(uint64_t target_records) {
  System sys(RecoveryConfig());
  constexpr int kFiles = 8;
  std::vector<InodeId> ids;
  for (int f = 0; f < kFiles; ++f) {
    auto id = sys.pmfs().Create("/data/f" + std::to_string(f),
                                FileFlags{.persistent = true});
    O1_CHECK(id.ok());
    ids.push_back(*id);
  }
  // Each Resize appends records; alternate sizes so every op journals.
  uint64_t i = 0;
  while (sys.pmfs().journal_records() < target_records) {
    const InodeId id = ids[i % ids.size()];
    O1_CHECK(sys.pmfs().Resize(id, ((i % 4) + 1) * kPageSize).ok());
    ++i;
  }
  Row row{.x = sys.pmfs().journal_records()};

  sys.machine().Crash();
  SimTimer timer(sys);
  O1_CHECK(sys.pmfs().OnCrash().ok());
  O1_CHECK(sys.fom().OnCrash().ok());
  row.recover_us = timer.ElapsedUs();

  timer.Restart();
  auto report = sys.pmfs().Scrub();
  O1_CHECK(report.ok() && !report->degraded);
  row.scrub_us = timer.ElapsedUs();
  return row;
}

// Sweep 2: recovery/scrub vs live persistent file count (one page each,
// so data volume stays flat while metadata scales).
Row MeasureFileCount(uint64_t files) {
  System sys(RecoveryConfig());
  for (uint64_t f = 0; f < files; ++f) {
    auto seg = sys.fom().CreateSegment(
        "/data/seg" + std::to_string(f), kPageSize,
        SegmentOptions{.flags = {.persistent = true}});
    if (!seg.ok()) {
      std::fprintf(stderr, "CreateSegment %llu/%llu: %s\n",
                   static_cast<unsigned long long>(f),
                   static_cast<unsigned long long>(files),
                   seg.status().ToString().c_str());
    }
    O1_CHECK(seg.ok());
  }
  Row row{.x = files};

  sys.machine().Crash();
  SimTimer timer(sys);
  O1_CHECK(sys.pmfs().OnCrash().ok());
  O1_CHECK(sys.fom().OnCrash().ok());  // revalidates every table sidecar
  row.recover_us = timer.ElapsedUs();

  timer.Restart();
  auto report = sys.pmfs().Scrub();
  O1_CHECK(report.ok() && !report->degraded);
  row.scrub_us = timer.ElapsedUs();
  return row;
}

// The recovery SLO a serving system actually cares about, decomposed: after
// a crash with a warm journal, how long is each leg of the path back to the
// first successfully served request? Reported as individual --json metrics
// (gated by tools/bench_diff.py like any other cost) and consumed by the
// chaos campaigns as the nominal single-shard baseline.
struct RecoverySlo {
  uint64_t replay_records = 0;
  double replay_us = 0;      // PMFS journal replay + bitmap rebuild
  double sidecar_us = 0;     // FOM table-sidecar revalidation
  double scrub_us = 0;       // online media patrol
  double to_serving_us = 0;  // launch + open + map + first read
};

RecoverySlo MeasureRecoverySlo() {
  System sys(RecoveryConfig());
  constexpr uint64_t kStateBytes = 16 * kMiB;
  auto seg = sys.fom().CreateSegment("/srv/state", kStateBytes,
                                     SegmentOptions{.flags = {.persistent = true}});
  O1_CHECK(seg.ok());
  // Warm the journal the way a serving day would: metadata churn on side
  // files while the state segment takes writes.
  {
    auto proc = sys.Launch(Backend::kFom);
    O1_CHECK(proc.ok());
    auto open = sys.fom().OpenSegment("/srv/state");
    O1_CHECK(open.ok());
    auto base = sys.fom().Map((*proc)->fom(), *open, Prot::kReadWrite);
    O1_CHECK(base.ok());
    std::vector<uint8_t> record(1024, 7);
    for (uint64_t i = 0; i < 64; ++i) {
      O1_CHECK(sys.UserWrite(**proc, *base + i * 64 * kKiB, record).ok());
    }
    auto scratch = sys.pmfs().Create("/srv/scratch", FileFlags{.persistent = true});
    O1_CHECK(scratch.ok());
    for (uint64_t i = 0; i < 256; ++i) {
      O1_CHECK(sys.pmfs().Resize(*scratch, ((i % 4) + 1) * kPageSize).ok());
    }
  }
  RecoverySlo slo;
  slo.replay_records = sys.pmfs().journal_records();

  sys.machine().Crash();
  SimTimer timer(sys);
  O1_CHECK(sys.pmfs().OnCrash().ok());
  slo.replay_us = timer.ElapsedUs();
  timer.Restart();
  O1_CHECK(sys.fom().OnCrash().ok());
  slo.sidecar_us = timer.ElapsedUs();
  timer.Restart();
  auto report = sys.pmfs().Scrub();
  O1_CHECK(report.ok() && !report->degraded);
  slo.scrub_us = timer.ElapsedUs();

  timer.Restart();
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto open = sys.fom().OpenSegment("/srv/state");
  O1_CHECK(open.ok());
  auto base = sys.fom().Map((*proc)->fom(), *open, Prot::kReadWrite);
  O1_CHECK(base.ok());
  uint8_t first[64];
  O1_CHECK(sys.UserRead(**proc, *base, first).ok());
  slo.to_serving_us = timer.ElapsedUs();
  return slo;
}

void Run(BenchJson& json, const BenchArgs&) {
  Table by_journal("Ablation: recovery and online scrub latency vs journal length "
                   "(8 files, simulated us)");
  by_journal.AddRow({"journal records", "recover us", "scrub us"});
  for (uint64_t records : {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
    Row row = MeasureJournalLength(records);
    by_journal.AddRow({Table::Int(row.x), Table::Num(row.recover_us),
                       Table::Num(row.scrub_us)});
  }
  json.Emit(by_journal);

  Table by_files("\nAblation: recovery and online scrub latency vs persistent FOM "
                 "segments (4 KiB each; sidecar revalidation included)");
  by_files.AddRow({"files", "recover us", "scrub us"});
  for (uint64_t files : {8ull, 32ull, 128ull, 512ull}) {
    Row row = MeasureFileCount(files);
    by_files.AddRow({Table::Int(row.x), Table::Num(row.recover_us),
                     Table::Num(row.scrub_us)});
  }
  json.Emit(by_files);

  const RecoverySlo slo = MeasureRecoverySlo();
  Table slo_table("\nAblation: crash-to-serving SLO decomposition (16 MiB state, " +
                  std::to_string(slo.replay_records) + " journal records, simulated us)");
  slo_table.AddRow({"leg", "us"});
  slo_table.AddRow({"journal replay + bitmap rebuild", Table::Num(slo.replay_us)});
  slo_table.AddRow({"FOM sidecar revalidation", Table::Num(slo.sidecar_us)});
  slo_table.AddRow({"online scrub (media patrol)", Table::Num(slo.scrub_us)});
  slo_table.AddRow({"launch + map + first read", Table::Num(slo.to_serving_us)});
  json.Emit(slo_table);
  json.Metric("recovery_replay_records", static_cast<double>(slo.replay_records));
  json.Metric("recovery_replay_us", slo.replay_us);
  json.Metric("recovery_sidecar_us", slo.sidecar_us);
  json.Metric("recovery_scrub_us", slo.scrub_us);
  json.Metric("recovery_time_to_serving_us", slo.to_serving_us);

  std::printf(
      "\nReplay is linear in journal records; scrub adds a fixed full-region media "
      "patrol, so it dominates at short journals and amortizes at long ones.\n");
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  return o1mem::BenchMain(argc, argv, "abl_recovery", {}, o1mem::Run);
}
