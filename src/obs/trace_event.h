// Typed trace events: a fixed-size POD record per observed operation.
//
// Kinds cover everything the paper's O(1) claims range over: syscall
// enter/exit (recorded as one complete span with the operand length), fault
// begin/end, tier promotion/demotion/writeback, shootdown batch flushes,
// reclaim passes, journal commits/replays, and fault-injector triggers.
//
// Operand-size classes are the cross-section of the paper's argument: an
// operation is O(1) iff its latency distribution is the same whether it acts
// on 4 KiB or 1 GiB. Every span is bucketed by the size class of its operand
// so that per-class distributions can be compared mechanically
// (tools/trace_report.py's verdict table).
#ifndef O1MEM_SRC_OBS_TRACE_EVENT_H_
#define O1MEM_SRC_OBS_TRACE_EVENT_H_

#include <cstdint>

namespace o1mem {

enum class TraceKind : uint8_t {
  // Syscall-shaped System entry points.
  kLaunch = 0,
  kFork,
  kExit,
  kMmap,
  kMunmap,
  kMprotect,
  kMlock,
  kMunlock,
  kOpen,
  kCreat,
  kClose,
  kRead,
  kWrite,
  kFtruncate,
  kUnlink,
  kMsync,
  kMadviseTier,
  // Namespace / misc syscalls that share one bucket (mkdir, rmdir, list,
  // link, rename, userfault registration).
  kOtherSyscall,
  // FOM whole-file mapping (reached both via System::Mmap and directly).
  kFomMap,
  kFomUnmap,
  // Faults.
  kFault,
  // Shootdowns.
  kShootdownFlush,
  // Tiering.
  kTierTick,
  kTierPromote,
  kTierDemote,
  kTierWriteback,
  kTierQuarantine,
  // Reclaim.
  kReclaim,
  kFomReclaim,
  // PMFS journal.
  kJournalCommit,
  kJournalReplay,
  // Fault injection / power failure.
  kFaultInject,
  kCrash,
  // Application-level request service (bench/app_kv_service shard ops).
  kServiceOp,
  // Overload robustness: admission sheds, circuit-breaker state changes, and
  // brownout level shifts (all instant events; operand carries the detail --
  // queue depth, new breaker state, new brownout level).
  kAdmissionShed,
  kBreakerTransition,
  kBrownoutShift,
  // User-level allocator (SizeClassAllocator): one span per malloc/free with
  // the requested/returned byte count as the operand, so trace_report.py can
  // render the constant-WCET verdict across size classes.
  kMalloc,
  kFree,
  // Guaranteed-contiguous area (src/contig): one span per Claim() with the
  // requested byte count as the operand -- the GCMA path must verdict O(1)
  // across size classes while the CMA baseline is flagged LINEAR -- plus a
  // span per lender-extent revocation.
  kContigAlloc,
  kCmaAlloc,
  kContigRevoke,
  // Request-scoped causal tracing (PR 10). Root spans bracket one client
  // request arrival -> completion (per op class, so the tail decomposes per
  // "kv_get" vs "kv_put" vs "kv_scan"); the wait kinds are child spans of a
  // root covering time the request spent queued behind admission or parked
  // in a client retry backoff. Everything the request did while actually
  // being served nests under its kServiceOp child via TraceContext
  // propagation (src/obs/trace_context.h).
  kKvGet,
  kKvPut,
  kKvScan,
  kAdmissionWait,
  kRetryWait,
  kKindCount,
};

inline constexpr uint32_t kTraceKindCount = static_cast<uint32_t>(TraceKind::kKindCount);

constexpr const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kLaunch: return "launch";
    case TraceKind::kFork: return "fork";
    case TraceKind::kExit: return "exit";
    case TraceKind::kMmap: return "mmap";
    case TraceKind::kMunmap: return "munmap";
    case TraceKind::kMprotect: return "mprotect";
    case TraceKind::kMlock: return "mlock";
    case TraceKind::kMunlock: return "munlock";
    case TraceKind::kOpen: return "open";
    case TraceKind::kCreat: return "creat";
    case TraceKind::kClose: return "close";
    case TraceKind::kRead: return "read";
    case TraceKind::kWrite: return "write";
    case TraceKind::kFtruncate: return "ftruncate";
    case TraceKind::kUnlink: return "unlink";
    case TraceKind::kMsync: return "msync";
    case TraceKind::kMadviseTier: return "madvise_tier";
    case TraceKind::kOtherSyscall: return "syscall_other";
    case TraceKind::kFomMap: return "fom_map";
    case TraceKind::kFomUnmap: return "fom_unmap";
    case TraceKind::kFault: return "fault";
    case TraceKind::kShootdownFlush: return "shootdown_flush";
    case TraceKind::kTierTick: return "tier_tick";
    case TraceKind::kTierPromote: return "tier_promote";
    case TraceKind::kTierDemote: return "tier_demote";
    case TraceKind::kTierWriteback: return "tier_writeback";
    case TraceKind::kTierQuarantine: return "tier_quarantine";
    case TraceKind::kReclaim: return "reclaim";
    case TraceKind::kFomReclaim: return "fom_reclaim";
    case TraceKind::kJournalCommit: return "journal_commit";
    case TraceKind::kJournalReplay: return "journal_replay";
    case TraceKind::kFaultInject: return "fault_inject";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kServiceOp: return "service_op";
    case TraceKind::kAdmissionShed: return "admission_shed";
    case TraceKind::kBreakerTransition: return "breaker_transition";
    case TraceKind::kBrownoutShift: return "brownout_shift";
    case TraceKind::kMalloc: return "malloc";
    case TraceKind::kFree: return "free";
    case TraceKind::kContigAlloc: return "contig_alloc";
    case TraceKind::kCmaAlloc: return "cma_alloc";
    case TraceKind::kContigRevoke: return "contig_revoke";
    case TraceKind::kKvGet: return "kv_get";
    case TraceKind::kKvPut: return "kv_put";
    case TraceKind::kKvScan: return "kv_scan";
    case TraceKind::kAdmissionWait: return "admission_wait";
    case TraceKind::kRetryWait: return "retry_wait";
    case TraceKind::kKindCount: break;
  }
  return "?";
}

// The Chrome-trace category ("cat") of each kind.
constexpr const char* CategoryName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kFault:
      return "fault";
    case TraceKind::kShootdownFlush:
      return "shootdown";
    case TraceKind::kTierTick:
    case TraceKind::kTierPromote:
    case TraceKind::kTierDemote:
    case TraceKind::kTierWriteback:
    case TraceKind::kTierQuarantine:
      return "tier";
    case TraceKind::kReclaim:
    case TraceKind::kFomReclaim:
    case TraceKind::kContigRevoke:
      return "reclaim";  // revocation is reclaim: lender extents give way
    case TraceKind::kJournalCommit:
    case TraceKind::kJournalReplay:
      return "journal";
    case TraceKind::kFaultInject:
    case TraceKind::kCrash:
      return "injector";
    case TraceKind::kAdmissionShed:
    case TraceKind::kBreakerTransition:
    case TraceKind::kBrownoutShift:
    case TraceKind::kKvGet:
    case TraceKind::kKvPut:
    case TraceKind::kKvScan:
    case TraceKind::kAdmissionWait:
    case TraceKind::kRetryWait:
      return "service";
    default:
      return "syscall";  // syscalls, FOM mapping ops, shard ops, malloc, contig
  }
}

// Operand-size classes for the O(1) cross-section. `kNone` is for ops with
// no byte operand (open, close, fork, ...), which have nothing to be linear
// in and are excluded from verdicts.
enum class SizeClass : uint8_t {
  k4K = 0,   // operand <= 4 KiB
  k2M,       // <= 2 MiB
  k1G,       // <= 1 GiB
  kHuge,     // > 1 GiB (whole-file scale)
  kNone,     // no byte operand
  kClassCount,
};

inline constexpr uint32_t kSizeClassCount = static_cast<uint32_t>(SizeClass::kClassCount);

constexpr const char* SizeClassName(SizeClass c) {
  switch (c) {
    case SizeClass::k4K: return "4K";
    case SizeClass::k2M: return "2M";
    case SizeClass::k1G: return "1G";
    case SizeClass::kHuge: return ">1G";
    case SizeClass::kNone: return "-";
    case SizeClass::kClassCount: break;
  }
  return "?";
}

constexpr SizeClass SizeClassOf(uint64_t operand_bytes) {
  if (operand_bytes == 0) {
    return SizeClass::kNone;
  }
  if (operand_bytes <= 4ull * 1024) {
    return SizeClass::k4K;
  }
  if (operand_bytes <= 2ull * 1024 * 1024) {
    return SizeClass::k2M;
  }
  if (operand_bytes <= 1024ull * 1024 * 1024) {
    return SizeClass::k1G;
  }
  return SizeClass::kHuge;
}

// One ring slot. 48 bytes, POD, fixed size: ring memory is exactly
// capacity * sizeof(TraceEvent) for the life of the machine.
//
// The causal-tracing triple (trace_id, span_id, parent_span) is zero for
// events outside any request scope -- exactly the pre-PR-10 record. Within a
// request, span ids are allocated per trace (root = 1, children count up in
// completion-independent construction order), so the same (workload, seed)
// reproduces byte-identical span trees run after run.
struct TraceEvent {
  uint64_t start_cycles = 0;    // sim-clock stamp at span begin (or instant)
  uint64_t duration_cycles = 0; // 0 for instant events
  uint64_t operand_bytes = 0;   // length the op acted on (0 = none)
  uint64_t trace_id = 0;        // request trace (0 = not request-scoped)
  uint32_t span_id = 0;         // unique within the trace (root = 1)
  uint32_t parent_span = 0;     // 0 = root of its trace
  TraceKind kind = TraceKind::kKindCount;
  uint8_t cpu = 0;              // SimContext::current_cpu at emit time
  uint8_t instant = 0;          // 1 = point event, 0 = complete span
  SizeClass size_class = SizeClass::kNone;
};

static_assert(sizeof(TraceEvent) == 48, "TraceEvent must stay a fixed 48-byte slot");

}  // namespace o1mem

#endif  // O1MEM_SRC_OBS_TRACE_EVENT_H_
