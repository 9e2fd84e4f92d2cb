// FaultInjector: the simulator's adversary for persistent memory.
//
// Owned by Machine and consulted by PhysicalMemory on every NVM line write,
// flush, and read. Three fault families:
//
//  1. Crash points. ArmCrashAtNvmWrite(n) / ArmCrashAtFlush(n) pick the
//     n-th NVM line-write (or flush) event since machine boot; that event
//     and everything after it never becomes durable. Callers poll
//     triggered() and invoke the normal crash path when it fires, which
//     turns any workload into a deterministic crash-point sweep: measure
//     the total event count on a golden run, then re-run the workload once
//     per index and verify recovery each time.
//
//  2. Torn persists (kExplicitFlush). At crash, each dirty-but-unflushed
//     NVM line independently either reaches media or reverts, decided by a
//     seeded per-line coin flip -- the multi-line persist is torn. Without
//     this, Crash() reverts every unflushed line, which is the *kindest*
//     legal outcome and hides recovery bugs.
//
//  3. Media faults. MarkUnreadable poisons a 64 B line -- NVM or DRAM-tier
//     alike -- so reads return StatusCode::kMediaError (transient poison
//     clears on overwrite; sticky poison models a worn-out cell and never
//     clears). DRAM-tier poison caught mid-migration exercises the tier
//     engine's extent quarantine path; at machine crash, transient DRAM
//     poison clears with the power cycle (the latched ECC error is gone)
//     while sticky poison survives in either tier. FlipBit silently
//     corrupts a stored bit, which checksums must catch.
//
// An idle injector (nothing armed, no poison) is behaviorally invisible:
// PhysicalMemory's semantics and charges are bit-identical with or without
// it attached.
#ifndef O1MEM_SRC_SIM_FAULT_INJECTOR_H_
#define O1MEM_SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/support/status.h"
#include "src/support/units.h"

namespace o1mem {

class PhysicalMemory;
class SimContext;

class FaultInjector {
 public:
  FaultInjector() = default;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Wired up by Machine (or by a test driving a raw PhysicalMemory).
  void AttachPhys(PhysicalMemory* phys) { phys_ = phys; }
  // Lets trigger transitions emit trace events (src/obs); optional.
  void AttachCtx(SimContext* ctx) { ctx_ = ctx; }

  // --- Crash points -------------------------------------------------------

  // Arms a power cut at the NVM line-write event with absolute index
  // `index` (0-based, counted from machine boot / ResetEventCounters). The
  // write that carries the armed index, and every NVM write and flush after
  // it, stays volatile: a subsequent crash discards it all.
  void ArmCrashAtNvmWrite(uint64_t index);

  // Same, but counted in charged FlushLines calls that touch NVM. The
  // armed flush itself does not commit its lines.
  void ArmCrashAtFlush(uint64_t index);

  void Disarm();

  // True once an armed event index has been reached. The workload driver
  // polls this between operations and then calls the normal crash path
  // (e.g. System::Crash()).
  bool triggered() const { return triggered_; }

  // Monotonic event counters (for golden-run sweep sizing).
  uint64_t nvm_line_writes() const { return write_count_; }
  uint64_t nvm_flushes() const { return flush_count_; }
  void ResetEventCounters();

  // --- Torn persists ------------------------------------------------------

  // Under kExplicitFlush, makes each dirty-unflushed line persist with
  // probability persist_percent/100 at crash (seeded, deterministic per
  // line) instead of always reverting. No effect under kAutoDurable.
  void EnableTornPersists(uint64_t seed, uint32_t persist_percent = 50);

  // --- Media faults -------------------------------------------------------

  // Poisons the 64 B line containing `paddr` (any tier): reads overlapping
  // it return kMediaError. Transient poison (sticky=false) clears when the
  // line is rewritten; sticky poison models uncorrectable wear and never
  // clears.
  void MarkUnreadable(Paddr paddr, bool sticky);
  void ClearUnreadable(Paddr paddr);
  bool has_poison() const { return !poisoned_.empty(); }

  // True when a write may skip NoteNvmLineWrites' checks and book only its
  // line count: no armed crash point whose write/flush count could trip,
  // not already triggered, no torn-persist sampling, and no poison to heal.
  // PhysicalMemory::FastSpan gates writes through its host pointer on this,
  // so chaos and crash-sweep runs keep their exact event sequence.
  bool WriteBatchSafe() const {
    return !armed_write_.has_value() && !armed_flush_.has_value() && !triggered_ && !torn_ &&
           poisoned_.empty();
  }

  // Flips one stored bit in place (durable copy included). Requires an
  // attached PhysicalMemory.
  void FlipBit(Paddr paddr, int bit);

  // --- Hooks for PhysicalMemory (not for end users) -----------------------

  // Accounts `lines` NVM line-write events; returns true if the call is at
  // or past the armed crash point (the caller must then keep the written
  // lines volatile).
  bool NoteNvmLineWrites(uint64_t lines);

  // Inline accounting for callers that have already proven WriteBatchSafe():
  // with nothing armed, not triggered, and no poison, NoteNvmLineWrites
  // reduces to the count alone. Keeps the nvm_line_writes() total the crash
  // campaigns calibrate against without an out-of-line call per access.
  void AccountBatchSafeLineWrites(uint64_t lines) { write_count_ += lines; }

  // Accounts one NVM flush event; returns true if at/past the crash point.
  bool NoteFlush();

  bool suppress_durability() const { return triggered_; }

  // Records a line written after the crash point so DropVolatile always
  // reverts it, even when torn-persist mode would keep other lines.
  void MarkPostTriggerLine(Paddr line) { post_trigger_lines_.insert(line); }

  // Crash-time verdict for a dirty-unflushed line: revert to durable
  // contents (true) or let it reach media (false).
  bool ShouldRevertOnCrash(Paddr line) const;

  // kMediaError if any poisoned line overlaps [paddr, paddr+len).
  Status CheckRead(Paddr paddr, uint64_t len) const;

  // Overwriting a transiently-poisoned line heals it.
  void NoteWriteForPoison(Paddr paddr, uint64_t len);

  // Lowest poisoned line overlapping the range, if any (scrub patrol).
  std::optional<Paddr> FindUnreadableLine(Paddr paddr, uint64_t len) const;
  bool IsSticky(Paddr paddr) const;

  // Called by Machine::Crash() after DropVolatile: the armed crash has
  // happened, so trigger state resets. NVM poison and sticky poison in any
  // tier survive -- decay is a property of the part, not of the power
  // supply -- but transient DRAM-tier poison (a latched, correctable ECC
  // event) clears with the power cycle, like the DRAM contents themselves.
  void OnMachineCrash();

 private:
  static Paddr LineOf(Paddr paddr) { return paddr & ~static_cast<Paddr>(63); }

  PhysicalMemory* phys_ = nullptr;

  std::optional<uint64_t> armed_write_;
  std::optional<uint64_t> armed_flush_;
  bool triggered_ = false;
  uint64_t write_count_ = 0;
  uint64_t flush_count_ = 0;
  std::unordered_set<Paddr> post_trigger_lines_;

  bool torn_ = false;
  uint64_t torn_seed_ = 0;
  uint32_t torn_persist_percent_ = 50;

  SimContext* ctx_ = nullptr;
  std::unordered_map<Paddr, bool> poisoned_;  // line base -> sticky
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_FAULT_INJECTOR_H_
