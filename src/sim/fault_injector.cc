#include "src/sim/fault_injector.h"

#include "src/obs/span.h"

#include <string>

#include "src/sim/phys_mem.h"

namespace o1mem {

namespace {

// splitmix64 finalizer: a stateless per-line hash so torn-persist verdicts
// are deterministic for a given seed regardless of map iteration order.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Status MediaErrorAt(Paddr line) {
  return MediaError("unreadable memory line at paddr " + std::to_string(line));
}

}  // namespace

void FaultInjector::ArmCrashAtNvmWrite(uint64_t index) {
  armed_write_ = index;
  triggered_ = false;
}

void FaultInjector::ArmCrashAtFlush(uint64_t index) {
  armed_flush_ = index;
  triggered_ = false;
}

void FaultInjector::Disarm() {
  armed_write_.reset();
  armed_flush_.reset();
}

void FaultInjector::ResetEventCounters() {
  write_count_ = 0;
  flush_count_ = 0;
}

void FaultInjector::EnableTornPersists(uint64_t seed, uint32_t persist_percent) {
  O1_CHECK(persist_percent <= 100);
  torn_ = true;
  torn_seed_ = seed;
  torn_persist_percent_ = persist_percent;
}

void FaultInjector::MarkUnreadable(Paddr paddr, bool sticky) {
  bool& s = poisoned_[LineOf(paddr)];
  s = s || sticky;
}

void FaultInjector::ClearUnreadable(Paddr paddr) { poisoned_.erase(LineOf(paddr)); }

void FaultInjector::FlipBit(Paddr paddr, int bit) {
  O1_CHECK_MSG(phys_ != nullptr, "FlipBit requires an attached PhysicalMemory");
  phys_->CorruptBit(paddr, bit);
}

bool FaultInjector::NoteNvmLineWrites(uint64_t lines) {
  // The call that carries the armed index is already doomed: power dies
  // mid-burst, so the whole call stays volatile.
  if (armed_write_.has_value() && !triggered_ && write_count_ + lines > *armed_write_) {
    triggered_ = true;
    if (ctx_ != nullptr) {
      ObsInstant(*ctx_, TraceKind::kFaultInject, *armed_write_);
    }
  }
  write_count_ += lines;
  return triggered_;
}

bool FaultInjector::NoteFlush() {
  if (armed_flush_.has_value() && !triggered_ && flush_count_ >= *armed_flush_) {
    triggered_ = true;
    if (ctx_ != nullptr) {
      ObsInstant(*ctx_, TraceKind::kFaultInject, *armed_flush_);
    }
  }
  ++flush_count_;
  return triggered_;
}

bool FaultInjector::ShouldRevertOnCrash(Paddr line) const {
  if (post_trigger_lines_.contains(line)) {
    return true;  // written after the power cut: can never have persisted
  }
  if (!torn_) {
    return true;  // default model: unflushed lines all revert
  }
  // Torn persist: the line either escaped the cache hierarchy before power
  // died or it did not, decided per line and per seed.
  return (Mix(line ^ torn_seed_) % 100) >= torn_persist_percent_;
}

Status FaultInjector::CheckRead(Paddr paddr, uint64_t len) const {
  if (poisoned_.empty() || len == 0) {
    return OkStatus();
  }
  const Paddr first = LineOf(paddr);
  const Paddr last = LineOf(paddr + len - 1);
  const uint64_t range_lines = (last - first) / 64 + 1;
  if (range_lines > poisoned_.size()) {
    // Bulk read: cheaper to scan the (small) poison set than the range.
    for (const auto& [line, sticky] : poisoned_) {
      (void)sticky;
      if (line >= first && line <= last) {
        return MediaErrorAt(line);
      }
    }
    return OkStatus();
  }
  for (Paddr line = first; line <= last; line += 64) {
    if (poisoned_.contains(line)) {
      return MediaErrorAt(line);
    }
  }
  return OkStatus();
}

void FaultInjector::NoteWriteForPoison(Paddr paddr, uint64_t len) {
  if (poisoned_.empty() || len == 0) {
    return;
  }
  const Paddr first = LineOf(paddr);
  const Paddr last = LineOf(paddr + len - 1);
  const uint64_t range_lines = (last - first) / 64 + 1;
  if (range_lines > poisoned_.size()) {
    for (auto it = poisoned_.begin(); it != poisoned_.end();) {
      if (!it->second && it->first >= first && it->first <= last) {
        it = poisoned_.erase(it);
      } else {
        ++it;
      }
    }
    return;
  }
  for (Paddr line = first; line <= last; line += 64) {
    auto it = poisoned_.find(line);
    if (it != poisoned_.end() && !it->second) {
      poisoned_.erase(it);
    }
  }
}

std::optional<Paddr> FaultInjector::FindUnreadableLine(Paddr paddr, uint64_t len) const {
  if (poisoned_.empty() || len == 0) {
    return std::nullopt;
  }
  const Paddr first = LineOf(paddr);
  const Paddr last = LineOf(paddr + len - 1);
  std::optional<Paddr> best;
  for (const auto& [line, sticky] : poisoned_) {
    (void)sticky;
    if (line >= first && line <= last && (!best.has_value() || line < *best)) {
      best = line;
    }
  }
  return best;
}

bool FaultInjector::IsSticky(Paddr paddr) const {
  auto it = poisoned_.find(LineOf(paddr));
  return it != poisoned_.end() && it->second;
}

void FaultInjector::OnMachineCrash() {
  armed_write_.reset();
  armed_flush_.reset();
  triggered_ = false;
  post_trigger_lines_.clear();
  if (phys_ == nullptr) {
    return;
  }
  // Transient DRAM-tier poison is a latched ECC event in a tier whose
  // contents just evaporated: the reboot clears it. Sticky lines (worn
  // cells) and all NVM poison persist.
  const Paddr dram_limit = phys_->dram_bytes();
  for (auto it = poisoned_.begin(); it != poisoned_.end();) {
    if (!it->second && it->first < dram_limit) {
      it = poisoned_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace o1mem
