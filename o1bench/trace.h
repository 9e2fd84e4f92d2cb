// Span tracer for the benchmark's traced run.
//
// The benchmark wraps every call it makes into a layer's public function in
// a Span. A span records its name, host start/end (steady_clock ns),
// simulated start/end cycles, its parent and the request (unit of work) it
// serves. Per-name sums cover every call; full records are kept only for a
// bounded set of requests -- the slowest by simulated time and the slowest
// by host time -- and written out when the workload ends. A span's self time
// is its duration minus the time its children cover.
//
// With a null Tracer* every Span is a no-op, so the untraced run pays one
// predictable branch per call.
#ifndef O1BENCH_TRACE_H_
#define O1BENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/context.h"

namespace o1bench {

#define O1BENCH_SPAN_NAMES(X)                  \
  X(kKvOp, "kv.op")                            \
  X(kChurnStep, "churn.step")                  \
  X(kRestart, "restart")                       \
  X(kReadVirt, "sim.read_virt")                \
  X(kWriteVirt, "sim.write_virt")              \
  X(kTouch, "sim.touch")                       \
  X(kNoteAccess, "tier.note_access")           \
  X(kTierTick, "tier.tick")                    \
  X(kMmap, "os.mmap")                          \
  X(kMunmap, "os.munmap")                      \
  X(kMprotect, "os.mprotect")                  \
  X(kFork, "os.fork")                          \
  X(kExit, "os.exit")                          \
  X(kCreat, "os.creat")                        \
  X(kFtruncate, "os.ftruncate")                \
  X(kUnlink, "os.unlink")                      \
  X(kClose, "os.close")                        \
  X(kReclaim, "os.reclaim")                    \
  X(kUserFlush, "os.user_flush")               \
  X(kCrash, "os.crash")                        \
  X(kLaunch, "os.launch")                      \
  X(kOpenSegment, "fom.open_segment")          \
  X(kMap, "fom.map")                           \
  X(kChaosRun, "chaos.run")

enum class SpanName : uint8_t {
#define O1BENCH_SPAN_ENUM(id, str) id,
  O1BENCH_SPAN_NAMES(O1BENCH_SPAN_ENUM)
#undef O1BENCH_SPAN_ENUM
      kCount
};

constexpr size_t kSpanNameCount = static_cast<size_t>(SpanName::kCount);

const char* SpanNameString(SpanName name);

inline uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Sums over every closed span of one name.
struct SpanAgg {
  uint64_t calls = 0;
  uint64_t fail = 0;  // spans closed with a non-OK result
  uint64_t host_ns = 0;
  uint64_t sim_cycles = 0;
  uint64_t self_host_ns = 0;
  uint64_t self_sim_cycles = 0;
};

struct SpanRecord {
  SpanName name = SpanName::kCount;
  bool ok = true;
  uint32_t id = 0;      // 1-based within its request
  uint32_t parent = 0;  // 0 = request root
  uint64_t request = 0;
  uint64_t host_start_ns = 0;
  uint64_t host_end_ns = 0;
  uint64_t sim_start = 0;
  uint64_t sim_end = 0;
  uint64_t self_host_ns = 0;
  uint64_t self_sim_cycles = 0;
};

class Tracer {
 public:
  // The simulated clock spans read; set whenever a new System is built.
  void SetClock(const o1mem::SimContext* ctx) { ctx_ = ctx; }

  void BeginRequest(uint64_t index);
  void EndRequest();

  void Open(SpanName name);
  void Close(bool ok);

  const SpanAgg& agg(SpanName name) const { return agg_[static_cast<size_t>(name)]; }

  // Per-name sums plus the retained requests' span trees as JSON.
  bool WriteJson(const std::string& path, const std::string& header_fields) const;

 private:
  struct OpenSpan {
    SpanName name;
    uint32_t id;
    uint32_t parent;
    uint64_t host_start;
    uint64_t sim_start;
    uint64_t child_host = 0;
    uint64_t child_sim = 0;
  };
  struct Kept {
    uint64_t key = 0;  // root duration the request was ranked by
    std::vector<SpanRecord> spans;
  };
  // Requests kept per ranking.
  static constexpr size_t kKeep = 16;
  // Keeps `current_` if its key beats the smallest kept one (bounded at kKeep).
  void Retain(std::vector<Kept>& kept, uint64_t key);

  const o1mem::SimContext* ctx_ = nullptr;
  std::array<SpanAgg, kSpanNameCount> agg_{};
  std::vector<OpenSpan> stack_;
  std::vector<SpanRecord> current_;
  uint64_t request_ = 0;
  uint32_t next_id_ = 1;
  std::vector<Kept> slowest_sim_;
  std::vector<Kept> slowest_host_;
};

// RAII span; a no-op when the tracer is null. Mark() records a call's
// result so the span counts toward its layer's `fail`.
class Span {
 public:
  Span(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Open(name);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->Close(ok_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  template <typename R>
  R Mark(R result) {
    ok_ = ok_ && result.ok();
    return result;
  }

 private:
  Tracer* tracer_;
  bool ok_ = true;
};

// One request (unit of work) scope: all spans opened inside share `index`.
class RequestScope {
 public:
  RequestScope(Tracer* tracer, uint64_t index) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->BeginRequest(index);
    }
  }
  ~RequestScope() {
    if (tracer_ != nullptr) {
      tracer_->EndRequest();
    }
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace o1bench

#endif  // O1BENCH_TRACE_H_
