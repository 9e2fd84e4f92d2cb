#include "src/sim/phys_mem.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <vector>

#include "src/sim/context.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

// Minor faults this thread has taken: host pages it faulted in.
long ThreadMinorFaults() {
  rusage usage{};
  O1_CHECK(getrusage(RUSAGE_THREAD, &usage) == 0);
  return usage.ru_minflt;
}

class PhysMemTest : public ::testing::Test {
 protected:
  SimContext ctx_;
  PhysicalMemory mem_{&ctx_, /*dram_bytes=*/4 * kMiB, /*nvm_bytes=*/4 * kMiB};
};

TEST_F(PhysMemTest, TierBoundaries) {
  EXPECT_EQ(mem_.TierOf(0), MemTier::kDram);
  EXPECT_EQ(mem_.TierOf(4 * kMiB - 1), MemTier::kDram);
  EXPECT_EQ(mem_.TierOf(4 * kMiB), MemTier::kNvm);
  EXPECT_EQ(mem_.nvm_base(), 4 * kMiB);
  EXPECT_EQ(mem_.total_bytes(), 8 * kMiB);
}

TEST_F(PhysMemTest, ReadOfUnwrittenMemoryIsZero) {
  std::vector<uint8_t> buf(100, 0xff);
  ASSERT_TRUE(mem_.Read(123, buf).ok());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(PhysMemTest, WriteThenReadRoundTrips) {
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(mem_.Write(kPageSize - 2, data).ok());  // straddles a page boundary
  std::vector<uint8_t> out(5, 0);
  ASSERT_TRUE(mem_.Read(kPageSize - 2, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(PhysMemTest, OutOfRangeRejected) {
  std::vector<uint8_t> buf(16);
  EXPECT_FALSE(mem_.Read(mem_.total_bytes() - 8, buf).ok());
  EXPECT_FALSE(mem_.Write(mem_.total_bytes(), buf).ok());
  EXPECT_FALSE(mem_.Zero(mem_.total_bytes() - 1, 2).ok());
}

TEST_F(PhysMemTest, ZeroClearsData) {
  std::vector<uint8_t> data(kPageSize, 0xab);
  ASSERT_TRUE(mem_.Write(0, data).ok());
  ASSERT_TRUE(mem_.Zero(100, 50).ok());
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(mem_.Read(0, out).ok());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], (i >= 100 && i < 150) ? 0 : 0xab) << i;
  }
  EXPECT_EQ(ctx_.counters().bytes_zeroed, 50u);
}

TEST_F(PhysMemTest, ZeroOfWholeUntouchedPageStaysUnmaterialized) {
  const uint64_t before = mem_.materialized_pages();
  ASSERT_TRUE(mem_.Zero(64 * kPageSize, 4 * kPageSize).ok());
  EXPECT_EQ(mem_.materialized_pages(), before);
}

TEST_F(PhysMemTest, CopyMovesBytesAndCountsThem) {
  std::vector<uint8_t> data = {9, 8, 7, 6};
  ASSERT_TRUE(mem_.Write(10, data).ok());
  ASSERT_TRUE(mem_.Copy(2 * kPageSize + 1, 10, 4).ok());
  std::vector<uint8_t> out(4);
  ASSERT_TRUE(mem_.Read(2 * kPageSize + 1, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(ctx_.counters().bytes_copied, 4u);
}

TEST_F(PhysMemTest, CopyFromUnmaterializedSourceZeroesDestination) {
  std::vector<uint8_t> data(64, 0x5a);
  ASSERT_TRUE(mem_.Write(0, data).ok());
  ASSERT_TRUE(mem_.Copy(0, 512 * kPageSize, 64).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(mem_.Read(0, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

// A frame overwritten whole by a copy of never-written memory holds only
// zeros, so it leaves the live set and gives its host page back, as it would
// under Zero.
TEST_F(PhysMemTest, CopyOfNeverWrittenFrameOverAWrittenOneGivesItsPageBack) {
  const std::vector<uint8_t> page(kPageSize, 0x5a);
  ASSERT_TRUE(mem_.Write(0, page).ok());
  const uint64_t live = mem_.materialized_pages();
  ASSERT_TRUE(mem_.Copy(0, 8 * kPageSize, kPageSize).ok());
  EXPECT_EQ(mem_.materialized_pages(), live - 1);
  EXPECT_EQ(mem_.FastSpan(0, 1, AccessType::kRead), nullptr);
  EXPECT_EQ(mem_.PeekByte(kPageSize - 1), 0);
}

// The same with a source straddling two never-written frames on either side
// of a 2 MiB node boundary: the zero runs of both frames clear the
// destination frame as one run.
TEST_F(PhysMemTest, CopyOfZerosStraddlingTwoFramesGivesThePageBack) {
  const std::vector<uint8_t> page(kPageSize, 0x5a);
  ASSERT_TRUE(mem_.Write(0, page).ok());
  const uint64_t live = mem_.materialized_pages();
  ASSERT_TRUE(mem_.Copy(0, 2 * kMiB - kPageSize / 2, kPageSize).ok());
  EXPECT_EQ(mem_.materialized_pages(), live - 1);
  EXPECT_EQ(mem_.FastSpan(0, 1, AccessType::kRead), nullptr);
  EXPECT_EQ(mem_.PeekByte(kPageSize / 2), 0);
}

TEST_F(PhysMemTest, BulkCostsChargeDramCheaperThanNvmWrite) {
  std::vector<uint8_t> data(kPageSize, 1);
  const uint64_t t0 = ctx_.now();
  ASSERT_TRUE(mem_.Write(0, data).ok());
  const uint64_t dram_cost = ctx_.now() - t0;
  const uint64_t t1 = ctx_.now();
  ASSERT_TRUE(mem_.Write(mem_.nvm_base(), data).ok());
  const uint64_t nvm_cost = ctx_.now() - t1;
  EXPECT_GT(nvm_cost, dram_cost);
}

TEST_F(PhysMemTest, DropVolatileErasesDramKeepsNvm) {
  std::vector<uint8_t> data = {42};
  ASSERT_TRUE(mem_.Write(0, data).ok());
  ASSERT_TRUE(mem_.Write(mem_.nvm_base(), data).ok());
  mem_.DropVolatile();
  EXPECT_EQ(mem_.PeekByte(0), 0);
  EXPECT_EQ(mem_.PeekByte(mem_.nvm_base()), 42);
}

TEST_F(PhysMemTest, PeekPokeUncharged) {
  const uint64_t t0 = ctx_.now();
  mem_.PokeByte(77, 5);
  EXPECT_EQ(mem_.PeekByte(77), 5);
  EXPECT_EQ(ctx_.now(), t0);
}

// ZeroUncharged walks each 2 MiB node's live bits. A span from node 0 into
// the never-touched node 1, with live and never-written frames interleaved,
// must still read back all zero and count every byte. Whole live frames it
// clears leave the live set; it makes no frame live.
TEST_F(PhysMemTest, ZeroAcrossIntoAbsentNodeClearsLiveFramesOnly) {
  constexpr uint64_t kNode = 2 * kMiB;
  const Paddr start = kNode - 5 * kPageSize - 100;  // last 100 bytes of frame 506
  const Paddr end = kNode + 3 * kPageSize + 200;    // first 200 bytes of frame 515
  const std::vector<uint8_t> pattern(kPageSize, 0xab);
  for (const uint64_t frame : {506u, 507u, 509u}) {  // 508, 510, 511: never written
    ASSERT_TRUE(mem_.Write(frame * kPageSize, pattern).ok());
  }
  const uint64_t materialized = mem_.materialized_pages();
  const uint64_t zeroed = ctx_.counters().bytes_zeroed;

  ASSERT_TRUE(mem_.ZeroUncharged(start, end - start).ok());

  std::vector<uint8_t> out(end - start, 0xff);
  ASSERT_TRUE(mem_.Read(start, out).ok());
  EXPECT_EQ(std::count(out.begin(), out.end(), 0), static_cast<std::ptrdiff_t>(out.size()));
  EXPECT_EQ(ctx_.counters().bytes_zeroed - zeroed, end - start);
  // The live head page keeps its bytes before the span and stays live.
  // Whole frames 507 and 509 left the live set; the partly zeroed,
  // never-written tail page stayed out of it.
  EXPECT_EQ(mem_.PeekByte(start - 1), 0xab);
  EXPECT_EQ(mem_.materialized_pages(), materialized - 2);
  EXPECT_NE(mem_.FastSpan(start - 1, 1, AccessType::kRead), nullptr);
  for (const uint64_t frame : {507u, 508u, 509u}) {
    EXPECT_EQ(mem_.FastSpan(frame * kPageSize, 1, AccessType::kRead), nullptr) << frame;
  }
  EXPECT_EQ(mem_.FastSpan(end, 1, AccessType::kRead), nullptr);
  EXPECT_EQ(mem_.FastSpan(kNode, 1, AccessType::kRead), nullptr);
}

// Reads zero-fill never-written frames without touching the host
// reservation: reading 511 of them next to a written frame faults no host
// page in.
TEST_F(PhysMemTest, ReadOfNeverWrittenFramesFaultsInNoHostPage) {
  const std::vector<uint8_t> page(kPageSize, 0x5a);
  ASSERT_TRUE(mem_.Write(0, page).ok());
  std::vector<uint8_t> out(512 * kPageSize, 0xff);
  const auto read_faults = [&](Paddr at) {
    const long before = ThreadMinorFaults();
    O1_CHECK(mem_.ReadUncharged(at, out).ok());
    return ThreadMinorFaults() - before;
  };
  // The first read, of the never-written node at 4 MiB, faults in `out` and
  // the stack the read path uses; the second has only the store left.
  (void)read_faults(4 * kMiB);
  EXPECT_EQ(read_faults(0), 0);
  EXPECT_TRUE(std::equal(page.begin(), page.end(), out.begin()));
  EXPECT_EQ(std::count(out.begin() + kPageSize, out.end(), 0),
            static_cast<std::ptrdiff_t>(511 * kPageSize));
}

// A frame zeroed whole gives its host page back and the next frame written
// takes it, so writing 1,024 distinct frames across both nodes of each tier,
// each zeroed right after its write, faults in a handful of host pages, not
// one per frame.
TEST_F(PhysMemTest, ZeroedFramesGiveTheirHostPagesBack) {
  const std::array<uint8_t, 1> one = {0x7e};
  const auto write_and_zero = [&](uint64_t frame) {
    O1_CHECK(mem_.Write(frame * kPageSize + (frame * 40) % kPageSize, one).ok());
    O1_CHECK(mem_.Zero(frame * kPageSize, kPageSize).ok());
  };
  // One frame outside the measured ones first, so the faults counted are
  // the frames', not the first run of the code and the bookkeeping it
  // allocates.
  write_and_zero(1);
  const long before = ThreadMinorFaults();
  for (uint64_t frame = 0; frame < 2048; frame += 2) {
    write_and_zero(frame);
  }
  EXPECT_LE(ThreadMinorFaults() - before, 8);
  EXPECT_EQ(mem_.materialized_pages(), 0u);
}

// A crash gives every live DRAM frame's host page back: after it, writing as
// many other DRAM frames faults in no host page.
TEST_F(PhysMemTest, DropVolatileGivesDramPagesBack) {
  const std::vector<uint8_t> page(kPageSize, 0x3c);
  const auto write_faults = [&](uint64_t first_frame) {
    const long before = ThreadMinorFaults();
    for (uint64_t frame = first_frame; frame < first_frame + 256; ++frame) {
      O1_CHECK(mem_.Write(frame * kPageSize, page).ok());
    }
    return ThreadMinorFaults() - before;
  };
  (void)write_faults(0);
  mem_.DropVolatile();
  EXPECT_EQ(write_faults(512), 0);
  EXPECT_EQ(mem_.PeekByte(0), 0);
  EXPECT_EQ(mem_.PeekByte(512 * kPageSize), 0x3c);
  EXPECT_EQ(mem_.materialized_pages(), 256u);
}

// Writes one byte into each of `count` frames spread from the first frame of
// `mem` to its last and returns the host pages this thread faulted in doing
// it; then checks that each frame reads back as its byte followed by zeros.
long WriteSpreadFrames(PhysicalMemory& mem, uint64_t count) {
  const uint64_t last = (mem.total_bytes() >> kPageShift) - 1;
  const auto frame_base = [&](uint64_t i) { return i * last / (count - 1) * kPageSize; };
  const auto byte_of = [](uint64_t i) { return static_cast<uint8_t>(0x40 + i % 64); };
  const long before = ThreadMinorFaults();
  for (uint64_t i = 0; i < count; ++i) {
    const std::array<uint8_t, 1> one = {byte_of(i)};
    O1_CHECK(mem.Write(frame_base(i), one).ok());
  }
  const long faults = ThreadMinorFaults() - before;
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t i = 0; i < count; ++i) {
    EXPECT_TRUE(mem.Read(frame_base(i), page).ok());
    EXPECT_EQ(page[0], byte_of(i)) << "frame " << i;
    EXPECT_EQ(std::count(page.begin() + 1, page.end(), 0),
              static_cast<std::ptrdiff_t>(kPageSize - 1))
        << "frame " << i;
  }
  return faults;
}

// A destroyed instance leaves its reservation, all zero, to the next one of
// its size. The first writes DRAM and NVM frames whole and in part, then
// zeroes some of them whole and some in part, and leaves the rest live. No
// byte of it is readable from the second, which takes the host pages the
// first faulted in: writing one byte into each of those frames faults in a
// handful of host pages, not one per frame, and the rest of each frame reads
// as zero.
TEST(PhysMemReuseTest, NextInstanceTakesZeroedResidentPages) {
  constexpr uint64_t kFrames = 128;  // 16 apart: both nodes of each tier
  const auto frame_base = [](uint64_t i) { return i * 16 * kPageSize; };
  SimContext ctx;
  {
    PhysicalMemory first(&ctx, 4 * kMiB, 4 * kMiB);
    for (uint64_t i = 0; i < kFrames; ++i) {
      const std::vector<uint8_t> pattern(kPageSize, static_cast<uint8_t>(0x11 + i));
      const bool partial = i % 4 == 1;
      ASSERT_TRUE(first
                      .Write(frame_base(i) + (partial ? 1000 : 0),
                             std::span(pattern).first(partial ? 200 : kPageSize))
                      .ok());
    }
    for (uint64_t i = 0; i < kFrames; ++i) {
      if (i % 4 == 2) {
        ASSERT_TRUE(first.Zero(frame_base(i), kPageSize).ok());
      } else if (i % 4 == 3) {
        ASSERT_TRUE(first.Zero(frame_base(i) + 1024, 1024).ok());
      }
    }
    ASSERT_EQ(first.host_pages(), kFrames);
    ASSERT_EQ(first.materialized_pages(), kFrames * 3 / 4);
  }
  PhysicalMemory second(&ctx, 4 * kMiB, 4 * kMiB);
  std::vector<uint8_t> page(kPageSize, 0xff);
  for (uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(second.Read(frame_base(i), page).ok());
    EXPECT_EQ(std::count(page.begin(), page.end(), 0), static_cast<std::ptrdiff_t>(kPageSize))
        << "frame " << i;
  }
  const long before = ThreadMinorFaults();
  for (uint64_t i = 0; i < kFrames; ++i) {
    const std::array<uint8_t, 1> one = {static_cast<uint8_t>(0x80 + i)};
    ASSERT_TRUE(second.Write(frame_base(i), one).ok());
  }
  EXPECT_LE(ThreadMinorFaults() - before, 8);
  for (uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(second.Read(frame_base(i), page).ok());
    EXPECT_EQ(page[0], static_cast<uint8_t>(0x80 + i)) << "frame " << i;
    EXPECT_EQ(std::count(page.begin() + 1, page.end(), 0),
              static_cast<std::ptrdiff_t>(kPageSize - 1))
        << "frame " << i;
  }
  EXPECT_EQ(second.host_pages(), kFrames);
}

// The host address of frame 0, which WriteSpreadFrames writes first: the
// first frame an instance writes takes its pool's first page, so this is the
// base of the reservation the instance holds.
const uint8_t* ReservationBase(PhysicalMemory& mem) {
  return mem.FastSpan(0, 1, AccessType::kRead);
}

// A smaller instance takes a larger one's parked reservation and the host
// pages the larger one faulted in. An instance larger than the reservation
// parked maps a fresh one of its own size.
TEST(PhysMemReuseTest, ReservationIsTakenOnlyWhenLargeEnough) {
  constexpr uint64_t kFrames = 128;
  SimContext ctx;
  auto larger = std::make_unique<PhysicalMemory>(&ctx, 32 * kMiB, 32 * kMiB);
  (void)WriteSpreadFrames(*larger, kFrames);
  const uint8_t* larger_base = ReservationBase(*larger);
  larger.reset();
  auto smaller = std::make_unique<PhysicalMemory>(&ctx, 4 * kMiB, 4 * kMiB);
  EXPECT_LE(WriteSpreadFrames(*smaller, kFrames), 8);
  EXPECT_EQ(ReservationBase(*smaller), larger_base);
  // With two small instances alive at once, the second maps a reservation of
  // its own size; destroyed last, it is the one left parked.
  auto other = std::make_unique<PhysicalMemory>(&ctx, 4 * kMiB, 4 * kMiB);
  (void)WriteSpreadFrames(*other, kFrames);
  const uint8_t* other_base = ReservationBase(*other);
  EXPECT_NE(other_base, larger_base);
  smaller.reset();
  other.reset();
  PhysicalMemory largest(&ctx, 64 * kMiB, 64 * kMiB);
  std::vector<uint8_t> page(kPageSize, 0xff);
  ASSERT_TRUE(largest.Read(0, page).ok());
  EXPECT_EQ(std::count(page.begin(), page.end(), 0), static_cast<std::ptrdiff_t>(kPageSize));
  (void)WriteSpreadFrames(largest, kFrames);
  EXPECT_NE(ReservationBase(largest), other_base);
}

TEST(PhysMemDeathTest, FailedReservationIsAClearError) {
  SimContext ctx;
  // Far more than any host's user address space.
  EXPECT_DEATH(PhysicalMemory(&ctx, 0, uint64_t{1} << 60), "cannot reserve");
}

// A dense byte-array model of PhysicalMemory's contract: every byte, the
// durable contents of dirty NVM lines under kExplicitFlush, the zero/copy
// counters, and which frames the simulation may have written since they
// were last cleared whole (FastSpan may hand out only those).
class DenseModel {
 public:
  DenseModel(uint64_t dram, uint64_t total, PersistenceModel persistence)
      : dram_(dram), explicit_(persistence == PersistenceModel::kExplicitFlush),
        bytes_(total), written_(total >> kPageShift) {}

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  bool written(uint64_t frame) const { return written_[frame]; }
  size_t dirty_lines() const { return shadow_.size(); }
  uint64_t zeroed = 0;
  uint64_t copied = 0;

  void Write(Paddr at, std::span<const uint8_t> data) {
    Shadow(at, data.size());
    std::copy(data.begin(), data.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(at));
    MarkWritten(at, data.size());
  }
  void Zero(Paddr at, uint64_t len) {
    Shadow(at, len);
    std::fill_n(bytes_.begin() + static_cast<std::ptrdiff_t>(at), len, 0);
    zeroed += len;
    for (uint64_t f = AlignUp(at, kPageSize) >> kPageShift; f < (at + len) >> kPageShift; ++f) {
      written_[f] = false;
    }
  }
  void Copy(Paddr dst, Paddr src, uint64_t len) {
    const std::vector<uint8_t> data(bytes_.begin() + static_cast<std::ptrdiff_t>(src),
                                    bytes_.begin() + static_cast<std::ptrdiff_t>(src + len));
    Write(dst, data);
    copied += len;
  }
  void CorruptBit(Paddr at, int bit) {
    const auto mask = static_cast<uint8_t>(1u << bit);
    bytes_[at] ^= mask;
    if (auto it = shadow_.find(AlignDown(at, 64)); it != shadow_.end()) {
      it->second[at & 63] ^= mask;
    }
    MarkWritten(at, 1);
  }
  void Flush(Paddr at, uint64_t len) {
    if (len > 0) {
      shadow_.erase(shadow_.lower_bound(AlignDown(at, 64)), shadow_.upper_bound(at + len - 1));
    }
  }
  void DropVolatile() {
    std::fill_n(bytes_.begin(), dram_, 0);
    std::fill_n(written_.begin(), dram_ >> kPageShift, false);
    for (const auto& [line, durable] : shadow_) {
      std::copy(durable.begin(), durable.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(line));
      MarkWritten(line, 64);
    }
    shadow_.clear();
  }

 private:
  void Shadow(Paddr at, uint64_t len) {
    if (!explicit_ || len == 0) {
      return;
    }
    for (Paddr line = AlignDown(at, 64); line < at + len; line += 64) {
      if (line >= dram_ && !shadow_.contains(line)) {
        std::copy_n(bytes_.begin() + static_cast<std::ptrdiff_t>(line), 64,
                    shadow_[line].begin());
      }
    }
  }
  void MarkWritten(Paddr at, uint64_t len) {
    for (uint64_t f = at >> kPageShift; len > 0 && f <= (at + len - 1) >> kPageShift; ++f) {
      written_[f] = true;
    }
  }

  uint64_t dram_;
  bool explicit_;
  std::vector<uint8_t> bytes_;
  std::vector<bool> written_;
  std::map<Paddr, std::array<uint8_t, 64>> shadow_;
};

// Spans start near a frame boundary, the 2 MiB node boundary, the DRAM/NVM
// boundary inside node 1 or the end of memory, and run from a few bytes to
// most of a node, so they cross all of them.
struct Span {
  Paddr at;
  uint64_t len;
};
Span PickSpan(Rng& rng, uint64_t dram, uint64_t total) {
  const Paddr anchors[] = {AlignDown(rng.NextBelow(total), kPageSize), 2 * kMiB, dram, total};
  const Paddr anchor = anchors[rng.NextBelow(std::size(anchors))];
  const Paddr at = anchor - std::min<uint64_t>(anchor, rng.NextBelow(3 * kPageSize) + 1);
  constexpr uint64_t kMaxLen[] = {64, 2 * kPageSize, 6 * kPageSize, 600 * kPageSize};
  const uint64_t len = rng.NextBelow(kMaxLen[rng.NextBelow(std::size(kMaxLen))] + 1);
  return {at, std::min(len, total - at)};
}

// `all` is scratch space for the whole memory, reused across calls.
void ExpectMatchesModel(PhysicalMemory& mem, const SimContext& ctx, const DenseModel& model,
                        std::vector<uint8_t>& all) {
  ASSERT_TRUE(mem.ReadUncharged(0, all).ok());
  if (all != model.bytes()) {
    const auto diff = std::mismatch(all.begin(), all.end(), model.bytes().begin());
    FAIL() << "first wrong byte at " << (diff.first - all.begin());
  }
  EXPECT_EQ(ctx.counters().bytes_zeroed, model.zeroed);
  EXPECT_EQ(ctx.counters().bytes_copied, model.copied);
  EXPECT_EQ(mem.pending_nvm_lines(), model.dirty_lines());
  uint64_t live = 0;
  for (uint64_t frame = 0; frame < mem.total_bytes() >> kPageShift; ++frame) {
    const uint8_t* host = mem.FastSpan(frame << kPageShift, 1, AccessType::kRead);
    if (host != nullptr) {
      ++live;
      ASSERT_TRUE(model.written(frame)) << "FastSpan handed out never-written frame " << frame;
      ASSERT_EQ(*host, model.bytes()[frame << kPageShift]) << frame;
    }
  }
  EXPECT_EQ(mem.materialized_pages(), live);
}

void RunDifferential(PersistenceModel persistence, uint64_t seed) {
  // DRAM ends mid-node, so node 1 straddles the tier boundary.
  constexpr uint64_t kDram = 3 * kMiB;
  SimContext ctx;
  PhysicalMemory mem(&ctx, kDram, 1 * kMiB, persistence);
  DenseModel model(kDram, mem.total_bytes(), persistence);
  std::vector<uint8_t> all(mem.total_bytes());
  Rng rng(seed);
  const auto random_bytes = [&rng](uint64_t len) {
    std::vector<uint8_t> data(len);
    for (uint8_t& b : data) {
      b = static_cast<uint8_t>(rng.NextBelow(255) + 1);
    }
    return data;
  };
  uint64_t peak_live = 0;  // the most frames live at once
  uint64_t entered = 0;    // frames that entered the live set, net per op
  for (int op = 0; op < 400; ++op) {
    SCOPED_TRACE(testing::Message() << "op " << op);
    const uint64_t live_before = mem.materialized_pages();
    const Span span = PickSpan(rng, kDram, mem.total_bytes());
    switch (rng.NextBelow(22)) {
      case 0:
      case 1:
      case 2: {
        std::vector<uint8_t> out(span.len);
        ASSERT_TRUE(mem.Read(span.at, out).ok());
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               model.bytes().begin() + static_cast<std::ptrdiff_t>(span.at)));
        break;
      }
      case 3:
      case 4:
      case 5:
      case 6:
      case 7: {
        const std::vector<uint8_t> data = random_bytes(span.len);
        ASSERT_TRUE((rng.NextBool(0.5) ? mem.Write(span.at, data)
                                       : mem.WriteUncharged(span.at, data))
                        .ok());
        model.Write(span.at, data);
        break;
      }
      case 8:
      case 9:
        ASSERT_TRUE(mem.Zero(span.at, span.len).ok());
        model.Zero(span.at, span.len);
        break;
      case 10:
      case 11:
        ASSERT_TRUE(mem.ZeroUncharged(span.at, span.len).ok());
        model.Zero(span.at, span.len);
        break;
      case 12:
      case 13: {
        // Non-overlapping ranges: Copy makes no promise about overlap.
        const Paddr src = AlignDown(rng.NextBelow(mem.total_bytes() - span.len + 1), 8) +
                          rng.NextBelow(8);
        if (src + span.len > mem.total_bytes() ||
            (src < span.at + span.len && span.at < src + span.len)) {
          break;
        }
        const bool move = rng.NextBool(0.5);
        ASSERT_TRUE((move ? mem.Move(span.at, src, span.len) : mem.Copy(span.at, src, span.len))
                        .ok());
        model.Copy(span.at, src, span.len);
        break;
      }
      case 14:
      case 15: {
        const Paddr at = std::min(span.at, mem.total_bytes() - 1);
        const auto value = static_cast<uint8_t>(rng.NextBelow(256));
        mem.PokeByte(at, value);
        const std::array<uint8_t, 1> one = {value};
        model.Write(at, one);
        break;
      }
      case 16: {
        const Paddr at = std::min(span.at, mem.total_bytes() - 1);
        const int bit = static_cast<int>(rng.NextBelow(8));
        mem.CorruptBit(at, bit);
        model.CorruptBit(at, bit);
        break;
      }
      case 17:
      case 18:
        ASSERT_TRUE(mem.FlushLines(span.at, span.len).ok());
        model.Flush(span.at, span.len);
        break;
      case 19:
      case 20: {
        // Whole frames are zeroed, then other frames written take the host
        // pages just given back, across frames, nodes and the tier boundary.
        const Paddr from = AlignDown(span.at, kPageSize);
        const uint64_t bytes = std::min(AlignUp(span.len, kPageSize), mem.total_bytes() - from);
        ASSERT_TRUE(mem.Zero(from, bytes).ok());
        model.Zero(from, bytes);
        const Span other = PickSpan(rng, kDram, mem.total_bytes());
        const std::vector<uint8_t> data = random_bytes(other.len);
        ASSERT_TRUE(mem.Write(other.at, data).ok());
        model.Write(other.at, data);
        break;
      }
      default:
        if (rng.NextBool(0.3)) {
          mem.DropVolatile();
          model.DropVolatile();
        }
        break;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(mem, ctx, model, all));
    // The pool hands out a page it never used only when no page was given
    // back, so its footprint is the most frames live at once.
    const uint64_t live = mem.materialized_pages();
    entered += live > live_before ? live - live_before : 0;
    peak_live = std::max(peak_live, live);
    ASSERT_EQ(mem.host_pages(), peak_live);
  }
  // More frames entered the live set than the pool has pages: pages were
  // reused.
  EXPECT_GT(entered, mem.host_pages());
}

TEST(PhysMemDifferentialTest, AutoDurableMatchesDenseModel) {
  RunDifferential(PersistenceModel::kAutoDurable, 11);
}

TEST(PhysMemDifferentialTest, ExplicitFlushMatchesDenseModel) {
  RunDifferential(PersistenceModel::kExplicitFlush, 12);
}

}  // namespace
}  // namespace o1mem
