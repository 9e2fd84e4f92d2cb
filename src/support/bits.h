// Word-at-a-time scans over packed bitmaps: bit i lives in words[i / 64] at
// position i % 64. Used wherever a per-block bitmap must answer "where is the
// next set/clear bit" or flip a run without touching bits one by one.
#ifndef O1MEM_SRC_SUPPORT_BITS_H_
#define O1MEM_SRC_SUPPORT_BITS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

namespace o1mem {

// Index of the first bit in [from, limit) equal to `value`, or `limit` if
// there is none. `limit` must not exceed words.size() * 64.
inline uint64_t FindBit(std::span<const uint64_t> words, uint64_t from, uint64_t limit,
                        bool value) {
  if (from >= limit) {
    return limit;
  }
  const uint64_t flip = value ? 0 : ~uint64_t{0};
  uint64_t w = from >> 6;
  uint64_t word = (words[w] ^ flip) & (~uint64_t{0} << (from & 63));
  while (word == 0) {
    ++w;
    if ((w << 6) >= limit) {
      return limit;
    }
    word = words[w] ^ flip;
  }
  return std::min(limit, (w << 6) + static_cast<uint64_t>(std::countr_zero(word)));
}

// Sets (`value`) or clears `count` bits starting at `from`; returns how many
// bits changed.
inline uint64_t AssignBits(std::span<uint64_t> words, uint64_t from, uint64_t count,
                           bool value) {
  uint64_t changed = 0;
  while (count > 0) {
    const uint64_t bit = from & 63;
    const uint64_t take = std::min<uint64_t>(count, 64 - bit);
    const uint64_t mask = take == 64 ? ~uint64_t{0} : ((uint64_t{1} << take) - 1) << bit;
    uint64_t& word = words[from >> 6];
    changed += static_cast<uint64_t>(std::popcount(mask & (value ? ~word : word)));
    word = value ? word | mask : word & ~mask;
    from += take;
    count -= take;
  }
  return changed;
}

}  // namespace o1mem

#endif  // O1MEM_SRC_SUPPORT_BITS_H_
