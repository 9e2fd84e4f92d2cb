// Little-endian loads and stores of unsigned integers at a byte pointer: the
// one byte order of every multi-byte field o1mem persists (the PMFS
// superblock and journal records, FOM table sidecars).
#ifndef O1MEM_SRC_SUPPORT_BYTE_ORDER_H_
#define O1MEM_SRC_SUPPORT_BYTE_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace o1mem {

template <class T>
  requires std::is_unsigned_v<T>
inline T LoadLe(const uint8_t* p) {
  T x = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    x = static_cast<T>(x | static_cast<T>(static_cast<T>(p[i]) << (8 * i)));
  }
  return x;
}

template <class T>
  requires std::is_unsigned_v<T>
inline void StoreLe(uint8_t* p, T x) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<uint8_t>(x >> (8 * i));
  }
}

}  // namespace o1mem

#endif  // O1MEM_SRC_SUPPORT_BYTE_ORDER_H_
