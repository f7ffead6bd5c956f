// FNV-1a string hashing, used for cache keys and interned symbol tables, and
// the splitmix64 finalizer, used wherever a 64-bit key needs uniform bits.
#ifndef SRC_SUPPORT_HASH_H_
#define SRC_SUPPORT_HASH_H_

#include <cstdint>
#include <string_view>

namespace dvm {

inline uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; i++) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// splitmix64 finalizer (Steele, Lea & Flood): a bijective 64-bit mixer.
// Rendezvous weights, replica affinity, trace sampling, RNG seeding and the
// fuzz scheduler all use this one function.
inline uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace dvm

#endif  // SRC_SUPPORT_HASH_H_
