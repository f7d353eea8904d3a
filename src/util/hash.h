#ifndef CHRONOLOG_UTIL_HASH_H_
#define CHRONOLOG_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace chronolog {

/// Mixes `value` into `seed` (boost::hash_combine-style, with a 64-bit
/// golden-ratio constant). Order-sensitive.
inline void HashCombine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hashes a contiguous range of integral values.
template <typename Int>
std::size_t HashRange(const Int* data, std::size_t n, std::size_t seed = 0) {
  for (std::size_t i = 0; i < n; ++i) {
    HashCombine(seed, static_cast<std::size_t>(data[i]));
  }
  return seed;
}

/// Strong 64-bit finalizer (splitmix64). Used to decorrelate per-fact hashes
/// before they enter an order-independent (sum) combine: without finalization
/// the additive combine would let structured inputs cancel.
inline std::size_t Mix64(std::size_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hash functor for vectors of integral values (tuples of interned symbols).
struct VectorHash {
  template <typename Int>
  std::size_t operator()(const std::vector<Int>& v) const {
    return HashRange(v.data(), v.size(), v.size());
  }
};

}  // namespace chronolog

#endif  // CHRONOLOG_UTIL_HASH_H_
