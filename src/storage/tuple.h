#ifndef CHRONOLOG_STORAGE_TUPLE_H_
#define CHRONOLOG_STORAGE_TUPLE_H_

#include <cstddef>
#include <vector>

#include "util/hash.h"
#include "util/symbol_table.h"

namespace chronolog {

/// The non-temporal argument vector of a ground atom. Constants are interned
/// symbols, so a tuple is a plain integer vector. Bulk storage does not hold
/// Tuples: relations keep their rows in columnar form (storage/relation.h)
/// and materialise a Tuple only at API boundaries.
using Tuple = std::vector<SymbolId>;

/// Finalized hash of one time-projected fact `(pred, args)` — the unit of the
/// order-independent snapshot hash. `State::Hash()` and the on-demand
/// `Interpretation::SnapshotHash()` both sum these per-fact values (plus the
/// fact count), so the two must use the exact same definition. `arg(i)`
/// yields the i-th of the `n` arguments, which lets columnar storage hash a
/// row in place instead of gathering it into a Tuple.
template <typename ArgAt>
std::size_t FactHash(std::size_t pred, std::size_t n, ArgAt arg) {
  std::size_t seed = n;
  HashCombine(seed, pred);
  for (std::size_t i = 0; i < n; ++i) {
    HashCombine(seed, static_cast<std::size_t>(arg(i)));
  }
  return Mix64(seed);
}
inline std::size_t FactHash(std::size_t pred, const Tuple& args) {
  return FactHash(pred, args.size(), [&](std::size_t i) { return args[i]; });
}

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_TUPLE_H_
