#ifndef CHRONOLOG_STORAGE_STATE_H_
#define CHRONOLOG_STORAGE_STATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/interpretation.h"

namespace chronolog {

/// The paper's *state* `M[t]` (Section 3.2): the result of projecting out the
/// temporal argument from the snapshot `M(t)` — a finite, function-free
/// database. States are the unit of periodicity detection: a model is
/// periodic with period `(b, p)` when `M[t] = M[t+p]` for all `t >= b + c`.
///
/// Stored canonically (sorted) so equality and hashing are cheap and order-
/// independent.
class State {
 public:
  State() = default;

  /// Extracts `M[t]` from an interpretation.
  static State FromInterpretation(const Interpretation& interp, int64_t t);

  bool empty() const { return facts_.empty(); }
  std::size_t size() const { return facts_.size(); }

  const std::vector<std::pair<PredicateId, Tuple>>& facts() const {
    return facts_;
  }

  /// Order-independent content hash: `size + Σ FactHash(pred, tuple)` — the
  /// from-scratch reference for `Interpretation::SnapshotHash(t)`, which sums
  /// the same per-fact values straight from the cells at `t`.
  std::size_t Hash() const;

  friend bool operator==(const State& a, const State& b) {
    return a.facts_ == b.facts_;
  }
  friend bool operator!=(const State& a, const State& b) { return !(a == b); }

 private:
  std::vector<std::pair<PredicateId, Tuple>> facts_;
};

/// Materialises `M[from], ..., M[to]` from an interpretation. Detection does
/// not need eagerly extracted state vectors (it reads snapshot hashes and
/// compares snapshots in place); this helper serves callers that still want
/// the explicit states, e.g. cross-checking tests.
std::vector<State> ExtractStates(const Interpretation& interp, int64_t from,
                                 int64_t to);

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_STATE_H_
