#ifndef CHRONOLOG_EVAL_BT_H_
#define CHRONOLOG_EVAL_BT_H_

#include <cstdint>
#include <optional>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "storage/interpretation.h"
#include "util/result.h"

namespace chronolog {

/// Options for algorithm BT (paper, Figure 1). The fact budget and the
/// sinks come from the EvalContext base and reach the fixpoint unchanged.
struct BtOptions : EvalContext {
  /// The paper's `range(Z ∧ D)`: the number of different states of the least
  /// model. BT computes its working bound as `m = max(c, h) + range`.
  /// Obtain it from a periodicity analysis (spec/period.h) or from the class
  /// bounds of Sections 5/6 (analysis/). Exactly one of `range` / `horizon`
  /// must be set.
  std::optional<int64_t> range;

  /// Direct override of the working bound `m` (used by tests and by the
  /// depth-scaling benchmark E4).
  std::optional<int64_t> horizon;

  /// No-op: evaluation is sequential. Kept only because perfbench/ still
  /// sets it; delete it together with those assignments.
  int num_threads = 1;
};

/// Outcome of a BT run for a ground atomic query.
struct BtResult {
  bool answer = false;
  /// The bound `m = max(c, h) + range` actually used.
  int64_t m = 0;
  /// The truncated least model `L` computed by the loop; reusable for
  /// further queries of depth <= m.
  Interpretation model;
  EvalStats stats;
};

/// Algorithm BT: decides `M_{Z∧D} |= query` for a ground atomic temporal
/// query by computing the least model truncated to the segment `[0...m]`
/// (Theorem 4.1) with the semi-naive fixpoint. Polynomial in `max(n, c, h)`
/// whenever the period — and hence `range(Z∧D)` — is polynomially bounded.
/// Fails with kOutOfRange when `max(c, h) + range` does not fit `int64_t`.
Result<BtResult> RunBt(const Program& program, const Database& db,
                       const GroundAtom& query, const BtOptions& options);

}  // namespace chronolog

#endif  // CHRONOLOG_EVAL_BT_H_
