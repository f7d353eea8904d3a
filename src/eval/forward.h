#ifndef CHRONOLOG_EVAL_FORWARD_H_
#define CHRONOLOG_EVAL_FORWARD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "eval/rule_eval.h"
#include "storage/interpretation.h"
#include "storage/state.h"
#include "util/hash.h"
#include "util/result.h"

namespace chronolog {

/// A period `(b, p)` of a least model in the paper's convention
/// (Section 3.2): `M[t] = M[t+p]` for all `t >= b + c`, where `c` is the
/// maximum temporal depth in the database.
struct Period {
  int64_t b = 0;
  int64_t p = 1;

  friend bool operator==(const Period& a, const Period& b) {
    return a.b == b.b && a.p == b.p;
  }
};

/// Options shared by both period detectors (ForwardSimulate and the verified
/// doubling of DetectPeriod). The fact budget and the sinks come from the
/// EvalContext base and are handed unchanged to the underlying fixpoints.
struct PeriodDetectionOptions : EvalContext {
  /// Hard ceiling on the materialised horizon; exceeded => kResourceExhausted
  /// (periods can be exponential in the database size, Theorem 3.1).
  int64_t max_horizon = 1 << 20;
};

/// Outcome of period detection: the minimal period of `M_{Z∧D}` and the
/// least model materialised far enough to build a relational specification.
/// Per-time states are not materialised (detection reads the model's
/// snapshot hashes and compares snapshots in place); callers that want them
/// use ExtractStates(model, 0, horizon).
struct PeriodDetection {
  Period period;
  int64_t c = 0;        // max temporal depth of the database
  int64_t horizon = 0;  // model materialised on [0...horizon]
  Interpretation model;
  /// True when produced by the exact forward detector (progressive
  /// programs); false when produced by verified doubling, which certifies
  /// the period on a window of at least two extra cycles but is not a proof.
  bool exact = true;
  EvalStats stats;
};

/// Start of the agreeing suffix of period `p` that ends at `end`: the
/// smallest `k <= end` such that, for every `t` in `[k, end)`, the states at
/// `t` and `t + p` agree — their hashes are equal and `equal(t, t + p)`
/// confirms it. Hash inequality refutes in O(1); `equal` is the exact check
/// (Interpretation::SnapshotEquals in the detectors, a constant `true` to
/// trust hash agreement). Both detectors find cycle entries with it.
template <typename Equal>
int64_t AgreeingSuffixStart(const std::vector<std::size_t>& hashes, int64_t p,
                            int64_t end, const Equal& equal) {
  int64_t k = end;
  while (k > 0 && hashes[static_cast<std::size_t>(k - 1)] ==
                      hashes[static_cast<std::size_t>(k - 1 + p)] &&
         equal(k - 1, k - 1 + p)) {
    --k;
  }
  return k;
}

/// The forward detector's check once the window of `g` states starting at
/// `s` is complete. `starts` maps a window hash to the latest start seen
/// with that hash. True when the window repeats the one at `s1 < s`: the
/// agreeing suffix of period `p = s - s1` ending at `s1 + g` reaches `s1`
/// (both windows are equal), and continues down to the cycle entry `*k_out`;
/// `*p_out = p`. Otherwise records `s`, overwriting the older start on a
/// window-hash collision between distinct windows: if that start was the
/// cycle entry, its successor windows (indexed under other hashes) still
/// repeat, so detection ends a few steps later with the same `(k, p)`.
template <typename Equal>
bool FindRepeatedWindow(const std::vector<std::size_t>& hashes, int64_t g,
                        int64_t s, std::unordered_map<std::size_t, int64_t>*
                                       starts,
                        const Equal& equal, int64_t* k_out, int64_t* p_out) {
  std::size_t window_hash = static_cast<std::size_t>(g);
  for (int64_t i = 0; i < g; ++i) {
    HashCombine(window_hash, hashes[static_cast<std::size_t>(s + i)]);
  }
  auto [seen, inserted] = starts->try_emplace(window_hash, s);
  if (inserted) return false;
  const int64_t s1 = seen->second;
  const int64_t k = AgreeingSuffixStart(hashes, s - s1, s1 + g, equal);
  if (k > s1) {
    seen->second = s;
    return false;
  }
  *k_out = k;
  *p_out = s - s1;
  return true;
}

/// Whether a program is *progressive*: information flows forward in time
/// only, so the least model can be computed timestep by timestep and its
/// minimal period detected exactly (deterministic orbit of state windows).
///
/// A program is progressive when every rule satisfies all of:
///  1. it is semi-normal (at most one temporal variable);
///  2. it contains no ground temporal terms;
///  3. a temporal head `P(T+a, x)` only has temporal body atoms `Q(T+b, y)`
///     with `b <= a`;
///  4. a non-temporal head has a purely non-temporal body.
///
/// Every normal program produced by the paper's constructions (inflationary
/// examples, multi-separable programs, temporalised Datalog) is progressive.
struct ProgressivityReport {
  bool progressive = true;
  std::string reason;  // first violated condition, for diagnostics
};

ProgressivityReport CheckProgressive(const Program& program);

/// Computes the least model of a *progressive* program timestep by timestep
/// and detects its minimal period exactly: past the database horizon the
/// sequence of state windows evolves deterministically, so the first
/// repeated window marks the entry to the cycle and the exact cycle length.
/// Fails with kFailedPrecondition when the program is not progressive and
/// with kResourceExhausted when no period appears within `max_horizon`.
/// The result is always `exact`.
Result<PeriodDetection> ForwardSimulate(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options = {});

}  // namespace chronolog

#endif  // CHRONOLOG_EVAL_FORWARD_H_
