#ifndef CHRONOLOG_SPEC_PERIOD_H_
#define CHRONOLOG_SPEC_PERIOD_H_

#include <cstdint>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "eval/forward.h"
#include "storage/interpretation.h"
#include "storage/state.h"
#include "util/result.h"

namespace chronolog {

/// Options for minimal-period detection. The fact budget and the sinks come
/// from the EvalContext base and are handed unchanged to the underlying
/// fixpoints / forward simulation.
struct PeriodDetectionOptions : EvalContext {
  /// Hard ceiling for both detectors; exceeded => kResourceExhausted
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

/// Detects the minimal period `(b, p)` of the least model of `Z ∧ D`.
///
/// Progressive programs (eval/forward.h) use the exact simulator: the state
/// windows beyond the database horizon form a deterministic orbit, so the
/// first repeated window yields the minimal period. Other programs fall
/// back to *verified doubling*: compute the truncated least model on
/// `[0...m]` (first `m = max(64, c + 4g + 4)` for the maximal temporal depth
/// `g`), extract the minimal `(b, p)` consistent with that window,
/// then re-verify on `[0...2m]` until the answer is stable with at least two
/// full trailing cycles of slack.
Result<PeriodDetection> DetectPeriod(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options = {});

/// Incrementally maintained minimal-period scan over the snapshot-hash vector
/// of a growing (occasionally history-rewritten) model. The
/// verified-doubling detector keeps one tracker alive across doublings:
/// instead of re-extracting every state and re-scanning the full window at
/// each probe, per-period mismatch frontiers are carried forward and only
/// the hashes from `changed_from` on are re-read.
///
/// Hash agreement is necessary but not sufficient for state equality, so the
/// winning candidate is verified against the live snapshots (VerifyCandidate)
/// before a caller accepts it; a failed verification (a genuine 64-bit hash
/// collision) tightens that period's frontier so the scan converges to the
/// same answer the from-scratch state scan would produce.
class PeriodCandidateTracker {
 public:
  /// Refreshes the cached hash vector to cover `M[0...horizon]` of `model`.
  /// `changed_from` is the smallest time whose snapshot may differ from the
  /// previous call (`min(prev_horizon + 1, EvalStats::min_new_time)`); when
  /// it rewrites history (falls below the previously covered horizon), all
  /// candidate frontiers are invalidated and the next Find re-scans.
  void Update(const Interpretation& model, int64_t horizon,
              int64_t changed_from);

  /// Returns the minimal `(k, p)` (absolute start `k`, not yet normalised by
  /// `c`) such that `hash[t] == hash[t+p]` for all `t` in `[k, n-1-p]`,
  /// preferring the smallest `p` whose evidence window spans at least
  /// `min_cycles` full cycles; false when no candidate has enough evidence.
  /// Resumes each period's scan where the previous call left off.
  /// `min_cycles` must not vary across calls on one tracker.
  bool Find(int64_t min_cycles, int64_t* k_out, int64_t* p_out);

  /// Exact in-place verification that `M[t] = M[t+p]` holds on all
  /// `t in [k, n-1-p]` (the evidence window behind a Find result). On a hash
  /// collision the frontier of `p` is advanced past the refuted position and
  /// false is returned — re-probe via Find.
  bool VerifyCandidate(const Interpretation& model, int64_t k, int64_t p);

 private:
  struct Candidate {
    int64_t k = 0;          // agreeing-suffix start at the last scan
    int64_t scanned_n = 0;  // hash-vector size the last scan covered
  };
  std::vector<std::size_t> hashes_;
  std::vector<Candidate> candidates_;  // candidates_[p - 1] tracks period p
};

/// Next probe horizon of the verified-doubling loop: `2m`, or -1 when the
/// doubling would exceed `max_horizon` — computed without overflowing even
/// for `max_horizon` above INT64_MAX / 2. Exposed for regression tests.
int64_t NextDoublingHorizon(int64_t m, int64_t max_horizon);

}  // namespace chronolog

#endif  // CHRONOLOG_SPEC_PERIOD_H_
