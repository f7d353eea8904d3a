#ifndef CHRONOLOG_SPEC_PERIOD_H_
#define CHRONOLOG_SPEC_PERIOD_H_

#include <cstdint>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "eval/forward.h"
#include "storage/interpretation.h"
#include "util/result.h"

namespace chronolog {

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

/// The minimal-period scan of verified doubling over the state hashes of
/// `M[0...n-1]`: the minimal `(k, p)` (absolute start `k`, not yet
/// normalised by `c`) such that the states at `t` and `t + p` agree for all
/// `t` in `[k, n-1-p]`, preferring the smallest `p` whose evidence window
/// spans at least `min_cycles` full cycles; false when no candidate has
/// enough evidence. States agree as AgreeingSuffixStart decides: by hash,
/// confirmed by `equal`. With an exact `equal` this is the from-scratch
/// scan over the states themselves; with a constant `true` it trusts hash
/// agreement, and the caller verifies the winning candidate in place.
template <typename Equal>
bool FindMinimalPeriod(const std::vector<std::size_t>& hashes,
                       int64_t min_cycles, const Equal& equal, int64_t* k_out,
                       int64_t* p_out) {
  const int64_t n = static_cast<int64_t>(hashes.size());
  for (int64_t p = 1; p <= n / (min_cycles + 1); ++p) {
    const int64_t k = AgreeingSuffixStart(hashes, p, n - p, equal);
    if (k == n - p) continue;  // no trailing agreement at all
    if (n - k >= (min_cycles + 1) * p) {
      *k_out = k;
      *p_out = p;
      return true;
    }
  }
  return false;
}

/// What verified doubling carries from one probe horizon to the next: the
/// previous probe's candidate and whether the scan has switched to exact
/// mode.
struct DoublingScan {
  bool have_candidate = false;
  int64_t k = -1;
  int64_t p = -1;
  /// Set once verification refutes a candidate (a genuine hash collision):
  /// from then on every hash-agreeing position is confirmed with the exact
  /// check, so the scan cannot re-propose the colliding candidate.
  bool exact = false;
};

/// First half of one probe of verified doubling, over the state hashes of
/// `M[0...m]`: FindMinimalPeriod (`min_cycles = 3`, trusting hash agreement
/// unless `scan->exact`) proposes a candidate `(scan->k, scan->p)`. True
/// when it equals the previous probe's candidate — stable across a doubling,
/// so VerifyStableCandidate decides on it. `snapshot_equal(s, t)` is the
/// exact state comparison.
template <typename Equal>
bool ScanForStableCandidate(const std::vector<std::size_t>& hashes,
                            const Equal& snapshot_equal, DoublingScan* scan) {
  auto equal = [&](int64_t s, int64_t t) {
    return !scan->exact || snapshot_equal(s, t);
  };
  int64_t k = 0;
  int64_t p = 0;
  if (!FindMinimalPeriod(hashes, /*min_cycles=*/3, equal, &k, &p)) {
    scan->have_candidate = false;
    return false;
  }
  const bool stable = scan->have_candidate && k == scan->k && p == scan->p;
  scan->have_candidate = true;
  scan->k = k;
  scan->p = p;
  return stable;
}

/// Second half: confirms the stable candidate on its whole evidence window
/// `[k, m - p]` in place, unless the exact scan has already done so. True
/// accepts `(scan->k, scan->p)`. A refutation leaves the scan exact for the
/// rest of the run and restarts the stability count.
template <typename Equal>
bool VerifyStableCandidate(const std::vector<std::size_t>& hashes,
                           const Equal& snapshot_equal, DoublingScan* scan) {
  if (scan->exact) return true;
  scan->exact = true;
  const int64_t m = static_cast<int64_t>(hashes.size()) - 1;
  if (AgreeingSuffixStart(hashes, scan->p, m + 1 - scan->p,
                          snapshot_equal) == scan->k) {
    return true;
  }
  scan->have_candidate = false;
  return false;
}

/// Next probe horizon of the verified-doubling loop: `2m`, or -1 when the
/// doubling would exceed `max_horizon` — computed without overflowing even
/// for `max_horizon` above INT64_MAX / 2. Exposed for regression tests.
int64_t NextDoublingHorizon(int64_t m, int64_t max_horizon);

}  // namespace chronolog

#endif  // CHRONOLOG_SPEC_PERIOD_H_
