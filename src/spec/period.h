#ifndef CHRONOLOG_SPEC_PERIOD_H_
#define CHRONOLOG_SPEC_PERIOD_H_

#include <cstdint>
#include <span>

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
/// `g`), intern its states to exact ids, extract the minimal `(b, p)`
/// consistent with that window, and double `m` until the answer is stable
/// across one doubling. For a program that reads the future
/// (ProgressivityReport::reads_future) each probe after the first scans
/// only the prefix the extension left unchanged, since facts just below `m`
/// can lack support that lies past `m`.
Result<PeriodDetection> DetectPeriod(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options = {});

/// The minimal-period scan of verified doubling over the exact state ids of
/// `M[0...n-1]`: the minimal `(k, p)` (absolute start `k`, not yet
/// normalised by `c`) such that `ids[t] == ids[t + p]` for all `t` in
/// `[k, n-1-p]`, preferring the smallest `p` whose evidence window spans at
/// least `min_cycles` full cycles; false when no candidate has enough
/// evidence. One Z-function pass over the reversed ids finds every `p`'s
/// agreeing suffix at once: `Z[p]`, the longest common prefix of the
/// reversed ids and their shift by `p`, gives `k = n - p - Z[p]`.
bool FindMinimalPeriod(std::span<const int64_t> ids, int64_t min_cycles,
                       int64_t* k_out, int64_t* p_out);

/// Next probe horizon of the verified-doubling loop: `2m`, or -1 when the
/// doubling would exceed `max_horizon` — computed without overflowing even
/// for `max_horizon` above INT64_MAX / 2. Exposed for regression tests.
int64_t NextDoublingHorizon(int64_t m, int64_t max_horizon);

}  // namespace chronolog

#endif  // CHRONOLOG_SPEC_PERIOD_H_
