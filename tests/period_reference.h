#ifndef CHRONOLOG_TESTS_PERIOD_REFERENCE_H_
#define CHRONOLOG_TESTS_PERIOD_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "storage/state.h"

namespace chronolog {

/// Reference minimal-period scan over explicitly materialised states (or
/// any equality-comparable stand-ins), the from-scratch oracle the
/// Z-function scan FindMinimalPeriod is checked against: one walk down per
/// candidate `p`, independent of DenseIds and of the Z-function. Returns
/// the minimal `(k, p)` (absolute start `k`, not yet normalised by `c`) such
/// that `states[t] == states[t+p]` for all `t` in `[k, states.size()-1-p]`,
/// preferring the smallest `p` whose evidence window spans at least
/// `min_cycles` full cycles. Returns false when no candidate has enough
/// evidence.
template <typename StateT>
bool FindMinimalPeriodInWindow(const std::vector<StateT>& states,
                               int64_t min_cycles, int64_t* k_out,
                               int64_t* p_out) {
  const int64_t n = static_cast<int64_t>(states.size());
  for (int64_t p = 1; p <= n / (min_cycles + 1); ++p) {
    // Smallest k with states[t] == states[t+p] for all t in [k, n-1-p]:
    // scan down from the end until the first mismatch.
    int64_t k = n - p;
    while (k > 0 && states[k - 1] == states[k - 1 + p]) --k;
    if (k == n - p) continue;  // no trailing agreement at all
    // Evidence: the agreeing suffix must span at least min_cycles cycles.
    if (n - k >= (min_cycles + 1) * p) {
      *k_out = k;
      *p_out = p;
      return true;
    }
  }
  return false;
}

}  // namespace chronolog

#endif  // CHRONOLOG_TESTS_PERIOD_REFERENCE_H_
