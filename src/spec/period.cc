#include "spec/period.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "eval/fixpoint.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace chronolog {

int64_t NextDoublingHorizon(int64_t m, int64_t max_horizon) {
  // `2m <= max_horizon` tested without computing 2m: for max_horizon above
  // INT64_MAX / 2 the naive doubling wraps negative and the probe loop spins
  // on a nonsense horizon instead of reporting exhaustion.
  if (m > max_horizon / 2) return -1;
  return 2 * m;
}

bool FindMinimalPeriod(std::span<const int64_t> ids, int64_t min_cycles,
                       int64_t* k_out, int64_t* p_out) {
  const int64_t n = static_cast<int64_t>(ids.size());
  const int64_t max_p = n / (min_cycles + 1);
  auto reversed = [&](int64_t i) {
    return ids[static_cast<std::size_t>(n - 1 - i)];
  };
  // Z-function of the reversed ids, computed up to max_p; [l, r) is the
  // rightmost segment known to match a prefix.
  std::vector<int64_t> z(static_cast<std::size_t>(max_p) + 1, 0);
  int64_t l = 0;
  int64_t r = 0;
  for (int64_t p = 1; p <= max_p; ++p) {
    int64_t& zp = z[static_cast<std::size_t>(p)];
    if (p < r) zp = std::min(r - p, z[static_cast<std::size_t>(p - l)]);
    while (p + zp < n && reversed(zp) == reversed(p + zp)) ++zp;
    if (p + zp > r) {
      l = p;
      r = p + zp;
    }
    const int64_t k = n - p - zp;
    if (k == n - p) continue;  // no trailing agreement at all
    if (n - k >= (min_cycles + 1) * p) {
      *k_out = k;
      *p_out = p;
      return true;
    }
  }
  return false;
}

namespace {

/// Starting window of verified doubling, before widening to the database
/// horizon plus four temporal depths.
constexpr int64_t kStartHorizon = 64;

Result<PeriodDetection> DetectByDoubling(const Program& program,
                                         const Database& db,
                                         const PeriodDetectionOptions& options,
                                         int64_t c, bool reads_future) {
  TraceSpan span(options.trace, "period.doubling");
  // chronolog_obs instruments, fetched up front (see RunSemiNaiveRounds);
  // null when no registry is attached.
  MetricsRegistry* const metrics = options.metrics;
  Counter* doublings_counter = nullptr;
  Histogram* extend_hist = nullptr;
  Histogram* update_hist = nullptr;
  Histogram* find_hist = nullptr;
  if (metrics != nullptr) {
    doublings_counter = metrics->counter("period.doublings");
    extend_hist = metrics->histogram("period.extend_ns");
    update_hist = metrics->histogram("period.update_ns");
    find_hist = metrics->histogram("period.find_ns");
  }

  PeriodDetection result{Period{}, c, 0, Interpretation(program.vocab_ptr()),
                         /*exact=*/false, {}};
  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());

  // Saturating `c + 4g + 4`: a wrapped start window would truncate the
  // database away; a saturated one exceeds max_horizon and is exhausted.
  int64_t m = std::numeric_limits<int64_t>::max();
  if (g <= (m - 4) / 4 && c <= m - (4 * g + 4)) m = c + 4 * g + 4;
  m = std::max(kStartHorizon, m);

  // The model and its state ids persist across doublings: probing horizon
  // 2m extends the closed horizon-m model instead of recomputing it
  // (ExtendFixpoint), and only the states the extension may have changed
  // are interned again.
  Interpretation model(program.vocab_ptr());
  std::vector<int64_t> ids;
  DenseIds state_ids;
  auto snapshots_equal = [&model](int64_t s, int64_t t) {
    return model.SnapshotEquals(s, t);
  };
  int64_t prev_m = -1;
  bool have_candidate = false;
  int64_t prev_k = -1;
  int64_t prev_p = -1;

  while (m <= options.max_horizon) {
    if (doublings_counter != nullptr) doublings_counter->Add();
    FixpointOptions fp;
    static_cast<EvalContext&>(fp) = options;
    fp.max_time = m;
    EvalStats round_stats;
    int64_t changed_from = 0;
    {
      TraceSpan extend_span(options.trace, "period.extend");
      PhaseTimer extend_timer(metrics != nullptr, /*field=*/nullptr,
                              extend_hist);
      if (prev_m < 0) {
        CHRONOLOG_ASSIGN_OR_RETURN(
            model, SemiNaiveFixpoint(program, db, fp, &round_stats));
      } else {
        CHRONOLOG_ASSIGN_OR_RETURN(
            model,
            ExtendFixpoint(program, db, std::move(model), prev_m, fp,
                           &round_stats));
        // States strictly below the earliest time the extension touched
        // are unchanged (a non-progressive extension can rewrite history:
        // newly admitted facts feed backward rules).
        changed_from = std::min(prev_m + 1, round_stats.min_new_time);
      }
    }
    {
      // Intern the states of the changed suffix only; the ids of earlier
      // states, and the ids first seen there, stay valid.
      TraceSpan update_span(options.trace, "period.update");
      PhaseTimer update_timer(metrics != nullptr, /*field=*/nullptr,
                              update_hist);
      state_ids.ForgetFrom(changed_from);
      ids.resize(static_cast<std::size_t>(changed_from));
      for (int64_t t = changed_from; t <= m; ++t) {
        ids.push_back(
            state_ids.Intern(model.SnapshotHash(t), t, snapshots_equal));
      }
    }
    result.stats.Add(round_stats);

    // A program that reads the future can lack facts just below m whose
    // support lies past m; only the prefix the extension left unchanged is
    // settled.
    const std::size_t scanned = reads_future && prev_m >= 0
                                    ? static_cast<std::size_t>(changed_from)
                                    : ids.size();
    int64_t k = 0;
    int64_t p = 0;
    bool found;
    {
      TraceSpan find_span(options.trace, "period.find");
      PhaseTimer find_timer(metrics != nullptr, /*field=*/nullptr, find_hist);
      found = FindMinimalPeriod(std::span(ids).first(scanned),
                                /*min_cycles=*/3, &k, &p);
    }
    if (found && have_candidate && k == prev_k && p == prev_p) {
      result.period.b = std::max<int64_t>(0, k - c);
      result.period.p = p;
      result.horizon = m;
      result.model = std::move(model);
      return result;
    }
    have_candidate = found;
    prev_k = k;
    prev_p = p;
    prev_m = m;
    m = NextDoublingHorizon(m, options.max_horizon);
    if (m < 0) break;
  }
  return ResourceExhaustedError(
      "DetectPeriod: no stable period within max_horizon = " +
      std::to_string(options.max_horizon) +
      "; the period may be exponential in the database size (Theorem 3.1)");
}

}  // namespace

Result<PeriodDetection> DetectPeriod(const Program& program,
                                     const Database& db,
                                     const PeriodDetectionOptions& options) {
  const ProgressivityReport report = CheckProgressive(program);
  if (report.progressive) return ForwardSimulate(program, db, options);
  return DetectByDoubling(program, db, options, db.MaxTemporalDepth(),
                          report.reads_future);
}

}  // namespace chronolog
