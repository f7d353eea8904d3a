#include "spec/period.h"

#include <algorithm>
#include <limits>

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

namespace {

/// Starting window of verified doubling, before widening to the database
/// horizon plus four temporal depths.
constexpr int64_t kStartHorizon = 64;

Result<PeriodDetection> DetectByDoubling(const Program& program,
                                         const Database& db,
                                         const PeriodDetectionOptions& options,
                                         int64_t c) {
  TraceSpan span(options.trace, "period.doubling");
  // chronolog_obs instruments, fetched up front (see RunSemiNaiveRounds);
  // null when no registry is attached.
  MetricsRegistry* const metrics = options.metrics;
  Counter* doublings_counter = nullptr;
  Histogram* extend_hist = nullptr;
  Histogram* update_hist = nullptr;
  Histogram* find_hist = nullptr;
  Histogram* verify_hist = nullptr;
  if (metrics != nullptr) {
    doublings_counter = metrics->counter("period.doublings");
    extend_hist = metrics->histogram("period.extend_ns");
    update_hist = metrics->histogram("period.update_ns");
    find_hist = metrics->histogram("period.find_ns");
    verify_hist = metrics->histogram("period.verify_ns");
  }

  PeriodDetection result{Period{}, c, 0, Interpretation(program.vocab_ptr()),
                         /*exact=*/false, {}};
  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());

  // Saturating `c + 4g + 4`: a wrapped start window would truncate the
  // database away; a saturated one exceeds max_horizon and is exhausted.
  int64_t m = std::numeric_limits<int64_t>::max();
  if (g <= (m - 4) / 4 && c <= m - (4 * g + 4)) m = c + 4 * g + 4;
  m = std::max(kStartHorizon, m);

  // The model and its state hashes persist across doublings: probing
  // horizon 2m extends the closed horizon-m model instead of recomputing it
  // (ExtendFixpoint), and only the states the extension may have changed
  // are rehashed.
  Interpretation model(program.vocab_ptr());
  std::vector<std::size_t> hashes;
  int64_t prev_m = -1;
  DoublingScan scan;
  auto snapshots_equal = [&model](int64_t s, int64_t t) {
    return model.SnapshotEquals(s, t);
  };

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
        // Hashes strictly below the earliest time the extension touched are
        // unchanged (a non-progressive extension can rewrite history: newly
        // admitted facts feed backward rules).
        changed_from = std::min(prev_m + 1, round_stats.min_new_time);
      }
    }
    {
      // Hash the states of the changed suffix only; earlier hashes are
      // unchanged.
      TraceSpan update_span(options.trace, "period.update");
      PhaseTimer update_timer(metrics != nullptr, /*field=*/nullptr,
                              update_hist);
      hashes.resize(static_cast<std::size_t>(m) + 1);
      for (int64_t t = changed_from; t <= m; ++t) {
        hashes[static_cast<std::size_t>(t)] = model.SnapshotHash(t);
      }
    }
    result.stats.Add(round_stats);

    bool stable;
    {
      TraceSpan find_span(options.trace, "period.find");
      PhaseTimer find_timer(metrics != nullptr, /*field=*/nullptr, find_hist);
      stable = ScanForStableCandidate(hashes, snapshots_equal, &scan);
    }
    if (stable) {
      TraceSpan verify_span(options.trace, "period.verify");
      PhaseTimer verify_timer(metrics != nullptr, /*field=*/nullptr,
                              verify_hist);
      if (VerifyStableCandidate(hashes, snapshots_equal, &scan)) {
        verify_timer.Stop();
        result.period.b = std::max<int64_t>(0, scan.k - c);
        result.period.p = scan.p;
        result.horizon = m;
        result.model = std::move(model);
        return result;
      }
    }
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
  if (CheckProgressive(program).progressive) {
    return ForwardSimulate(program, db, options);
  }
  return DetectByDoubling(program, db, options, db.MaxTemporalDepth());
}

}  // namespace chronolog
