#include "spec/period.h"

#include <algorithm>
#include <limits>

#include "eval/fixpoint.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace chronolog {

void PeriodCandidateTracker::Update(const Interpretation& model,
                                    int64_t horizon, int64_t changed_from) {
  const int64_t n_old = static_cast<int64_t>(hashes_.size());
  const int64_t from = std::max<int64_t>(0, std::min(changed_from, n_old));
  hashes_.resize(static_cast<std::size_t>(horizon) + 1);
  for (int64_t t = from; t <= horizon; ++t) {
    hashes_[static_cast<std::size_t>(t)] = model.SnapshotHash(t);
  }
  if (from < n_old) {
    // History rewritten below the previously covered horizon: every cached
    // frontier may rest on stale comparisons. Drop them all; the next Find
    // re-scans lazily, exactly like a from-scratch probe.
    candidates_.clear();
  }
}

bool PeriodCandidateTracker::Find(int64_t min_cycles, int64_t* k_out,
                                  int64_t* p_out) {
  const int64_t n = static_cast<int64_t>(hashes_.size());
  const int64_t p_max = n / (min_cycles + 1);
  if (static_cast<int64_t>(candidates_.size()) < p_max) {
    candidates_.resize(static_cast<std::size_t>(p_max));
  }
  for (int64_t p = 1; p <= p_max; ++p) {
    Candidate& cand = candidates_[static_cast<std::size_t>(p - 1)];
    int64_t k;
    if (cand.scanned_n < p + 1) {
      // First scan for this period: walk down from the end until the first
      // mismatch, as the reference scan does.
      k = n - p;
      while (k > 0 && hashes_[static_cast<std::size_t>(k - 1)] ==
                          hashes_[static_cast<std::size_t>(k - 1 + p)]) {
        --k;
      }
    } else {
      // Resume: only positions t >= scanned_n - p compare against hashes the
      // previous scan had not seen. A mismatch among them caps the suffix;
      // otherwise the old frontier stands (the comparison at cand.k - 1, if
      // any, involved only unchanged hashes and still mismatches).
      const int64_t floor_t = cand.scanned_n - p;
      int64_t t = n - 1 - p;
      while (t >= floor_t && hashes_[static_cast<std::size_t>(t)] ==
                                 hashes_[static_cast<std::size_t>(t + p)]) {
        --t;
      }
      k = t >= floor_t ? t + 1 : cand.k;
    }
    cand.k = k;
    cand.scanned_n = n;
    if (k == n - p) continue;  // no trailing agreement at all
    if (n - k >= (min_cycles + 1) * p) {
      *k_out = k;
      *p_out = p;
      return true;
    }
  }
  return false;
}

bool PeriodCandidateTracker::VerifyCandidate(const Interpretation& model,
                                             int64_t k, int64_t p) {
  const int64_t n = static_cast<int64_t>(hashes_.size());
  for (int64_t t = n - 1 - p; t >= k; --t) {
    if (!model.SnapshotEquals(t, t + p)) {
      // Genuine hash collision: the states differ although their hashes
      // agree. Record the refuted position as this period's frontier so the
      // scan never re-proposes it.
      candidates_[static_cast<std::size_t>(p - 1)].k =
          std::max(candidates_[static_cast<std::size_t>(p - 1)].k, t + 1);
      return false;
    }
  }
  return true;
}

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
  bool have_candidate = false;
  int64_t prev_k = -1;
  int64_t prev_p = -1;

  // The model and the candidate tracker persist across doublings: probing
  // horizon 2m extends the closed horizon-m model instead of recomputing it
  // (ExtendFixpoint), and the per-period mismatch frontiers resume over the
  // model's snapshot hashes instead of re-extracting and re-scanning states.
  Interpretation model(program.vocab_ptr());
  PeriodCandidateTracker tracker;
  int64_t prev_m = -1;

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
      // cached in the tracker.
      TraceSpan update_span(options.trace, "period.update");
      PhaseTimer update_timer(metrics != nullptr, /*field=*/nullptr,
                              update_hist);
      tracker.Update(model, m, changed_from);
    }
    result.stats.Add(round_stats);

    int64_t k = 0;
    int64_t p = 0;
    bool found;
    {
      TraceSpan find_span(options.trace, "period.find");
      PhaseTimer find_timer(metrics != nullptr, /*field=*/nullptr, find_hist);
      found = tracker.Find(/*min_cycles=*/3, &k, &p);
    }
    if (found) {
      if (have_candidate && k == prev_k && p == prev_p) {
        TraceSpan verify_span(options.trace, "period.verify");
        PhaseTimer verify_timer(metrics != nullptr, /*field=*/nullptr,
                                verify_hist);
        const bool verified = tracker.VerifyCandidate(model, k, p);
        verify_timer.Stop();
        if (verified) {
          // Stable across a doubling and collision-checked: accept.
          result.period.b = std::max<int64_t>(0, k - c);
          result.period.p = p;
          result.horizon = m;
          result.model = std::move(model);
          return result;
        }
        // Collision refuted the candidate; its frontier moved, restart the
        // stability count.
        have_candidate = false;
      } else {
        have_candidate = true;
        prev_k = k;
        prev_p = p;
      }
    } else {
      have_candidate = false;
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
  const int64_t c = db.MaxTemporalDepth();
  ProgressivityReport progressive = CheckProgressive(program);
  if (progressive.progressive) {
    ForwardOptions fwd;
    static_cast<EvalContext&>(fwd) = options;
    fwd.max_steps = options.max_horizon;
    CHRONOLOG_ASSIGN_OR_RETURN(ForwardResult forward,
                               ForwardSimulate(program, db, fwd));
    PeriodDetection result{forward.period,
                           c,
                           forward.horizon,
                           std::move(forward.model),
                           /*exact=*/true,
                           forward.stats};
    return result;
  }
  return DetectByDoubling(program, db, options, c);
}

}  // namespace chronolog
