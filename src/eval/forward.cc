#include "eval/forward.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "ast/printer.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace chronolog {

ProgressivityReport CheckProgressive(const Program& program) {
  ProgressivityReport report;
  // Every rule is checked, so `reads_future` sees them all; the first
  // violated condition is the reason.
  auto violated = [&](const Rule& rule, const char* what) {
    if (!report.progressive) return;
    report.progressive = false;
    report.reason = "rule '" + RuleToString(rule, program.vocab()) + "' ";
    report.reason += what;
  };
  auto has_ground_time = [](const Atom& a) {
    return a.temporal() && a.time->ground();
  };
  for (const Rule& rule : program.rules()) {
    const bool semi_normal = rule.IsSemiNormal();
    const bool ground_head = has_ground_time(rule.head);
    const bool var_head = rule.head.temporal() && !ground_head;
    bool reads_later = false;
    bool reads_temporal = false;
    for (const Atom& atom : rule.body) {
      reads_temporal |= atom.temporal();
      reads_later |= var_head && atom.temporal() && !atom.time->ground() &&
                     atom.time->offset > rule.head.time->offset;
    }
    report.reads_future |= !semi_normal || ground_head || reads_later;
    if (!semi_normal) violated(rule, "has more than one temporal variable");
    if (ground_head) violated(rule, "has a ground temporal term in the head");
    if (std::any_of(rule.body.begin(), rule.body.end(), has_ground_time)) {
      violated(rule, "has a ground temporal term in the body");
    }
    if (reads_later) {
      violated(rule, "consumes facts from the future of its head");
    }
    if (!rule.head.temporal() && reads_temporal) {
      violated(rule, "derives a non-temporal fact from temporal ones");
    }
  }
  return report;
}

Result<PeriodDetection> ForwardSimulate(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options) {
  ProgressivityReport report = CheckProgressive(program);
  if (!report.progressive) {
    return FailedPreconditionError("ForwardSimulate: " + report.reason);
  }
  TraceSpan span(options.trace, "forward.simulate");

  // chronolog_obs instruments, fetched up front (see RunSemiNaiveRounds);
  // null when no registry is attached.
  MetricsRegistry* const metrics = options.metrics;
  Counter* steps_counter = nullptr;
  Histogram* step_hist = nullptr;
  Histogram* detect_hist = nullptr;
  if (metrics != nullptr) {
    steps_counter = metrics->counter("forward.timesteps");
    step_hist = metrics->histogram("forward.timestep_ns");
    detect_hist = metrics->histogram("forward.detect_ns");
  }

  const int64_t c = db.MaxTemporalDepth();
  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());

  PeriodDetection result{Period{}, c, 0, Interpretation(program.vocab_ptr()),
                         /*exact=*/true, {}};
  Interpretation& model = result.model;
  model.InsertDatabase(db);

  // One evaluator per rule, built ahead of every pass so join plans
  // survive across passes and timesteps (and reach plan_report at the end).
  std::vector<RuleEvaluator> evaluators;
  evaluators.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    evaluators.emplace_back(rule, program.vocab(), /*use_index=*/true,
                            metrics);
  }

  // A rule can consume a fact derived at its own timestep only through a
  // body atom whose offset equals the head offset (progressivity excludes
  // larger body offsets, and every fact derived while simulating timestep
  // `t` lands exactly on `t`). Without such an atom each timestep closes in
  // a single evaluation pass — the re-verification round, which re-derives
  // every fact at `t` just to observe no change, is pure overhead.
  bool same_time_feedback = false;
  for (const Rule& rule : program.rules()) {
    if (!rule.head.temporal()) continue;
    for (const Atom& atom : rule.body) {
      if (atom.temporal() && atom.time->offset == rule.head.time->offset) {
        same_time_feedback = true;
      }
    }
  }

  // The closure at one timestep `t` (the temporal-head rules, head variable
  // bound so the head lands on `t`) or, with no `t`, of the non-temporal
  // part (the non-temporal-head rules, whose bodies are non-temporal by
  // progressivity). Derived facts go straight into the model: relations
  // are append-only with positional row ids, so the evaluator's scan
  // cursors and probe buckets stay valid while a cell grows, and a scan
  // simply also visits the rows added behind it. Passes repeat while one
  // inserts something and `repeat` holds.
  const std::function<void(GroundAtom&&)> insert = [&](GroundAtom&& fact) {
    if (model.Insert(fact)) ++result.stats.inserted;
  };
  auto close = [&](std::optional<int64_t> t, bool repeat) -> Status {
    uint64_t inserted_before;
    do {
      inserted_before = result.stats.inserted;
      for (std::size_t i = 0; i < evaluators.size(); ++i) {
        const Atom& head = program.rules()[i].head;
        if (head.temporal() != t.has_value()) continue;
        std::optional<std::pair<VarId, int64_t>> binding;
        if (t.has_value()) {
          const int64_t v = *t - head.time->offset;
          if (v < 0) continue;
          binding.emplace(head.time->var, v);
        }
        evaluators[i].Evaluate(model, nullptr, -1, binding, &result.stats,
                               insert);
      }
      if (model.size() > options.max_facts) {
        return ResourceExhaustedError("ForwardSimulate exceeded max_facts = " +
                                      std::to_string(options.max_facts));
      }
    } while (repeat && result.stats.inserted != inserted_before);
    return Status();
  };

  // Phase 0: the non-temporal part, a plain Datalog fixpoint.
  CHRONOLOG_RETURN_IF_ERROR(close(std::nullopt, /*repeat=*/true));

  // Window detection: each state gets an exact id (DenseIds) when its
  // timestep closes — SnapshotHash, a hit confirmed by SnapshotEquals, no
  // State ever extracted — and each window of g consecutive state ids gets
  // an id of its own.
  std::vector<int64_t> ids;
  DenseIds state_ids;
  DenseIds window_ids;
  auto states_equal = [&model](int64_t s, int64_t t) {
    return model.SnapshotEquals(s, t);
  };
  auto windows_equal = [&ids, g](int64_t s, int64_t t) {
    return std::equal(ids.begin() + s, ids.begin() + s + g, ids.begin() + t);
  };

  for (int64_t t = 0;; ++t) {
    if (t > options.max_horizon) {
      return ResourceExhaustedError(
          "ForwardSimulate exceeded its budget (max_horizon = " +
          std::to_string(options.max_horizon) +
          "); the period of this TDD may be exponentially large "
          "(Theorem 3.1)");
    }
    if (steps_counter != nullptr) steps_counter->Add();
    // No span per timestep: rings/6 alone simulates 30030 of them, which
    // would fill the trace buffer. The histograms carry the per-step times.
    PhaseTimer step_timer(metrics != nullptr, /*field=*/nullptr, step_hist);
    // Within-timestep fixpoint: all rules whose head lands on `t`.
    CHRONOLOG_RETURN_IF_ERROR(close(t, same_time_feedback));

    step_timer.Stop();
    ids.push_back(state_ids.Intern(model.SnapshotHash(t), t, states_equal));
    result.horizon = t;

    PhaseTimer detect_timer(metrics != nullptr, /*field=*/nullptr,
                            detect_hist);
    // Period detection: windows of g consecutive states starting at
    // s >= c+1 evolve deterministically (no database injection past c).
    int64_t s = t - g + 1;  // start of the newest complete window
    if (s < c + 1) continue;
    const int64_t s1 = window_ids.First(window_ids.Intern(
        HashRange(ids.data() + s, static_cast<std::size_t>(g)), s,
        windows_equal));
    if (s1 == s) continue;  // a new window
    // The window at s repeats the one at s1, so the cycle has length
    // p = s - s1; states agree at distance p from the cycle entry k on.
    const int64_t p = s - s1;
    int64_t k = s1;
    while (k > 0 && ids[static_cast<std::size_t>(k - 1)] ==
                        ids[static_cast<std::size_t>(k - 1 + p)]) {
      --k;
    }
    result.period.b = std::max<int64_t>(0, k - c);
    result.period.p = p;
    ExportPlanReport(evaluators, options.plan_report);
    return result;
  }
}

}  // namespace chronolog
