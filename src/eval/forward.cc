#include "eval/forward.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "ast/printer.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace chronolog {

namespace {

/// Temporal offset of an atom's time term; requires a non-ground term.
int64_t VarOffset(const Atom& atom) { return atom.time->offset; }

}  // namespace

ProgressivityReport CheckProgressive(const Program& program) {
  const Vocabulary& vocab = program.vocab();
  for (const Rule& rule : program.rules()) {
    if (!rule.IsSemiNormal()) {
      return {false, "rule '" + RuleToString(rule, vocab) +
                         "' has more than one temporal variable"};
    }
    auto has_ground_time = [](const Atom& a) {
      return a.temporal() && a.time->ground();
    };
    if (has_ground_time(rule.head)) {
      return {false, "rule '" + RuleToString(rule, vocab) +
                         "' has a ground temporal term in the head"};
    }
    for (const Atom& a : rule.body) {
      if (has_ground_time(a)) {
        return {false, "rule '" + RuleToString(rule, vocab) +
                           "' has a ground temporal term in the body"};
      }
    }
    if (rule.head.temporal()) {
      int64_t a = VarOffset(rule.head);
      for (const Atom& atom : rule.body) {
        if (atom.temporal() && VarOffset(atom) > a) {
          return {false, "rule '" + RuleToString(rule, vocab) +
                             "' consumes facts from the future of its head"};
        }
      }
    } else {
      for (const Atom& atom : rule.body) {
        if (atom.temporal()) {
          return {false, "rule '" + RuleToString(rule, vocab) +
                             "' derives a non-temporal fact from temporal "
                             "ones"};
        }
      }
    }
  }
  return {true, ""};
}

Result<ForwardResult> ForwardSimulate(const Program& program,
                                      const Database& db,
                                      const ForwardOptions& options) {
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

  ForwardResult result{Interpretation(program.vocab_ptr()), Period{}, c, 0,
                       {}};
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
  auto close = [&](std::optional<int64_t> t, bool repeat) -> Status {
    bool changed;
    do {
      changed = false;
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
                               [&](GroundAtom&& fact) {
                                 // Contains-first: a duplicate insert could
                                 // still grow the dedup table.
                                 if (model.Contains(fact)) return;
                                 model.Insert(fact.pred, fact.time,
                                              fact.args);
                                 ++result.stats.inserted;
                                 changed = true;
                               });
      }
      if (model.size() > options.max_facts) {
        return ResourceExhaustedError("ForwardSimulate exceeded max_facts = " +
                                      std::to_string(options.max_facts));
      }
    } while (repeat && changed);
    return Status();
  };

  // Phase 0: the non-temporal part, a plain Datalog fixpoint.
  CHRONOLOG_RETURN_IF_ERROR(close(std::nullopt, /*repeat=*/true));

  // Window detection: start times of previously seen windows of g states,
  // bucketed by window hash. Each state is hashed once, when its timestep
  // closes (Interpretation::SnapshotHash), and cached here — no State is
  // ever extracted during simulation; candidates with equal window hashes
  // are verified against the live snapshots directly.
  std::vector<std::size_t> state_hashes;
  std::unordered_map<std::size_t, std::vector<int64_t>> seen_windows;
  auto window_hash = [&](int64_t s) {
    std::size_t seed = static_cast<std::size_t>(g);
    for (int64_t i = 0; i < g; ++i) {
      HashCombine(seed, state_hashes[static_cast<std::size_t>(s + i)]);
    }
    return seed;
  };
  auto windows_equal = [&](int64_t s1, int64_t s2) {
    for (int64_t i = 0; i < g; ++i) {
      // Per-state hash first (cheap refutation of window-hash collisions),
      // then the exact in-place snapshot comparison.
      if (state_hashes[static_cast<std::size_t>(s1 + i)] !=
          state_hashes[static_cast<std::size_t>(s2 + i)]) {
        return false;
      }
      if (!model.SnapshotEquals(s1 + i, s2 + i)) return false;
    }
    return true;
  };

  for (int64_t t = 0;; ++t) {
    if (t > options.max_steps) {
      return ResourceExhaustedError(
          "ForwardSimulate exceeded its budget (max_steps = " +
          std::to_string(options.max_steps) +
          "); the period of this TDD may be exponentially large "
          "(Theorem 3.1)");
    }
    if (steps_counter != nullptr) steps_counter->Add();
    TraceSpan step_span(options.trace, "forward.timestep");
    PhaseTimer step_timer(metrics != nullptr, /*field=*/nullptr, step_hist);
    // Within-timestep fixpoint: all rules whose head lands on `t`.
    CHRONOLOG_RETURN_IF_ERROR(close(t, same_time_feedback));

    step_timer.Stop();
    state_hashes.push_back(model.SnapshotHash(t));
    result.horizon = t;

    TraceSpan detect_span(options.trace, "forward.detection");
    PhaseTimer detect_timer(metrics != nullptr, /*field=*/nullptr,
                            detect_hist);
    // Period detection: windows of g consecutive states starting at
    // s >= c+1 evolve deterministically (no database injection past c).
    int64_t s = t - g + 1;  // start of the newest complete window
    if (s < c + 1) continue;
    std::vector<int64_t>& bucket = seen_windows[window_hash(s)];
    int64_t s1 = -1;
    for (int64_t candidate : bucket) {
      if (windows_equal(candidate, s)) {
        s1 = candidate;
        break;
      }
    }
    if (s1 < 0) {
      // Bound bucket growth. Distinct windows sharing one 64-bit window hash
      // are genuine collisions (equal windows end the loop), so a long
      // non-periodic prefix must not be allowed to grow one bucket into an
      // O(n) probe chain. Capping at a constant and evicting the oldest
      // start keeps probes O(1); if an evicted start ever was the true cycle
      // entry, the orbit is deterministic, so its successor windows (stored
      // in other buckets) still repeat and detection ends at most a few
      // steps later with the same exact cycle length p.
      constexpr std::size_t kMaxWindowBucket = 8;
      if (bucket.size() >= kMaxWindowBucket) bucket.erase(bucket.begin());
      bucket.push_back(s);
      continue;
    }

    // First repeat: cycle entry s1, exact cycle length p.
    int64_t p = s - s1;
    // The periodicity may extend below the detection threshold; walk k down
    // to the minimal start for which M[k] = M[k+p] still holds (hash
    // inequality refutes in O(1), hash equality is verified in place).
    int64_t k = s1;
    while (k > 0 && state_hashes[k - 1] == state_hashes[k - 1 + p] &&
           model.SnapshotEquals(k - 1, k - 1 + p)) {
      --k;
    }
    result.period.b = std::max<int64_t>(0, k - c);
    result.period.p = p;
    ExportPlanReport(evaluators, options.plan_report);
    return result;
  }
}

}  // namespace chronolog
