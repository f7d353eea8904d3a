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

  const Vocabulary& vocab = program.vocab();
  const int64_t c = db.MaxTemporalDepth();
  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());

  ForwardResult result{Interpretation(program.vocab_ptr()), Period{}, c, 0,
                       {}};
  Interpretation& model = result.model;
  model.InsertDatabase(db);

  // Split rules: non-temporal heads close the non-temporal part once
  // (their bodies are non-temporal by progressivity); temporal-head rules
  // drive the per-timestep simulation.
  std::vector<const Rule*> nt_rules;
  std::vector<const Rule*> t_rules;
  for (const Rule& rule : program.rules()) {
    (rule.head.temporal() ? t_rules : nt_rules).push_back(&rule);
  }

  // Phase 0: non-temporal closure (plain Datalog fixpoint; buffered inserts
  // keep the evaluator's iterators valid). Evaluators are built once, ahead
  // of the loop, so their join plans survive across passes. Kept alive to
  // the end of the function so plan_report can snapshot them.
  std::vector<RuleEvaluator> nt_evaluators;
  nt_evaluators.reserve(nt_rules.size());
  for (const Rule* rule : nt_rules) {
    nt_evaluators.emplace_back(*rule, vocab, /*use_index=*/true, metrics);
  }
  {
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<GroundAtom> buffer;
      for (RuleEvaluator& evaluator : nt_evaluators) {
        evaluator.Evaluate(model, nullptr, -1, std::nullopt, &result.stats,
                           [&](GroundAtom&& fact) {
                             if (!model.Contains(fact)) {
                               buffer.push_back(std::move(fact));
                             }
                           });
      }
      for (GroundAtom& fact : buffer) {
        if (model.Insert(std::move(fact))) {
          ++result.stats.inserted;
          changed = true;
        }
      }
    }
  }

  // Temporal-head rule evaluators, with the head's temporal variable and
  // offset precomputed.
  struct TemporalRule {
    const Rule* rule;
    RuleEvaluator evaluator;
    VarId time_var;
    int64_t head_offset;
  };
  std::vector<TemporalRule> temporal_rules;
  temporal_rules.reserve(t_rules.size());
  for (const Rule* rule : t_rules) {
    temporal_rules.push_back(
        TemporalRule{rule, RuleEvaluator(*rule, vocab, true, metrics),
                     rule->head.time->var, rule->head.time->offset});
  }

  // A rule can consume a fact derived at its own timestep only through a
  // body atom whose offset equals the head offset (progressivity excludes
  // larger body offsets, and every fact derived while simulating timestep
  // `t` lands exactly on `t`). Without such an atom each timestep closes in
  // a single evaluation pass — the re-verification round, which re-derives
  // every fact at `t` just to observe no change, is pure overhead.
  bool same_time_feedback = false;
  for (const TemporalRule& tr : temporal_rules) {
    for (const Atom& atom : tr.rule->body) {
      if (atom.temporal() && atom.time->offset == tr.head_offset) {
        same_time_feedback = true;
      }
    }
  }

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

  auto too_large = [&]() {
    return ResourceExhaustedError(
        "ForwardSimulate exceeded its budget (max_steps = " +
        std::to_string(options.max_steps) +
        "); the period of this TDD may be exponentially large (Theorem 3.1)");
  };

  std::vector<GroundAtom> buffer;
  for (int64_t t = 0;; ++t) {
    if (t > options.max_steps) return too_large();
    if (steps_counter != nullptr) steps_counter->Add();
    TraceSpan step_span(options.trace, "forward.timestep");
    PhaseTimer step_timer(metrics != nullptr, /*field=*/nullptr, step_hist);
    // Within-timestep fixpoint: all rules whose head lands on `t`.
    if (!same_time_feedback) {
      // Every body atom reads a strictly earlier timestep, so inserting the
      // derived facts (which all land on `t`) cannot touch any container the
      // evaluator is iterating — insert directly, no buffering, one pass.
      for (TemporalRule& tr : temporal_rules) {
        int64_t v = t - tr.head_offset;
        if (v < 0) continue;
        tr.evaluator.Evaluate(model, nullptr, -1,
                              std::make_pair(tr.time_var, v), &result.stats,
                              [&](GroundAtom&& fact) {
                                // Contains-first keeps the evaluator's
                                // scratch tuple alive on the (dominant)
                                // duplicate path — no allocation per dup.
                                if (model.Contains(fact)) return;
                                model.Insert(fact.pred, fact.time,
                                             std::move(fact.args));
                                ++result.stats.inserted;
                              });
      }
      if (model.size() > options.max_facts) return too_large();
    } else {
      bool changed = true;
      while (changed) {
        changed = false;
        buffer.clear();
        for (TemporalRule& tr : temporal_rules) {
          int64_t v = t - tr.head_offset;
          if (v < 0) continue;
          tr.evaluator.Evaluate(model, nullptr, -1,
                                std::make_pair(tr.time_var, v), &result.stats,
                                [&](GroundAtom&& fact) {
                                  if (!model.Contains(fact)) {
                                    buffer.push_back(std::move(fact));
                                  }
                                });
        }
        for (GroundAtom& fact : buffer) {
          if (model.Insert(std::move(fact))) {
            ++result.stats.inserted;
            changed = true;
          }
        }
        if (model.size() > options.max_facts) return too_large();
      }
    }

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
    if (options.plan_report != nullptr) {
      // Snapshot executed join plans for EXPLAIN. Rule index = pointer
      // offset into program.rules(), which nt_rules/t_rules partitioned.
      options.plan_report->assign(program.rules().size(), {});
      const Rule* base = program.rules().data();
      for (std::size_t i = 0; i < nt_rules.size(); ++i) {
        nt_evaluators[i].ExportPlans(
            &(*options.plan_report)[static_cast<std::size_t>(nt_rules[i] -
                                                             base)]);
      }
      for (const TemporalRule& tr : temporal_rules) {
        tr.evaluator.ExportPlans(
            &(*options.plan_report)[static_cast<std::size_t>(tr.rule - base)]);
      }
    }
    return result;
  }
}

}  // namespace chronolog
