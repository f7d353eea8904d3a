#include "eval/fixpoint.h"

#include <algorithm>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace chronolog {

namespace {

Status TooLarge(uint64_t max_facts) {
  return ResourceExhaustedError(
      "fixpoint exceeded max_facts = " + std::to_string(max_facts) +
      "; raise FixpointOptions::max_facts if the workload is legitimate");
}

/// True when the fact survives truncation to `[0...max_time]`.
bool WithinBound(const Vocabulary& vocab, const GroundAtom& fact,
                 int64_t max_time) {
  return !vocab.predicate(fact.pred).is_temporal || fact.time <= max_time;
}

/// Rounds with a delta smaller than this skip the per-phase timers: clock
/// reads would otherwise dominate workloads with one-fact rounds (the
/// depth-scaling workload inserts one fact per round for 10^5 rounds).
constexpr std::size_t kTimedDeltaThreshold = 32;

/// One (rule, delta-position) unit of semi-naive work.
struct TaskPair {
  std::size_t rule;
  int pos;
};

/// Folds `fact` into `full`, maintaining inserted/min_new_time stats.
/// Returns whether the fact was new.
bool InsertIntoFull(const Vocabulary& vocab, Interpretation& full,
                    PredicateId pred, int64_t time, const Tuple& args,
                    EvalStats* stats) {
  if (!full.Insert(pred, time, args)) return false;
  ++stats->inserted;
  if (vocab.predicate(pred).is_temporal) {
    stats->min_new_time = std::min(stats->min_new_time, time);
  }
  return true;
}

/// Folds the database facts within `[0...max_time]` into `full`; the new
/// ones also go to `delta` when it is non-null.
void SeedDatabase(const Vocabulary& vocab, const Database& db,
                  int64_t max_time, Interpretation& full,
                  Interpretation* delta, EvalStats* stats) {
  for (const GroundAtom& f : db.facts()) {
    if (WithinBound(vocab, f, max_time) &&
        InsertIntoFull(vocab, full, f.pred, f.time, f.args, stats) &&
        delta != nullptr) {
      delta->Insert(f);
    }
  }
}

/// The shared semi-naive round loop: iterates `full`/`delta` to the least
/// fixpoint of the truncated operator. `delta` must be a subset of `full`
/// (the facts not yet consumed by any rule). The first round evaluates every
/// (rule, delta-position) pair — the initial delta may contain EDB facts —
/// while later rounds skip positions whose body atom has a predicate no rule
/// derives: after round one the delta only ever holds derived (IDB) facts.
Status RunSemiNaiveRounds(const Program& program,
                          const FixpointOptions& options, EvalStats* stats,
                          Interpretation& full, Interpretation&& delta_in,
                          const DerivationHook& on_derive = nullptr) {
  const Vocabulary& vocab = program.vocab();
  Interpretation delta = std::move(delta_in);

  // chronolog_obs instruments, fetched up front (before the first round) so
  // that an instrument still empty after a metered run flags dead
  // instrumentation (bench/ci.sh checks exactly this). All stay null when no
  // registry is attached.
  MetricsRegistry* const metrics = options.metrics;
  Counter* rounds_counter = nullptr;
  Histogram* delta_hist = nullptr;
  Histogram* derive_hist = nullptr;
  Histogram* merge_hist = nullptr;
  if (metrics != nullptr) {
    rounds_counter = metrics->counter("fixpoint.rounds");
    delta_hist = metrics->histogram("fixpoint.round.delta_facts");
    derive_hist = metrics->histogram("fixpoint.round.derive_ns");
    merge_hist = metrics->histogram("fixpoint.round.merge_ns");
  }

  std::vector<RuleEvaluator> evaluators;
  evaluators.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    evaluators.emplace_back(rule, vocab, options.use_index, options.metrics);
  }

  // Derivable (IDB) predicates: heads of some rule.
  std::vector<bool> derivable(vocab.num_predicates(), false);
  for (const Rule& rule : program.rules()) {
    if (rule.head.pred < derivable.size()) derivable[rule.head.pred] = true;
  }
  std::vector<TaskPair> all_pairs;
  std::vector<TaskPair> steady_pairs;
  for (std::size_t ri = 0; ri < program.rules().size(); ++ri) {
    const Rule& rule = program.rules()[ri];
    for (int pos = 0; pos < static_cast<int>(rule.body.size()); ++pos) {
      all_pairs.push_back({ri, pos});
      PredicateId pred = rule.body[static_cast<std::size_t>(pos)].pred;
      if (pred < derivable.size() && derivable[pred]) {
        steady_pairs.push_back({ri, pos});
      }
    }
  }

  // Ground body atoms of the current instantiation, filled only for a hook.
  std::vector<GroundAtom> premises;
  bool first_round = true;
  while (!delta.empty()) {
    ++stats->iterations;
    if (rounds_counter != nullptr) rounds_counter->Add();
    if (delta_hist != nullptr) delta_hist->RecordValue(delta.size());
    TraceSpan round_span(options.trace, "fixpoint.round");
    const std::vector<TaskPair>& pairs =
        first_round ? all_pairs : steady_pairs;
    first_round = false;

    // Derivations are buffered into `next_delta` and merged into `full`
    // after the round — round discipline, not iterator safety (relations are
    // append-only, so cursors survive inserts): `delta` must hold exactly
    // the previous round's new facts. Inserting into `full` mid-round would
    // let later (rule, position) pairs of the same round see this round's
    // facts, changing which instantiations each round enumerates and with
    // it the derived/match_steps counters the benchmark gate pins.
    Interpretation next_delta(program.vocab_ptr());
    bool overflow = false;
    // With a registry attached every round is timed — metered runs want the
    // small rounds in the histogram.
    const bool timed =
        metrics != nullptr || delta.size() >= kTimedDeltaThreshold;

    {
      TraceSpan derive_span(options.trace, "fixpoint.derive");
      PhaseTimer derive_timer(timed, &stats->derive_ms, derive_hist);
      for (const TaskPair& task : pairs) {
        evaluators[task.rule].Evaluate(
            full, &delta, task.pos, /*time_binding=*/std::nullopt, stats,
            [&](GroundAtom&& fact) {
              if (!WithinBound(vocab, fact, options.max_time)) return;
              if (full.Contains(fact)) return;
              if (!next_delta.Insert(fact.pred, fact.time, fact.args)) return;
              if (on_derive) on_derive(task.rule, fact, premises);
              if (full.size() + next_delta.size() > options.max_facts) {
                overflow = true;
              }
            },
            on_derive ? &premises : nullptr);
        if (overflow) return TooLarge(options.max_facts);
      }
    }

    {
      TraceSpan merge_span(options.trace, "fixpoint.merge");
      PhaseTimer merge_timer(timed, &stats->merge_ms, merge_hist);
      next_delta.ForEach(
          [&](PredicateId pred, int64_t time, const Tuple& args) {
            InsertIntoFull(vocab, full, pred, time, args, stats);
          });
    }
    delta = std::move(next_delta);
  }
  // Overwrites wholesale: when the doubling detector runs several
  // fixpoints, the last (widest-horizon) one's plans are the ones EXPLAIN
  // should show.
  ExportPlanReport(evaluators, options.plan_report);
  return Status();
}

}  // namespace

Result<Interpretation> ApplyTp(const Program& program, const Database& db,
                               const Interpretation& interp,
                               const FixpointOptions& options,
                               EvalStats* stats) {
  // chronolog_obs: the naive path shares the phase-span / insert-counter
  // sites of the semi-naive evaluator — one span per Tp application, one
  // histogram sample for its wall time, and a counter of the facts each
  // application adds over its input.
  Counter* applications = nullptr;
  Histogram* apply_hist = nullptr;
  Counter* inserted_counter = nullptr;
  if (options.metrics != nullptr) {
    applications = options.metrics->counter("fixpoint.naive.applications");
    apply_hist = options.metrics->histogram("fixpoint.naive.apply_ns");
    inserted_counter = options.metrics->counter("fixpoint.naive.inserted");
  }
  if (applications != nullptr) applications->Add();
  TraceSpan span(options.trace, "fixpoint.apply_tp");
  PhaseTimer apply_timer(apply_hist != nullptr, nullptr, apply_hist);
  uint64_t new_facts = 0;

  Interpretation out(program.vocab_ptr());
  const Vocabulary& vocab = program.vocab();
  bool overflow = false;
  // Only facts absent from the *input* count toward inserted/min_new_time:
  // one Tp application reports exactly what it adds over `interp`, so
  // NaiveFixpoint's per-pass contributions sum to the semi-naive totals
  // (the contract the incremental period tracker depends on).
  auto count_if_new = [&](PredicateId pred, int64_t time) {
    ++new_facts;
    if (stats == nullptr) return;
    ++stats->inserted;
    if (vocab.predicate(pred).is_temporal) {
      stats->min_new_time = std::min(stats->min_new_time, time);
    }
  };
  for (const GroundAtom& f : db.facts()) {
    if (!WithinBound(vocab, f, options.max_time)) continue;
    const bool is_new = !interp.Contains(f);
    if (out.Insert(f) && is_new) count_if_new(f.pred, f.time);
  }
  for (const Rule& rule : program.rules()) {
    RuleEvaluator evaluator(rule, vocab, options.use_index, options.metrics);
    evaluator.Evaluate(interp, /*delta=*/nullptr, /*delta_pos=*/-1,
                       /*time_binding=*/std::nullopt, stats,
                       [&](GroundAtom&& fact) {
                         if (!WithinBound(vocab, fact, options.max_time)) {
                           return;
                         }
                         if (out.Contains(fact)) return;
                         const bool is_new = !interp.Contains(fact);
                         const PredicateId pred = fact.pred;
                         const int64_t time = fact.time;
                         out.Insert(pred, time, std::move(fact.args));
                         if (is_new) count_if_new(pred, time);
                         if (out.size() > options.max_facts) overflow = true;
                       });
    if (overflow) return TooLarge(options.max_facts);
  }
  if (inserted_counter != nullptr) inserted_counter->Add(new_facts);
  return out;
}

Result<Interpretation> NaiveFixpoint(const Program& program,
                                     const Database& db,
                                     const FixpointOptions& options,
                                     EvalStats* stats) {
  TraceSpan span(options.trace, "fixpoint.naive");
  // Pass counter of the naive loop — the analogue of `fixpoint.rounds` on
  // the semi-naive path (kept as a separate name so the two evaluators
  // stay distinguishable in one registry).
  Counter* passes = options.metrics != nullptr
                        ? options.metrics->counter("fixpoint.naive.passes")
                        : nullptr;
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Interpretation current(program.vocab_ptr());
  // Database seeds are counted here: from the first pass on, ApplyTp sees
  // them as already present in its input and reports only derived news.
  SeedDatabase(program.vocab(), db, options.max_time, current,
               /*delta=*/nullptr, stats);
  while (true) {
    ++stats->iterations;
    if (passes != nullptr) passes->Add();
    CHRONOLOG_ASSIGN_OR_RETURN(Interpretation next,
                               ApplyTp(program, db, current, options, stats));
    if (next.SegmentEquals(current, options.max_time,
                           /*and_non_temporal=*/true)) {
      return next;
    }
    current = std::move(next);
  }
}

Result<Interpretation> SemiNaiveFixpoint(const Program& program,
                                         const Database& db,
                                         const FixpointOptions& options,
                                         EvalStats* stats,
                                         const DerivationHook& on_derive) {
  TraceSpan span(options.trace, "fixpoint.semi_naive");
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Interpretation full(program.vocab_ptr());
  Interpretation delta(program.vocab_ptr());
  SeedDatabase(program.vocab(), db, options.max_time, full, &delta, stats);
  Status status = RunSemiNaiveRounds(program, options, stats, full,
                                     std::move(delta), on_derive);
  if (!status.ok()) return status;
  return full;
}

Result<Interpretation> ExtendFixpoint(const Program& program,
                                      const Database& db,
                                      Interpretation&& prior,
                                      int64_t prior_max_time,
                                      const FixpointOptions& options,
                                      EvalStats* stats) {
  TraceSpan span(options.trace, "fixpoint.extend");
  if (options.max_time < prior_max_time) {
    return InvalidArgumentError(
        "ExtendFixpoint: max_time (" + std::to_string(options.max_time) +
        ") must not be below prior_max_time (" +
        std::to_string(prior_max_time) + ")");
  }
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const Vocabulary& vocab = program.vocab();
  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());

  Interpretation full = std::move(prior);
  Interpretation delta(program.vocab_ptr());

  // (a) Database facts the old bound truncated away.
  SeedDatabase(vocab, db, options.max_time, full, &delta, stats);

  // (b) The frontier: every fact at time > prior_max_time - g (see the
  // header for why this window suffices). These facts are already in `full`;
  // re-listing them in the delta re-fires the rules they can feed.
  for (PredicateId pred : vocab.AllPredicates()) {
    if (!vocab.predicate(pred).is_temporal) continue;
    const auto& timeline = full.Timeline(pred);
    for (auto it = timeline.lower_bound(prior_max_time - g + 1);
         it != timeline.end(); ++it) {
      const Relation& cell = it->second;
      Tuple scratch;
      for (uint32_t row = 0; row < cell.size(); ++row) {
        cell.CopyRow(row, &scratch);
        delta.Insert(pred, it->first, scratch);
      }
    }
  }

  // (c) Rules with a ground temporal head derive at a fixed time that may
  // lie anywhere in the new segment; one explicit evaluation pass catches
  // instantiations whose body is entirely old. (Heads at or below the old
  // bound are already closed in `prior`.)
  std::vector<GroundAtom> ground_head_facts;
  for (const Rule& rule : program.rules()) {
    if (!rule.head.temporal() || !rule.head.time->ground()) continue;
    if (rule.head.time->offset <= prior_max_time) continue;
    RuleEvaluator evaluator(rule, vocab, options.use_index, options.metrics);
    evaluator.Evaluate(full, /*delta=*/nullptr, /*delta_pos=*/-1,
                       /*time_binding=*/std::nullopt, stats,
                       [&](GroundAtom&& fact) {
                         if (!WithinBound(vocab, fact, options.max_time)) {
                           return;
                         }
                         if (full.Contains(fact)) return;
                         ground_head_facts.push_back(std::move(fact));
                       });
  }
  for (GroundAtom& fact : ground_head_facts) {
    if (InsertIntoFull(vocab, full, fact.pred, fact.time, fact.args, stats)) {
      delta.Insert(std::move(fact));
    }
  }

  Status status =
      RunSemiNaiveRounds(program, options, stats, full, std::move(delta));
  if (!status.ok()) return status;
  return full;
}

}  // namespace chronolog
