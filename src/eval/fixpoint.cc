#include "eval/fixpoint.h"

#include <algorithm>
#include <functional>
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

/// Counts a fact new to the model in the inserted/min_new_time stats.
void CountNew(const Vocabulary& vocab, PredicateId pred, int64_t time,
              EvalStats* stats) {
  ++stats->inserted;
  if (vocab.predicate(pred).is_temporal) {
    stats->min_new_time = std::min(stats->min_new_time, time);
  }
}

/// Folds the database facts within `[0...max_time]` into `full`, counting
/// the new ones.
void SeedDatabase(const Vocabulary& vocab, const Database& db,
                  int64_t max_time, Interpretation& full, EvalStats* stats) {
  for (const GroundAtom& f : db.facts()) {
    if (WithinBound(vocab, f, max_time) && full.Insert(f)) {
      CountNew(vocab, f.pred, f.time, stats);
    }
  }
}

/// A cell that gained rows in the running round, with its watermark set.
struct TouchedCell {
  PredicateId pred;
  int64_t time;
  Relation* cell;
};

/// The shared semi-naive round loop: iterates `full`/`delta` to the least
/// fixpoint of the truncated operator. `delta` holds row ranges of `full`
/// (the facts not yet consumed by any rule). The first round evaluates every
/// (rule, delta-position) pair — the initial delta may contain EDB facts —
/// while later rounds skip positions whose body atom has a predicate no rule
/// derives: after round one the delta only ever holds derived (IDB) facts.
/// `full` must have a slot for every predicate of the vocabulary before
/// `delta` is built (construction gives it one): the loop holds cell
/// pointers across inserts, which must not move a relation.
///
/// Round discipline: each new fact goes straight into `full`, with one
/// insert-or-find, but the first insert into a cell sets the cell's
/// watermark to its row count, which hides the round's own rows from every
/// (rule, position) pair of the round. The counters the benchmark gate pins
/// depend on this: letting a later pair see this round's facts would change
/// which instantiations each round enumerates. Publishing the round turns
/// the rows above each watermark into the next delta's ranges and clears
/// the watermarks.
Status RunSemiNaiveRounds(const Program& program,
                          const FixpointOptions& options, EvalStats* stats,
                          Interpretation& full, Delta& delta,
                          const DerivationHook& on_derive = nullptr) {
  const Vocabulary& vocab = program.vocab();

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

  // State of the running round, reused across rounds: the cells it
  // appended to, the task being evaluated, and the ground body atoms of
  // the current instantiation (filled only for a hook).
  std::vector<TouchedCell> touched;
  Delta next;
  const TaskPair* task = nullptr;
  std::vector<GroundAtom> premises;
  bool overflow = false;
  // Bound once per loop, so no evaluation re-wraps (or allocates) it.
  const std::function<void(GroundAtom&&)> insert = [&](GroundAtom&& fact) {
    if (!WithinBound(vocab, fact, options.max_time)) return;
    Relation* cell = full.InsertReturningCell(fact.pred, fact.time,
                                              fact.args.data(),
                                              fact.args.size());
    if (cell == nullptr) return;
    CountNew(vocab, fact.pred, fact.time, stats);
    if (!cell->has_watermark()) {
      cell->set_watermark(cell->size() - 1);
      touched.push_back({fact.pred, fact.time, cell});
    }
    if (on_derive) on_derive(task->rule, fact, premises);
    if (full.size() > options.max_facts) overflow = true;
  };
  // Turns the rows above each touched cell's watermark into `next` and
  // clears the watermarks.
  auto publish = [&]() {
    next.Clear();
    for (const TouchedCell& t : touched) {
      next.Add({t.pred, static_cast<uint32_t>(t.cell->visible_size()),
                static_cast<uint32_t>(t.cell->size()), t.time, t.cell});
      t.cell->clear_watermark();
    }
    touched.clear();
    next.Index(vocab.num_predicates());
  };

  bool first_round = true;
  while (!delta.empty()) {
    ++stats->iterations;
    if (rounds_counter != nullptr) rounds_counter->Add();
    if (delta_hist != nullptr) delta_hist->RecordValue(delta.size());
    // With a registry attached every round is timed — metered runs want the
    // small rounds in the histogram. Untimed rounds record no spans either:
    // 10^5 one-fact rounds would otherwise fill the trace buffer.
    const bool timed =
        metrics != nullptr || delta.size() >= kTimedDeltaThreshold;
    TraceBuffer* const trace = timed ? options.trace : nullptr;
    TraceSpan round_span(trace, "fixpoint.round");
    const std::vector<TaskPair>& pairs =
        first_round ? all_pairs : steady_pairs;
    first_round = false;

    {
      TraceSpan derive_span(trace, "fixpoint.derive");
      PhaseTimer derive_timer(timed, &stats->derive_ms, derive_hist);
      for (const TaskPair& t : pairs) {
        task = &t;
        evaluators[t.rule].Evaluate(full, &delta, t.pos,
                                    /*time_binding=*/std::nullopt, stats,
                                    insert, on_derive ? &premises : nullptr);
        if (overflow) {
          publish();
          return TooLarge(options.max_facts);
        }
      }
    }

    {
      TraceSpan merge_span(trace, "fixpoint.merge");
      PhaseTimer merge_timer(timed, &stats->merge_ms, merge_hist);
      publish();
    }
    std::swap(delta, next);
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
  SeedDatabase(program.vocab(), db, options.max_time, current, stats);
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
  SeedDatabase(program.vocab(), db, options.max_time, full, stats);
  Delta delta;
  delta.AddCells(full, /*from_time=*/0, /*non_temporal=*/true);
  delta.Index(program.vocab().num_predicates());
  Status status =
      RunSemiNaiveRounds(program, options, stats, full, delta, on_derive);
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
  // `prior` may predate predicates the vocabulary gained since.
  full.ReservePredicates();

  // (a) Database facts the old bound truncated away.
  SeedDatabase(vocab, db, options.max_time, full, stats);

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
  for (const GroundAtom& fact : ground_head_facts) {
    if (full.Insert(fact)) CountNew(vocab, fact.pred, fact.time, stats);
  }

  // (b) The frontier: every cell at time > prior_max_time - g, as a whole
  // (see the header for why this window suffices). It holds the facts (a)
  // and (c) added, all past prior_max_time, and re-lists the old facts the
  // new segment's rules can read.
  Delta delta;
  delta.AddCells(full, prior_max_time - g + 1, /*non_temporal=*/false);
  delta.Index(vocab.num_predicates());
  Status status = RunSemiNaiveRounds(program, options, stats, full, delta);
  if (!status.ok()) return status;
  return full;
}

}  // namespace chronolog
