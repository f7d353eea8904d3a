#ifndef CHRONOLOG_EVAL_RULE_EVAL_H_
#define CHRONOLOG_EVAL_RULE_EVAL_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "storage/interpretation.h"

namespace chronolog {

class MetricsRegistry;
class TraceBuffer;

/// Snapshot of one cached join plan, exported for EXPLAIN (serve's
/// `POST /explain`, tddsh `.explain ?-`). One report per built
/// (delta position, time-bound) slot: the executed atom order, the planned
/// probe columns (-1 = scan), and the estimated vs observed
/// steps-per-emission.
struct PlanSlotReport {
  int delta_pos = -1;    // -1 = no delta restriction (naive / first round)
  bool time_bound = false;
  std::vector<uint32_t> order;      // body-atom indexes in execution order
  std::vector<int32_t> probe_cols;  // parallel to `order`
  double est_steps_per_emit = 0;
  uint64_t observed_steps = 0;
  uint64_t observed_emits = 0;
};

/// Plan reports for a whole program, indexed like Program::rules(): entry i
/// lists the built plan slots of rule i's evaluator (empty when the rule was
/// never planned — e.g. its predicate never gained facts).
using RulePlanReport = std::vector<std::vector<PlanSlotReport>>;

/// What every bottom-up evaluator shares: the fact budget and the sinks.
/// Base of FixpointOptions, PeriodDetectionOptions and BtOptions, so a layer
/// hands it down with one slice copy.
struct EvalContext {
  /// Exceeding it fails with kResourceExhausted: guards against workloads
  /// that are legitimately too large.
  uint64_t max_facts = 50'000'000;
  /// Observability sinks (chronolog_obs, util/metrics.h + util/trace.h).
  /// Null disables collection at the cost of one branch per site; the
  /// engine wires these up when `EngineOptions::collect_metrics` is set.
  MetricsRegistry* metrics = nullptr;
  TraceBuffer* trace = nullptr;
  /// When non-null, the evaluation snapshots its cached join plans into
  /// `*plan_report` (overwritten wholesale, indexed like Program::rules())
  /// before its evaluators are destroyed — the raw material of EXPLAIN.
  /// When several fixpoints run (verified doubling), the last one wins. The
  /// naive reference fixpoint ignores it; provenance clears it, so an
  /// engine `Explain` never replaces the spec build's plans.
  RulePlanReport* plan_report = nullptr;
};

/// Counters accumulated by the evaluators. `derived` counts every emitted
/// head instantiation (before deduplication); `inserted` counts facts that
/// were new; `match_steps` counts tuple-match attempts (a machine-independent
/// work measure used by the benchmark harness).
///
/// The `*_ms` fields are per-phase wall-clock timers maintained by the
/// fixpoint drivers: `derive_ms` covers rule evaluation, including each new
/// fact's insert into the model; `merge_ms` covers publishing the round
/// (collecting the next delta's ranges and clearing the cells' watermarks).
/// `min_new_time` is the
/// smallest time point that gained a temporal fact (INT64_MAX when none
/// did) — the staleness bound consumed by the incremental horizon-extension
/// loop.
struct EvalStats {
  uint64_t derived = 0;
  uint64_t inserted = 0;
  uint64_t match_steps = 0;
  uint64_t iterations = 0;
  double derive_ms = 0;
  double merge_ms = 0;
  int64_t min_new_time = std::numeric_limits<int64_t>::max();

  void Add(const EvalStats& other) {
    derived += other.derived;
    inserted += other.inserted;
    match_steps += other.match_steps;
    iterations += other.iterations;
    derive_ms += other.derive_ms;
    merge_ms += other.merge_ms;
    min_new_time = std::min(min_new_time, other.min_new_time);
  }
};

/// The facts one semi-naive round consumes, as row ranges of the model: for
/// each predicate, the cells that gained rows in the previous round and the
/// rows `[begin, end)` each gained (whole cells for a fixpoint's first
/// round). The ranges point into the model's cells, so a delta copies no
/// fact, and it must not outlive them. Rebuilding keeps the buffers'
/// capacity, so a steady round loop allocates nothing for its deltas.
class Delta {
 public:
  struct Range {
    PredicateId pred;
    uint32_t begin;
    uint32_t end;
    int64_t time;  // 0 for a non-temporal predicate
    const Relation* cell;
  };

  /// Ranges of `pred`, ascending by time.
  std::span<const Range> ranges(PredicateId pred) const;
  /// The range of `pred` at `time`; null when that cell gained nothing.
  const Range* Find(PredicateId pred, int64_t time) const;
  /// Rows over all ranges.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Rebuilding: Clear, Add at most one non-empty range per cell in any
  /// order, then Index.
  void Clear();
  void Add(const Range& range);
  /// Adds every non-empty cell of `model` as a whole-cell range: temporal
  /// cells at times `>= from_time`, plus the non-temporal relations when
  /// `non_temporal`.
  void AddCells(const Interpretation& model, int64_t from_time,
                bool non_temporal);
  void Index(std::size_t num_predicates);

 private:
  std::vector<Range> ranges_;  // by (pred, time) once indexed
  // Ranges of predicate p: [pred_begin_[p], pred_begin_[p + 1]).
  std::vector<uint32_t> pred_begin_;
  std::size_t size_ = 0;
};

/// Evaluates one temporal Horn rule against an interpretation: enumerates
/// every ground substitution `θ` with `body θ ⊆ I` and emits `head θ`
/// (the single-rule slice of the paper's `T_{Z∧D}` operator, Section 3.2).
///
/// Semi-naive evaluation restricts one body position to a delta; a
/// pre-bound temporal variable supports the per-timestep forward simulator.
/// Every position reads only the visible rows of the model's cells
/// (`Relation::visible_size`), so the round that is appending to a cell
/// does not see its own rows.
///
/// Join planning: instead of matching body atoms in source order, the
/// evaluator orders them by estimated selectivity (relation cardinalities
/// plus sampled bound-column fan-outs) the first time a (delta position,
/// time-bound) configuration is evaluated, and caches the resulting plan
/// for the evaluator's lifetime. Plans only fix the atom order and a
/// suggested probe column; correctness never depends on the estimates.
class RuleEvaluator {
 public:
  /// `rule` and `vocab` must outlive the evaluator. With `use_index` the
  /// evaluator probes the relations' lazily built column indexes
  /// (`Relation::Probe`) when a body atom has a bound argument (hash join);
  /// without it every match scans the relation (the nested-loop baseline of
  /// experiment E8). `metrics` (nullable) receives the `join.*` instrument
  /// family: plan builds, cache hits, and the estimated vs actual
  /// steps-per-emission histograms.
  RuleEvaluator(const Rule& rule, const Vocabulary& vocab,
                bool use_index = true, MetricsRegistry* metrics = nullptr);
  ~RuleEvaluator();
  RuleEvaluator(RuleEvaluator&&) noexcept;
  RuleEvaluator& operator=(RuleEvaluator&&) = delete;

  /// Enumerates instantiations. When `delta` is non-null, the body atom at
  /// `delta_pos` is matched against the delta's row ranges instead of all
  /// of `full` (all other atoms against `full`). When `time_binding` is
  /// set, the temporal variable `time_binding->first` is pre-bound to
  /// `time_binding->second`. Emitted ground atoms may repeat; the caller
  /// deduplicates on insert. The sink may insert into `full`: rows appended
  /// behind a cursor are visited unless a watermark hides them. The emitted
  /// atom is a reused scratch: sinks may move from it but must not keep a
  /// reference past the call. An evaluator runs one Evaluate at a time; it
  /// reuses its buffers across calls.
  ///
  /// When `premises` is non-null, it holds the instantiated ground body
  /// atoms (in source order) of the current instantiation during each
  /// `emit` call — the premises of the hyperresolution step, used by the
  /// provenance evaluator.
  void Evaluate(const Interpretation& full, const Delta* delta,
                int delta_pos,
                std::optional<std::pair<VarId, int64_t>> time_binding,
                EvalStats* stats,
                const std::function<void(GroundAtom&&)>& emit,
                std::vector<GroundAtom>* premises = nullptr) const;

  /// Body-atom order (source positions) of the cached plan for the given
  /// configuration; empty when no plan has been built yet. Test-only
  /// introspection for determinism and planner-behaviour checks.
  std::vector<uint32_t> PlanOrderForTest(int delta_pos,
                                         bool time_bound) const;

  /// Appends one PlanSlotReport per built plan slot to `out` (built slots
  /// only; an evaluator that never ran appends nothing), each with its
  /// cumulative observation counters.
  void ExportPlans(std::vector<PlanSlotReport>* out) const;

 private:
  struct JoinPlan;
  struct PlanCache;

  struct Scratch;

  std::unique_ptr<JoinPlan> BuildPlan(const Interpretation& full,
                                      const Delta* delta, int delta_pos,
                                      bool time_bound) const;
  JoinPlan* GetOrBuildPlan(const Interpretation& full, const Delta* delta,
                           int delta_pos, bool time_bound) const;
  std::size_t SlotKey(int delta_pos, bool time_bound) const;

  const Rule& rule_;
  const Vocabulary& vocab_;
  bool use_index_;
  // Cached join plans, one slot per (delta_pos, time_bound) configuration.
  // Mutable: planning is an internal optimisation of const evaluation.
  mutable std::unique_ptr<PlanCache> plans_;
  // Bindings, trail, join frames and head atom of Evaluate, kept across
  // calls for their capacity.
  mutable std::unique_ptr<Scratch> scratch_;
};

/// Snapshots the executed join plans of `evaluators` (indexed like
/// Program::rules()) into `*report`, overwriting it wholesale. No-op when
/// `report` is null.
void ExportPlanReport(const std::vector<RuleEvaluator>& evaluators,
                      RulePlanReport* report);

}  // namespace chronolog

#endif  // CHRONOLOG_EVAL_RULE_EVAL_H_
