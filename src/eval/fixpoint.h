#ifndef CHRONOLOG_EVAL_FIXPOINT_H_
#define CHRONOLOG_EVAL_FIXPOINT_H_

#include <cstdint>
#include <limits>

#include "ast/program.h"
#include "eval/rule_eval.h"
#include "storage/interpretation.h"
#include "util/result.h"

namespace chronolog {

/// Limits for bottom-up evaluation. `max_time` is the truncation bound `m` of
/// algorithm BT: derived temporal facts beyond it are discarded, which makes
/// every fixpoint below finite. The fact budget and the sinks come from the
/// EvalContext base.
struct FixpointOptions : EvalContext {
  int64_t max_time = 0;
  /// Hash-join via lazily built column indexes; disable for the
  /// nested-loop baseline (experiment E8 ablation).
  bool use_index = true;
};

/// One application of the immediate-consequence operator:
/// `T_{Z∧D}(I) = {head θ : rule ∈ Z, body θ ⊆ I} ∪ D`, truncated to
/// `[0...max_time]` plus the non-temporal part (Section 3.2).
///
/// `stats->inserted` / `stats->min_new_time` report only the facts the
/// application adds over `interp` (database facts included), so repeated
/// applications sum to the same totals the semi-naive evaluator reports.
Result<Interpretation> ApplyTp(const Program& program, const Database& db,
                               const Interpretation& interp,
                               const FixpointOptions& options,
                               EvalStats* stats = nullptr);

/// Naive bottom-up least fixpoint of the truncated operator: iterates
/// `L := T_{Z∧D}(L)(0...m) ∪ nt` from `D` until stable. This is precisely
/// the loop of algorithm BT (Figure 1) for a caller-supplied bound `m`; see
/// bt.h for the complete algorithm including the choice of `m`.
/// Reports the same `inserted`/`min_new_time` totals as SemiNaiveFixpoint
/// on the same program (each fact counted once, in its first pass).
///
/// Test-only reference oracle: nothing in production reaches this path. It
/// is kept because it is a direct transcription of Figure 1 — small
/// enough to audit by eye — and the equivalence suites compare the
/// semi-naive evaluator's models, stats, and snapshot hashes against it.
Result<Interpretation> NaiveFixpoint(const Program& program,
                                     const Database& db,
                                     const FixpointOptions& options,
                                     EvalStats* stats = nullptr);

/// Semi-naive variant: each round matches one body atom against the facts
/// newly derived in the previous round. Produces the same fixpoint as
/// NaiveFixpoint while avoiding re-derivation (benchmarked as experiment E8).
Result<Interpretation> SemiNaiveFixpoint(const Program& program,
                                         const Database& db,
                                         const FixpointOptions& options,
                                         EvalStats* stats = nullptr);

/// Resumable fixpoint: extends an already-closed truncated least model to a
/// wider truncation bound without recomputing it. `prior` must be the least
/// model of `Z ∧ D` truncated to `[0...prior_max_time]` (the result of
/// {Naive,SemiNaive,Extend}Fixpoint with `max_time = prior_max_time`);
/// returns the least model truncated to `[0...options.max_time]`, identical
/// to a from-scratch fixpoint at that bound.
///
/// The semi-naive delta is seeded with exactly the facts that can feed a
/// derivation absent from `prior`:
///  * database facts beyond `prior_max_time` that the old bound truncated;
///  * the frontier — facts at times `> prior_max_time - g`, where `g` is the
///    program's maximal temporal depth: a rule instantiation whose head
///    lands past the old bound binds its temporal variable to
///    `v > prior_max_time - g`, so every (non-ground) body atom it reads
///    sits at time `v + offset >= v > prior_max_time - g`;
///  * heads of rules with ground temporal terms, which derive at fixed
///    times anywhere in the new segment and are re-fired once explicitly.
/// Everything else derivable in the wider segment needs a fact from one of
/// these groups, so standard delta propagation completes the model.
///
/// `stats->min_new_time` reports the smallest time point that gained a
/// temporal fact during the extension (INT64_MAX when the old segment is
/// untouched) — callers reuse per-time artefacts (extracted states) below it.
Result<Interpretation> ExtendFixpoint(const Program& program,
                                      const Database& db,
                                      Interpretation&& prior,
                                      int64_t prior_max_time,
                                      const FixpointOptions& options,
                                      EvalStats* stats = nullptr);

}  // namespace chronolog

#endif  // CHRONOLOG_EVAL_FIXPOINT_H_
