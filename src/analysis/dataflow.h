#ifndef CHRONOLOG_ANALYSIS_DATAFLOW_H_
#define CHRONOLOG_ANALYSIS_DATAFLOW_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analysis/depgraph.h"
#include "analysis/diagnostics.h"
#include "analysis/lint.h"
#include "ast/program.h"

namespace chronolog {

// ---------------------------------------------------------------------------
// chronolog_flow: SCC-ordered lattice-fixpoint dataflow over the predicate
// dependency graph (the induction on level numbers behind Theorem 6.5, run
// as a static analysis). Two concrete analyses ride on one framework:
//
//   * temporal-offset analysis — per-rule head/body time deltas propagated
//     as difference constraints per SCC; yields a sound upper bound on the
//     stabilization horizon of bounded programs and a static divisor of the
//     model's minimal period (A001-A004);
//   * polynomial degree analysis — a worst-case exponent k per predicate
//     such that the per-timestep relation holds O(n^k) tuples in the
//     database size measure n (A005, A006).
//
// Every result is a diagnostic: evaluation never reads it. The results
// surface through `chronolog-lint --analyze`, `GET /analyze` and
// `POST /explain`; tests/flow_soundness_test.cc checks each claim against
// the model the engine builds.
// ---------------------------------------------------------------------------

/// Rules of a program grouped by the dependency-graph component of their
/// head predicate — the iteration skeleton every SCC-ordered analysis
/// shares. Component ids follow DependencyGraph: increasing index visits
/// callees (lower strata) first.
class SccRulePartition {
 public:
  SccRulePartition(const Program& program, const DependencyGraph& graph);

  /// Indices into Program::rules() whose head lies in `component`.
  const std::vector<int>& RulesOfComponent(int component) const {
    return rules_of_component_[component];
  }
  int num_components() const {
    return static_cast<int>(rules_of_component_.size());
  }

 private:
  std::vector<std::vector<int>> rules_of_component_;
};

/// Outcome counters of one SCC fixpoint solve (test/observability surface).
struct SccFixpointStats {
  int rounds = 0;        // total transfer rounds across all components
  int widened_sccs = 0;  // components that hit the round bound and widened
};

/// Generic SCC-ordered lattice-fixpoint driver. For each component in
/// callee-first order it iterates `apply_rule` (a monotone transfer; returns
/// true when the head value rose) over the component's rules until stable.
/// A component still changing after `2·(|rules| + |preds|) + 4` rounds is
/// widened: `widen(pred)` jumps every predicate of the component that rose
/// in the last round to the lattice top (return true when the value
/// changed), after which iteration resumes — the top is absorbing, so the
/// loop terminates. When `narrow_rule` is non-null, widened components get
/// up to three narrowing passes: `narrow_rule` recomputes a head value from
/// scratch (a plain `F(x)` application, allowed to *lower* the value);
/// starting above the least fixpoint, every such pass stays above it, so
/// accepting any prefix of the descent is sound.
SccFixpointStats SolveSccFixpoint(
    const DependencyGraph& graph, const SccRulePartition& partition,
    const std::function<bool(int rule_index)>& apply_rule,
    const std::function<bool(PredicateId)>& widen,
    const std::function<void(int component)>& narrow_component = nullptr);

// ---------------------------------------------------------------------------
// Analysis 1: temporal offsets.
// ---------------------------------------------------------------------------

/// Lattice of the temporal-offset analysis: the largest time point at which
/// a predicate can hold a fact. kTimeBottom = derivably empty (no facts, no
/// firing rule); kTimeUnbounded = facts at arbitrarily large times.
inline constexpr int64_t kTimeBottom = std::numeric_limits<int64_t>::min();
inline constexpr int64_t kTimeUnbounded = std::numeric_limits<int64_t>::max();

/// Per-component facts of the temporal-offset analysis, kept for the
/// A-series explanations and the JSON export.
struct SccOffsetInfo {
  int component = 0;
  std::vector<PredicateId> predicates;
  /// gcd of the net temporal offsets around every directed cycle of the
  /// component (0 when the component has no within-SCC temporal edge, or
  /// when some edge relates head and body through distinct temporal
  /// variables and no uniform shift exists).
  int64_t cycle_gcd = 0;
  bool has_nonuniform_edge = false;
  /// True when every predicate of the component stabilises (finite or
  /// bottom last-time).
  bool bounded = true;
  /// Exact eventual period of this component's pattern, when the component
  /// qualifies as an EDB-seeded pure self-delay SCC (see dataflow.cc);
  /// 0 = no claim.
  int64_t self_delay_period = 0;
};

struct TemporalOffsetResult {
  /// Per predicate: kTimeBottom, a finite bound, or kTimeUnbounded.
  std::vector<int64_t> last_time;
  std::vector<SccOffsetInfo> sccs;  // one entry per component with rules
  /// True when every predicate's last_time is finite or bottom. Then the
  /// model's minimal period is 1 and b + c <= static_horizon + 1.
  bool bounded = false;
  /// Max finite last_time over all predicates (0 when none) — a sound upper
  /// bound on the stabilization time of a bounded program.
  int64_t static_horizon = 0;
  /// A proven divisor of the model's minimal period p (p % divisor == 0);
  /// 1 when nothing stronger is known. The lcm of the exact eventual
  /// periods of all qualifying self-delay components.
  int64_t period_divisor = 1;
};

// ---------------------------------------------------------------------------
// Analysis 2: polynomial degree.
// ---------------------------------------------------------------------------

struct DegreeResult {
  /// Per predicate: smallest proven k with |P at any one time| = O(n^k) in
  /// the database size measure n (max of facts and constants).
  std::vector<int> degree;
  /// Max degree over derived predicates — the program is O(n^k) per
  /// timestep.
  int program_degree = 0;
};

// ---------------------------------------------------------------------------
// The combined run.
// ---------------------------------------------------------------------------

struct FlowOptions {
  /// Degree budget: predicates whose proven degree exceeds it get an A005
  /// warning.
  int degree_budget = 8;
};

/// The combined chronolog_flow result over one program + database.
struct FlowAnalysis {
  TemporalOffsetResult offsets;
  DegreeResult degrees;
  /// A-series diagnostics (sorted, same contract as lint diagnostics).
  std::vector<Diagnostic> diagnostics;
  SccFixpointStats stats;

  /// Human-readable analysis report (one block per analysis).
  std::string Summary(const Program& program) const;
  /// {"bounded":...,"static_horizon":...,"period_divisor":...,
  ///  "program_degree":...,"predicates":[...],"sccs":[...],
  ///  "diagnostics":[...]}
  std::string ToJson(const Program& program) const;
};

/// Runs both analyses. Purely static (no model construction); linear
/// in the program size up to the bounded SCC fixpoints.
FlowAnalysis AnalyzeProgram(const Program& program, const Database& database,
                            const FlowOptions& options = {});

/// The registered flow passes (same shape as LintPassRegistry; surfaced by
/// `chronolog-lint --list-passes`).
const std::vector<LintPassInfo>& FlowPassRegistry();

}  // namespace chronolog

#endif  // CHRONOLOG_ANALYSIS_DATAFLOW_H_
