#ifndef CHRONOLOG_CORE_ENGINE_H_
#define CHRONOLOG_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/classify.h"
#include "analysis/inflationary.h"
#include "analysis/lint.h"
#include "ast/parser.h"
#include "ast/program.h"
#include "eval/bt.h"
#include "query/query_eval.h"
#include "query/query_parser.h"
#include "spec/specification.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/trace.h"

namespace chronolog {

/// Engine-level options.
struct EngineOptions {
  /// Budgets for period detection / specification construction and for
  /// the Theorem 5.2 inflationary decision procedure. Its EvalContext is the
  /// engine's: AskBt and Explain evaluate under the same budget and sinks.
  PeriodDetectionOptions period;
  /// No-op: evaluation is sequential. Kept only because perfbench/ still
  /// sets it; delete it together with those assignments.
  int num_threads = 1;
  /// When to run chronolog_lint over the program before evaluation.
  ///  - kOff    (default): no lint pass, behaviour identical to before.
  ///  - kWarn:   lint at construction; diagnostics are retained and
  ///             queryable via TemporalDatabase::lint(), never fatal.
  ///  - kReject: like kWarn, but FromSource / FromParsedUnit fail with
  ///             kInvalidArgument when any error-severity diagnostic
  ///             (L001/L002-class) is present. Warnings never reject.
  enum class LintLevel { kOff, kWarn, kReject };
  LintLevel lint_level = LintLevel::kOff;
  /// Pass configuration used when `lint_level != kOff`.
  LintOptions lint;
  /// Build the chronolog_obs observability layer for this database: the
  /// engine owns a MetricsRegistry + TraceBuffer and wires them through
  /// every evaluator it drives (specification builds, inflationary checks,
  /// AskBt, Explain). Off by default — the instrumentation then costs one
  /// null-pointer branch per site (benchmarked < 2% on the spec-build
  /// suite, see DESIGN.md).
  bool collect_metrics = false;
  /// Capacity of the engine-owned TraceBuffer (spans beyond it are counted
  /// as dropped, not stored). Only meaningful with `collect_metrics`;
  /// chronolog-serve exposes it as `--trace-capacity=N`.
  std::size_t trace_capacity = 1 << 16;
  /// Threshold for this engine's structured log events (src/util/log.h,
  /// JSON lines: lint summaries, specification-build outcomes). Unset
  /// inherits the process-wide level — $CHRONOLOG_LOG_LEVEL, default warn —
  /// so engines stay quiet in tests and noisy only when asked.
  std::optional<LogLevel> log_level;
};

/// The top-level facade of chronolog: one temporal deductive database
/// `Z ∧ D` with classification, relational-specification construction and
/// query answering. Typical use:
///
///   auto tdd = TemporalDatabase::FromSource(R"(
///     even(0).
///     even(T+2) :- even(T).
///   )");
///   tdd->Ask("even(1000000)");            // yes, O(1) after spec build
///   tdd->Query("exists T (even(T+1))");   // first-order queries
///
/// All heavyweight artefacts (classification, inflationary verdict,
/// relational specification) are built lazily and cached.
class TemporalDatabase {
 public:
  /// Parses `source` (rules + facts + directives) and wraps it.
  static Result<TemporalDatabase> FromSource(std::string_view source,
                                             EngineOptions options = {});

  /// Wraps an already-parsed unit (e.g. from a workload generator or a
  /// transformation such as TemporalizeDatalog).
  static Result<TemporalDatabase> FromParsedUnit(ParsedUnit unit,
                                                 EngineOptions options = {});

  TemporalDatabase(TemporalDatabase&&) = default;
  TemporalDatabase& operator=(TemporalDatabase&&) = default;

  const Program& program() const { return unit_.program; }
  const Database& database() const { return unit_.database; }
  const Vocabulary& vocab() const { return unit_.program.vocab(); }

  /// Diagnostics from the construction-time lint run; empty when
  /// `EngineOptions::lint_level == kOff` (lint never ran) or the program is
  /// clean.
  const LintResult& lint() const { return lint_; }

  /// Syntactic classification (computed once, cached).
  const ProgramClassification& classification();

  /// Theorem 5.2 inflationary verdict (computed once, cached).
  Result<InflationaryReport> inflationary();

  /// The relational specification `(T, B, W)` of the least model (built
  /// once, cached). May fail with kResourceExhausted when the period
  /// exceeds the configured horizon.
  Result<const RelationalSpecification*> specification();

  /// Build-time facts about the cached specification — detection stats and
  /// the join plans its fixpoints executed (EXPLAIN's plan source). Only
  /// meaningful after a successful specification() call; empty before.
  const SpecificationBuildInfo& spec_info() const { return spec_info_; }

  /// Yes-no query for a ground atom, answered through the relational
  /// specification: O(parse + rewrite + lookup) per call after the first.
  Result<bool> Ask(std::string_view ground_atom);

  /// Yes-no query answered by algorithm BT (Figure 1) from scratch; `range`
  /// defaults to `b + c + p` obtained from the specification. Mostly useful
  /// for benchmarking BT itself — `Ask` is the fast path.
  Result<bool> AskBt(std::string_view ground_atom,
                     std::optional<int64_t> range = std::nullopt);

  /// First-order temporal query (Proposition 3.1 evaluation over the
  /// specification). `limits` bounds the evaluation per query: a wall-clock
  /// timeout (answer carries `QueryAnswer::partial` when it fires) and a
  /// row cap (`QueryAnswer::truncated`); the default is unlimited.
  Result<QueryAnswer> Query(std::string_view query, QueryLimits limits = {});

  /// Renders a ground hyperresolution proof of `ground_atom` (the
  /// derivation object behind Theorem 4.1's correctness argument). Atoms
  /// beyond the representative segment are first rewritten to their
  /// canonical form; the returned text notes the rewrite. Re-materialises
  /// the model with provenance — O(model) per call, meant for debugging
  /// and auditing rather than hot paths.
  Result<std::string> Explain(std::string_view ground_atom);

  /// Multi-line human-readable summary: classification, period,
  /// specification sizes.
  std::string Describe();

  /// The engine-owned observability sinks; null unless
  /// `EngineOptions::collect_metrics` was set.
  MetricsRegistry* metrics() const { return metrics_.get(); }
  TraceBuffer* trace() const { return trace_.get(); }

  /// Combined JSON export `{"metrics":{...},"trace":{...}}` of everything
  /// collected so far; "{}" when collection is off.
  std::string MetricsJson() const;

 private:
  /// Runs the construction-time lint pass mandated by
  /// `EngineOptions::lint_level` (no-op for kOff); rejects with
  /// kInvalidArgument on error diagnostics under kReject.
  static Result<TemporalDatabase> ApplyLintLevel(TemporalDatabase tdd);

  TemporalDatabase(ParsedUnit unit, EngineOptions options)
      : unit_(std::move(unit)), options_(options) {
    if (options_.collect_metrics) {
      // The sinks outlive every evaluator run (they are owned here and the
      // raw pointers stored in the option structs stay valid across moves
      // of this object — unique_ptr moves transfer the pointee untouched).
      metrics_ = std::make_unique<MetricsRegistry>();
      trace_ = std::make_unique<TraceBuffer>(options_.trace_capacity);
      options_.period.metrics = metrics_.get();
      options_.period.trace = trace_.get();
    }
  }

  ParsedUnit unit_;
  EngineOptions options_;
  LintResult lint_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TraceBuffer> trace_;
  std::optional<ProgramClassification> classification_;
  std::optional<InflationaryReport> inflationary_;
  std::optional<RelationalSpecification> spec_;
  SpecificationBuildInfo spec_info_;
};

}  // namespace chronolog

#endif  // CHRONOLOG_CORE_ENGINE_H_
