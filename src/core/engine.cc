#include "core/engine.h"

#include <chrono>

#include "ast/printer.h"
#include "eval/provenance.h"

namespace chronolog {

namespace {

/// Engine log events honour the per-engine override before the global
/// threshold (structured logging, src/util/log.h).
LogEvent EngineLog(LogLevel level, std::string_view event,
                   const EngineOptions& options) {
  return LogEvent(level, event, options.log_level.value_or(GlobalLogLevel()));
}

}  // namespace

Result<TemporalDatabase> TemporalDatabase::ApplyLintLevel(
    TemporalDatabase tdd) {
  if (tdd.options_.lint_level == EngineOptions::LintLevel::kOff) {
    return tdd;
  }
  LintResult lint = LintProgram(tdd.unit_.program, tdd.unit_.database,
                                tdd.options_.lint);
  if (tdd.options_.lint_level == EngineOptions::LintLevel::kReject &&
      lint.has_errors()) {
    std::string message = "program rejected by chronolog_lint:";
    for (const Diagnostic& diag : lint.diagnostics) {
      if (diag.severity == Severity::kError) {
        message += "\n  " + diag.ToString();
      }
    }
    EngineLog(LogLevel::kError, "engine.lint_reject", tdd.options_)
        .Uint("errors", lint.CountSeverity(Severity::kError))
        .Uint("warnings", lint.CountSeverity(Severity::kWarning));
    return InvalidArgumentError(message);
  }
  if (!lint.diagnostics.empty()) {
    EngineLog(LogLevel::kWarn, "engine.lint", tdd.options_)
        .Uint("errors", lint.CountSeverity(Severity::kError))
        .Uint("warnings", lint.CountSeverity(Severity::kWarning))
        .Uint("diagnostics", lint.diagnostics.size());
  }
  tdd.lint_ = std::move(lint);
  return tdd;
}

Result<TemporalDatabase> TemporalDatabase::FromSource(std::string_view source,
                                                      EngineOptions options) {
  CHRONOLOG_ASSIGN_OR_RETURN(ParsedUnit unit, Parser::Parse(source));
  return ApplyLintLevel(TemporalDatabase(std::move(unit), options));
}

Result<TemporalDatabase> TemporalDatabase::FromParsedUnit(
    ParsedUnit unit, EngineOptions options) {
  return ApplyLintLevel(TemporalDatabase(std::move(unit), options));
}

const ProgramClassification& TemporalDatabase::classification() {
  if (!classification_.has_value()) {
    classification_ = ClassifyProgram(unit_.program);
  }
  return *classification_;
}

Result<InflationaryReport> TemporalDatabase::inflationary() {
  if (!inflationary_.has_value()) {
    CHRONOLOG_ASSIGN_OR_RETURN(
        InflationaryReport report,
        CheckInflationary(unit_.program, options_.period));
    inflationary_ = std::move(report);
  }
  return *inflationary_;
}

Result<const RelationalSpecification*> TemporalDatabase::specification() {
  if (!spec_.has_value()) {
    const auto start = std::chrono::steady_clock::now();
    Result<RelationalSpecification> spec = BuildSpecification(
        unit_.program, unit_.database, options_.period, &spec_info_);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (!spec.ok()) {
      EngineLog(LogLevel::kError, "engine.spec_build_failed", options_)
          .Str("status", spec.status().ToString())
          .Num("wall_ms", wall_ms);
      return spec.status();
    }
    EngineLog(LogLevel::kInfo, "engine.spec_build", options_)
        .Int("period_b", spec->period().b)
        .Int("period_p", spec->period().p)
        .Int("representatives", spec->num_representatives())
        .Uint("primary_facts", spec->SizeInFacts())
        .Bool("exact_period", spec_info_.exact_period)
        .Num("wall_ms", wall_ms);
    spec_ = std::move(spec).value();
  }
  return &*spec_;
}

Result<bool> TemporalDatabase::Ask(std::string_view ground_atom) {
  CHRONOLOG_ASSIGN_OR_RETURN(GroundAtom atom,
                             ParseGroundAtom(ground_atom, vocab()));
  CHRONOLOG_ASSIGN_OR_RETURN(const RelationalSpecification* spec,
                             specification());
  if (metrics_ != nullptr) metrics_->counter("query.asks")->Add();
  return spec->Ask(atom);
}

Result<bool> TemporalDatabase::AskBt(std::string_view ground_atom,
                                     std::optional<int64_t> range) {
  CHRONOLOG_ASSIGN_OR_RETURN(GroundAtom atom,
                             ParseGroundAtom(ground_atom, vocab()));
  BtOptions options;
  static_cast<EvalContext&>(options) = options_.period;
  if (range.has_value()) {
    options.range = *range;
  } else {
    // range(Z ∧ D) <= b + c + p: past b+c the states cycle with period p.
    CHRONOLOG_ASSIGN_OR_RETURN(const RelationalSpecification* spec,
                               specification());
    options.range = spec->num_representatives();
  }
  CHRONOLOG_ASSIGN_OR_RETURN(BtResult result,
                             RunBt(unit_.program, unit_.database, atom,
                                   options));
  return result.answer;
}

Result<QueryAnswer> TemporalDatabase::Query(std::string_view query_text,
                                            QueryLimits limits) {
  // `::chronolog::Query` disambiguates the AST type from this member.
  CHRONOLOG_ASSIGN_OR_RETURN(::chronolog::Query parsed,
                             ParseQuery(query_text, vocab()));
  CHRONOLOG_ASSIGN_OR_RETURN(const RelationalSpecification* spec,
                             specification());
  QueryEvalOptions eval_options;
  eval_options.metrics = metrics_.get();
  eval_options.trace = trace_.get();
  eval_options.deadline = DeadlineAfter(limits.timeout);
  eval_options.max_rows = limits.max_rows;
  return EvaluateQueryOverSpec(parsed, *spec, eval_options);
}

Result<std::string> TemporalDatabase::Explain(std::string_view ground_atom) {
  std::vector<std::string> local_constants;
  CHRONOLOG_ASSIGN_OR_RETURN(
      GroundAtom atom,
      ParseGroundAtom(ground_atom, vocab(), &local_constants));
  CHRONOLOG_ASSIGN_OR_RETURN(const RelationalSpecification* spec,
                             specification());
  std::string prefix;
  if (vocab().predicate(atom.pred).is_temporal) {
    int64_t canonical = spec->Canonicalize(atom.time);
    if (canonical != atom.time) {
      prefix = GroundAtomToString(atom, vocab(), local_constants) +
               " rewrites (W) to its representative:\n";
      atom.time = canonical;
    }
  }
  if (!local_constants.empty()) {
    // No fact holds a constant the vocabulary does not know.
    return NotFoundError("no proof: " +
                         GroundAtomToString(atom, vocab(), local_constants) +
                         " is not in the least model");
  }
  // Materialise with provenance over a horizon that covers every proof of
  // atoms within the representative segment (same margin as algorithm BT:
  // representatives act as both h and range here).
  FixpointOptions options;
  static_cast<EvalContext&>(options) = options_.period;
  options.max_time = 2 * spec->num_representatives();
  CHRONOLOG_ASSIGN_OR_RETURN(
      ProofForest forest,
      MaterializeWithProvenance(unit_.program, unit_.database, options));
  CHRONOLOG_ASSIGN_OR_RETURN(std::string proof,
                             forest.Explain(atom, unit_.program));
  return prefix + proof;
}

std::string TemporalDatabase::MetricsJson() const {
  if (metrics_ == nullptr) return "{}";
  std::string out = "{\"metrics\":" + metrics_->ToJson();
  if (trace_ != nullptr) out += ",\"trace\":" + trace_->ToJson();
  out += "}";
  return out;
}

std::string TemporalDatabase::Describe() {
  std::string out;
  out += "rules:            " + std::to_string(program().rules().size()) + "\n";
  out += "facts:            " + std::to_string(database().size()) + "\n";
  out += "database c:       " + std::to_string(database().MaxTemporalDepth()) +
         "\n";
  out += classification().ToString();
  Result<InflationaryReport> inflat = inflationary();
  out += "inflationary:     ";
  out += inflat.ok() ? inflat->ToString(vocab())
                     : std::string("(check failed: ") +
                           inflat.status().ToString() + ")";
  out += "\n";
  Result<const RelationalSpecification*> spec = specification();
  if (spec.ok()) {
    out += "period:           (b=" + std::to_string((*spec)->period().b) +
           ", p=" + std::to_string((*spec)->period().p) + ")";
    out += spec_info_.exact_period ? "  [exact]\n" : "  [verified-doubling]\n";
    out += "representatives:  " + std::to_string((*spec)->num_representatives()) +
           "\n";
    out += "primary db size:  " + std::to_string((*spec)->SizeInFacts()) + "\n";
  } else {
    out += "specification:    (failed: " + spec.status().ToString() + ")\n";
  }
  return out;
}

}  // namespace chronolog
