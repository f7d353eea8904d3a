// chronolog-lint — static analysis for temporal deductive databases.
//
// Parses one or more .tdl source files and runs every registered lint pass
// (see src/analysis/lint.h): range-restriction/safety, temporal-sort
// misuse, singleton variables, duplicate/subsumed rules, dead rules and
// underivable predicates, and explained tractability-classification
// failures (multi-separability, progressivity, optionally the Theorem 5.2
// inflationary decision procedure). Every diagnostic carries a
// file:line:column span and a stable code (L001..L013, P001).
//
// With --analyze it additionally runs the chronolog_flow static analyses
// (src/analysis/dataflow.h): temporal-offset bounds and polynomial
// degrees, reported as A001..A006 diagnostics plus a summary block (text)
// or an "analysis" object (JSON).
//
// Usage:
//   chronolog-lint [flags] input.tdl [more.tdl ...]
//
// Flags:
//   --json                machine-readable output (one JSON object)
//   --strict              promote warnings to errors for the exit code
//   --no-classify         skip the classification passes (L009-L011)
//   --check-inflationary  run the Theorem 5.2 procedure (builds models)
//   --analyze             run the chronolog_flow analyses (A001-A006)
//   --degree-budget=N     degree budget for A005 warnings (default 8)
//   --root=PRED           query root for reachability only (L008, L013)
//   --disable=PASS        skip a pass by name (repeatable)
//   --list-passes         print the pass registry and exit
//
// Exit codes: 0 clean (or warnings without --strict), 1 usage/IO error,
// 2 parse error, 3 lint errors (or warnings under --strict).

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/lint.h"
#include "ast/parser.h"
#include "util/log.h"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitUsage = 1;
constexpr int kExitParseError = 2;
constexpr int kExitLintError = 3;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: chronolog-lint [flags] input.tdl [more.tdl ...]\n"
      "  --json                machine-readable output\n"
      "  --strict              promote warnings to errors (exit code)\n"
      "  --no-classify         skip classification passes (L009-L011)\n"
      "  --check-inflationary  run the Theorem 5.2 decision procedure\n"
      "  --analyze             run the chronolog_flow analyses (A001-A006)\n"
      "  --degree-budget=N     degree budget for A005 warnings (default 8)\n"
      "  --root=PRED           query root for reachability only (L008, L013)\n"
      "  --disable=PASS        skip a pass by name (repeatable)\n"
      "  --list-passes         print the pass registry and exit\n");
}

void ListPasses() {
  for (const chronolog::LintPassInfo& pass : chronolog::LintPassRegistry()) {
    std::printf("%-16s %-16s %s\n",
                std::string(pass.name).c_str(),
                std::string(pass.codes).c_str(),
                std::string(pass.description).c_str());
  }
  // The flow analyses run under --analyze; listed here so one invocation
  // shows the full diagnostic surface (L-codes and A-codes).
  for (const chronolog::LintPassInfo& pass : chronolog::FlowPassRegistry()) {
    std::printf("%-16s %-16s %s\n",
                std::string(pass.name).c_str(),
                std::string(pass.codes).c_str(),
                std::string(pass.description).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  chronolog::LintOptions options;
  chronolog::FlowOptions flow_options;
  bool json = false;
  bool strict = false;
  bool analyze = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(arg, "--no-classify") == 0) {
      options.classify = false;
    } else if (std::strcmp(arg, "--check-inflationary") == 0) {
      options.check_inflationary = true;
    } else if (std::strcmp(arg, "--analyze") == 0) {
      analyze = true;
    } else if (std::strncmp(arg, "--degree-budget=", 16) == 0) {
      // The whole value must be a non-negative int: from_chars rejects
      // overflow instead of wrapping, and a leading '+', blanks or suffixes.
      const char* value = arg + 16;
      const char* end = value + std::strlen(value);
      int budget = 0;
      const auto [ptr, ec] = std::from_chars(value, end, budget);
      if (ec != std::errc() || ptr != end || budget < 0) {
        chronolog::LogError("lint.bad_flag_value").Str("flag", arg);
        PrintUsage();
        return kExitUsage;
      }
      flow_options.degree_budget = budget;
    } else if (std::strncmp(arg, "--root=", 7) == 0) {
      options.roots.push_back(arg + 7);
    } else if (std::strncmp(arg, "--disable=", 10) == 0) {
      options.disabled_passes.push_back(arg + 10);
    } else if (std::strcmp(arg, "--list-passes") == 0) {
      ListPasses();
      return kExitClean;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      return kExitClean;
    } else if (arg[0] == '-' && arg[1] != '\0') {
      chronolog::LogError("lint.unknown_flag").Str("flag", arg);
      PrintUsage();
      return kExitUsage;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    PrintUsage();
    return kExitUsage;
  }

  // Parse every file through one Parser so the program shares a vocabulary
  // but each file keeps its own name in the source-unit table.
  chronolog::Parser parser;
  for (const std::string& path : inputs) {
    std::ifstream file(path);
    if (!file) {
      chronolog::LogError("lint.open_failed").Str("path", path);
      return kExitUsage;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    chronolog::Status status = parser.AddSource(buffer.str(), path);
    if (!status.ok()) {
      chronolog::Diagnostic diag = chronolog::MakeProgramDiagnostic(
          chronolog::Severity::kError, chronolog::lint_code::kParseError,
          status.message());
      diag.span.file = path;
      if (json) {
        std::printf("{\"diagnostics\":[%s],\"errors\":1,\"warnings\":0,"
                    "\"notes\":0}\n", diag.ToJson().c_str());
      } else {
        std::fprintf(stderr, "%s\n", diag.ToString().c_str());
      }
      return kExitParseError;
    }
  }
  auto unit = parser.Finish();
  if (!unit.ok()) {
    chronolog::Diagnostic diag = chronolog::MakeProgramDiagnostic(
        chronolog::Severity::kError, chronolog::lint_code::kParseError,
        unit.status().message());
    if (inputs.size() == 1) diag.span.file = inputs[0];
    if (json) {
      std::printf("{\"diagnostics\":[%s],\"errors\":1,\"warnings\":0,"
                  "\"notes\":0}\n", diag.ToJson().c_str());
    } else {
      std::fprintf(stderr, "%s\n", diag.ToString().c_str());
    }
    return kExitParseError;
  }

  chronolog::LintResult result =
      chronolog::LintProgram(unit->program, unit->database, options);
  std::string analysis_json;
  std::string analysis_summary;
  if (analyze) {
    const chronolog::FlowAnalysis flow = chronolog::AnalyzeProgram(
        unit->program, unit->database, flow_options);
    // The A-series findings join the lint diagnostics (one sorted stream,
    // one exit-code policy); the structural results travel separately as a
    // summary block / "analysis" JSON object.
    for (chronolog::Diagnostic diag : flow.diagnostics) {
      if (inputs.size() == 1) diag.span.file = inputs[0];
      result.diagnostics.push_back(std::move(diag));
    }
    chronolog::SortDiagnostics(&result.diagnostics);
    analysis_json = flow.ToJson(unit->program);
    analysis_summary = flow.Summary(unit->program);
  }
  if (json) {
    std::string out = result.ToJson();
    if (analyze) {
      // Splice the analysis object into the lint report:
      // {"analysis":{...},"diagnostics":[...],...}
      out.insert(1, "\"analysis\":" + analysis_json + ",");
    }
    std::printf("%s\n", out.c_str());
  } else {
    if (result.diagnostics.empty()) {
      std::printf("clean: %zu rule(s), %zu fact(s), no diagnostics\n",
                  unit->program.rules().size(),
                  unit->database.facts().size());
    } else {
      std::printf("%s", result.ToString().c_str());
    }
    if (analyze) {
      std::printf("%s", analysis_summary.c_str());
    }
  }

  const std::size_t errors =
      result.CountSeverity(chronolog::Severity::kError) +
      (strict ? result.CountSeverity(chronolog::Severity::kWarning) : 0);
  return errors > 0 ? kExitLintError : kExitClean;
}
