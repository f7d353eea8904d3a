#ifndef CHRONOLOG_ANALYSIS_DIAGNOSTICS_H_
#define CHRONOLOG_ANALYSIS_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "ast/program.h"
#include "ast/source_location.h"

namespace chronolog {

/// Severity of a program diagnostic. Errors make a program unfit for
/// evaluation (`EngineOptions::lint_level == kReject` refuses it); warnings
/// flag likely mistakes and lost tractability guarantees; notes carry
/// supplementary explanations.
enum class Severity { kNote = 0, kWarning = 1, kError = 2 };

std::string_view SeverityToString(Severity severity);

/// Stable diagnostic codes of the chronolog_lint front end. Codes are part
/// of the public contract (CI and editors match on them); never renumber.
namespace lint_code {
inline constexpr const char* kUnsafeVariable = "L001";       // error
inline constexpr const char* kSortMisuse = "L002";           // error
inline constexpr const char* kSingletonVariable = "L003";    // warning
inline constexpr const char* kDuplicateRule = "L004";        // warning
inline constexpr const char* kSubsumedRule = "L005";         // warning
inline constexpr const char* kDeadRule = "L006";             // warning
inline constexpr const char* kUnderivablePredicate = "L007"; // warning
inline constexpr const char* kUnreachableFromRoots = "L008"; // note
inline constexpr const char* kNotSeparable = "L009";         // warning
inline constexpr const char* kUnreducedTimeOnly = "L010";    // note
inline constexpr const char* kNotProgressive = "L011";       // note
inline constexpr const char* kNotInflationary = "L012";      // warning
inline constexpr const char* kUnknownRoot = "L013";          // note
inline constexpr const char* kParseError = "P001";           // error
}  // namespace lint_code

/// Stable diagnostic codes of the chronolog_flow static analyses
/// (analysis/dataflow.h). Same contract as the L-series: never renumber.
/// A007/A008 belonged to a deleted binding-pattern pass; do not reuse them.
namespace flow_code {
inline constexpr const char* kOffsetCycle = "A001";      // note
inline constexpr const char* kUnboundedGrowth = "A002";  // warning
inline constexpr const char* kStaticHorizon = "A003";    // note
inline constexpr const char* kPeriodDivisor = "A004";    // note
inline constexpr const char* kDegreeBudget = "A005";     // warning
inline constexpr const char* kProgramDegree = "A006";    // note
}  // namespace flow_code

/// A source span resolved against the owning program's unit table:
/// file name plus 1-based line/column. `line == 0` means the node was
/// synthesised (normalisation, generators) and carries no position.
struct SourceSpan {
  std::string file = "<input>";
  int32_t line = 0;
  int32_t column = 0;

  bool valid() const { return line > 0; }
  /// "file:line:column", or just "file" for synthesised nodes.
  std::string ToString() const;

  friend bool operator==(const SourceSpan& a, const SourceSpan& b) {
    return a.file == b.file && a.line == b.line && a.column == b.column;
  }
};

/// Resolves an AST location against `program`'s source-unit table.
SourceSpan ResolveSpan(const Program& program, const SourceLoc& loc);

/// One structured finding of the chronolog_lint front end (or of the
/// classification analyses feeding it): a stable code, a severity, a
/// human-readable message and the source span of the offending construct.
struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;     // stable rule code, e.g. "L001"
  std::string message;  // free text; names the offending rule/variable
  SourceSpan span;
  int rule_index = -1;  // index into Program::rules(); -1 = whole program

  /// "file:line:column: severity: message [code]".
  std::string ToString() const;
  /// {"code":...,"severity":...,"message":...,"file":...,"line":...,
  ///  "column":...,"rule":...}
  std::string ToJson() const;
};

/// Diagnostic for `program.rules()[rule_index]`, located at the rule's span.
Diagnostic MakeRuleDiagnostic(const Program& program, int rule_index,
                              Severity severity, std::string code,
                              std::string message);

/// Program-level diagnostic with no particular rule.
Diagnostic MakeProgramDiagnostic(Severity severity, std::string code,
                                 std::string message);

/// Stable presentation order: by file, line, column, then code.
void SortDiagnostics(std::vector<Diagnostic>* diagnostics);

/// JSON array of Diagnostic::ToJson values.
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics);

}  // namespace chronolog

#endif  // CHRONOLOG_ANALYSIS_DIAGNOSTICS_H_
