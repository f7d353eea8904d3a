#ifndef CHRONOLOG_AST_PRINTER_H_
#define CHRONOLOG_AST_PRINTER_H_

#include <string>

#include "ast/program.h"

namespace chronolog {

/// Renders AST nodes back into the surface syntax (useful for diagnostics,
/// round-trip tests and the REPL). All functions need the Vocabulary that
/// owns the interned names; atoms inside rules additionally need the rule for
/// variable names.

std::string TemporalTermToString(const TemporalTerm& term,
                                 const std::vector<std::string>& var_names);

std::string AtomToString(const Atom& atom, const Vocabulary& vocab,
                         const std::vector<std::string>& var_names);

/// `local_constants` names the query-local constants (kFirstLocalConstant
/// on) of an atom parsed from a query.
std::string GroundAtomToString(
    const GroundAtom& atom, const Vocabulary& vocab,
    const std::vector<std::string>& local_constants = {});

std::string RuleToString(const Rule& rule, const Vocabulary& vocab);

/// One clause per line, rules first and then facts.
std::string ProgramToString(const Program& program);
std::string DatabaseToString(const Database& database);

}  // namespace chronolog

#endif  // CHRONOLOG_AST_PRINTER_H_
