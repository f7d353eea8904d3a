#ifndef CHRONOLOG_QUERY_QUERY_PARSER_H_
#define CHRONOLOG_QUERY_QUERY_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ast/vocabulary.h"
#include "query/query_ast.h"
#include "util/result.h"

namespace chronolog {

/// Parses a first-order temporal query against an existing vocabulary
/// (every predicate must already be known; sorts come from the predicate
/// signatures). The vocabulary is only read, so concurrent parses against
/// one vocabulary are safe: a constant it does not know becomes a
/// query-local constant (Query::local_constants), which no fact holds.
///
/// Grammar (keywords and symbols interchangeable):
///
///   query  := disj
///   disj   := conj  { ("|" | "or") conj }
///   conj   := unary { ("&" | "," | "and") unary }
///   unary  := ("~" | "not") unary
///           | ("exists" | "forall") Var {"," Var} "(" query ")"
///           | "(" query ")"
///           | atom
///   atom   := ident [ "(" term {"," term} ")" ]
///
/// Examples:
///   plane(12, hunter)
///   exists T (plane(T, hunter) & ~winter(T))
///   forall T (even(T) | even(T+1))
///
/// Unquantified variables are the query's free variables; evaluating the
/// query returns their satisfying assignments (plus the specification's
/// rewrite rule, which finitely represents the infinitely many temporal
/// instantiations — Section 3.3).
Result<Query> ParseQuery(std::string_view source, const Vocabulary& vocab);

/// Parses a single ground atom such as `plane(12, hunter)`; convenience for
/// yes-no queries through RelationalSpecification::Ask and algorithm BT.
/// Unknown constants are query-local, as in ParseQuery; their names go to
/// `*local_constants` when it is non-null.
Result<GroundAtom> ParseGroundAtom(
    std::string_view source, const Vocabulary& vocab,
    std::vector<std::string>* local_constants = nullptr);

}  // namespace chronolog

#endif  // CHRONOLOG_QUERY_QUERY_PARSER_H_
