#ifndef CHRONOLOG_QUERY_QUERY_AST_H_
#define CHRONOLOG_QUERY_QUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "ast/atom.h"

namespace chronolog {

/// Node kinds of the first-order temporal query language (Section 3.1): a
/// temporal query is built from temporal and non-temporal atoms with the
/// standard connectives and two-sorted quantifiers (no equality — see the
/// Section 8 counterexample for why equality breaks invariance).
enum class QueryKind {
  kAtom,
  kNot,     // negation, evaluated under the Closed World Assumption
  kAnd,
  kOr,
  kExists,  // quantifies one variable (temporal or non-temporal sort)
  kForall,
  /// Term equality `s = t`. NOT part of the paper's temporal query language
  /// — Section 8 shows equality is not invariant w.r.t. relational
  /// specifications (distinct ground terms can share a representative) —
  /// so it is evaluable only against explicitly materialised models;
  /// EvaluateQueryOverSpec rejects it.
  kEqual,
};

/// One side of an equality: a term of either sort.
struct EqualitySide {
  bool temporal = false;
  TemporalTerm time;  // meaningful when temporal
  NtTerm nt;          // meaningful otherwise
};

/// One node of a query formula. Variables are query-local ids into the
/// owning Query's tables; quantifiers always introduce a fresh VarId, so
/// shadowing is resolved at parse time.
struct QueryNode {
  QueryKind kind = QueryKind::kAtom;
  Atom atom;                         // kAtom
  std::unique_ptr<QueryNode> left;   // kNot/kExists/kForall child; kAnd/kOr lhs
  std::unique_ptr<QueryNode> right;  // kAnd/kOr rhs
  VarId var = kNoVar;                // kExists/kForall
  EqualitySide eq_lhs;               // kEqual
  EqualitySide eq_rhs;               // kEqual
};

/// A parsed first-order temporal query `Q(x1, ..., xk)` with free variables
/// in `free_vars`. A query with no free variables is a yes-no query.
struct Query {
  std::unique_ptr<QueryNode> root;
  std::vector<std::string> var_names;  // indexed by VarId (free + bound)
  std::vector<bool> temporal_vars;     // sort per VarId
  std::vector<VarId> free_vars;        // in first-occurrence order
  /// Constants the vocabulary does not know, in first-occurrence order;
  /// entry i has id kFirstLocalConstant + i.
  std::vector<std::string> local_constants;

  bool closed() const { return free_vars.empty(); }
};

}  // namespace chronolog

#endif  // CHRONOLOG_QUERY_QUERY_AST_H_
