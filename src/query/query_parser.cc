#include "query/query_parser.h"

#include <unordered_map>
#include <vector>

#include "ast/lexer.h"

namespace chronolog {

namespace {

std::string At(const Token& tok) {
  return " at line " + std::to_string(tok.line) + ", column " +
         std::to_string(tok.column);
}

Status Unexpected(const Token& tok, std::string_view expected) {
  return InvalidArgumentError(
      "expected " + std::string(expected) + " but found " +
      std::string(TokenKindToString(tok.kind)) +
      (tok.text.empty() ? "" : " '" + tok.text + "'") + At(tok));
}

bool IsKeyword(const Token& tok, std::string_view kw) {
  return tok.kind == TokenKind::kIdent && tok.text == kw;
}

/// Recursive-descent query parser. Predicates must pre-exist; a constant
/// the vocabulary does not know becomes query-local (it never matches a
/// fact), so the shared vocabulary is only read.
class QueryParserImpl {
 public:
  QueryParserImpl(const std::vector<Token>& tokens, const Vocabulary& vocab,
                  Query* query)
      : tokens_(tokens), vocab_(vocab), query_(query) {}

  Result<std::unique_ptr<QueryNode>> ParseDisjunction() {
    CHRONOLOG_ASSIGN_OR_RETURN(auto left, ParseConjunction());
    while (Peek().kind == TokenKind::kPipe || IsKeyword(Peek(), "or")) {
      ++pos_;
      CHRONOLOG_ASSIGN_OR_RETURN(auto right, ParseConjunction());
      auto node = std::make_unique<QueryNode>();
      node->kind = QueryKind::kOr;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  const Token& Peek() const { return tokens_[pos_]; }
  std::size_t pos() const { return pos_; }

 private:
  Result<std::unique_ptr<QueryNode>> ParseConjunction() {
    CHRONOLOG_ASSIGN_OR_RETURN(auto left, ParseUnary());
    while (Peek().kind == TokenKind::kAmp ||
           Peek().kind == TokenKind::kComma || IsKeyword(Peek(), "and")) {
      ++pos_;
      CHRONOLOG_ASSIGN_OR_RETURN(auto right, ParseUnary());
      auto node = std::make_unique<QueryNode>();
      node->kind = QueryKind::kAnd;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  Result<std::unique_ptr<QueryNode>> ParseUnary() {
    const Token& tok = Peek();
    if (tok.kind == TokenKind::kTilde || IsKeyword(tok, "not")) {
      ++pos_;
      CHRONOLOG_ASSIGN_OR_RETURN(auto child, ParseUnary());
      auto node = std::make_unique<QueryNode>();
      node->kind = QueryKind::kNot;
      node->left = std::move(child);
      return node;
    }
    if (IsKeyword(tok, "exists") || IsKeyword(tok, "forall")) {
      QueryKind kind =
          IsKeyword(tok, "exists") ? QueryKind::kExists : QueryKind::kForall;
      ++pos_;
      // One or more comma-separated quantified variables.
      std::vector<VarId> vars;
      while (true) {
        if (Peek().kind != TokenKind::kVar) {
          return Unexpected(Peek(), "quantified variable");
        }
        VarId v = NewVar(Peek().text);
        scopes_.emplace_back(Peek().text, v);
        vars.push_back(v);
        ++pos_;
        if (Peek().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
      if (Peek().kind != TokenKind::kLParen) {
        return Unexpected(Peek(), "'(' after quantifier");
      }
      ++pos_;
      CHRONOLOG_ASSIGN_OR_RETURN(auto child, ParseDisjunction());
      if (Peek().kind != TokenKind::kRParen) {
        return Unexpected(Peek(), "')' closing quantifier scope");
      }
      ++pos_;
      for (std::size_t i = 0; i < vars.size(); ++i) scopes_.pop_back();
      // Innermost variable binds innermost: wrap right-to-left.
      std::unique_ptr<QueryNode> node = std::move(child);
      for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
        auto q = std::make_unique<QueryNode>();
        q->kind = kind;
        q->var = *it;
        q->left = std::move(node);
        node = std::move(q);
      }
      return node;
    }
    if (tok.kind == TokenKind::kLParen) {
      ++pos_;
      CHRONOLOG_ASSIGN_OR_RETURN(auto node, ParseDisjunction());
      if (Peek().kind != TokenKind::kRParen) {
        return Unexpected(Peek(), "')'");
      }
      ++pos_;
      return node;
    }
    // Equality `s = t`: recognised by a term-led token, or an identifier
    // immediately followed by '='.
    if (tok.kind == TokenKind::kVar || tok.kind == TokenKind::kInt ||
        (tok.kind == TokenKind::kIdent &&
         tokens_[pos_ + 1].kind == TokenKind::kEq)) {
      return ParseEquality();
    }
    return ParseAtom();
  }

  Result<std::unique_ptr<QueryNode>> ParseEquality() {
    const Token& where = Peek();
    CHRONOLOG_ASSIGN_OR_RETURN(EqualitySide lhs, ParseEqualitySide());
    if (Peek().kind != TokenKind::kEq) {
      return Unexpected(Peek(), "'=' in equality");
    }
    ++pos_;
    CHRONOLOG_ASSIGN_OR_RETURN(EqualitySide rhs, ParseEqualitySide());
    CHRONOLOG_RETURN_IF_ERROR(ResolveEqualitySorts(&lhs, &rhs, where));
    auto node = std::make_unique<QueryNode>();
    node->kind = QueryKind::kEqual;
    node->eq_lhs = lhs;
    node->eq_rhs = rhs;
    return node;
  }

  /// Parses one side of an equality. A bare variable's sort may still be
  /// open here; ResolveEqualitySorts settles it.
  Result<EqualitySide> ParseEqualitySide() {
    const Token& tok = Peek();
    EqualitySide side;
    switch (tok.kind) {
      case TokenKind::kInt:
        side.temporal = true;
        side.time = TemporalTerm::Ground(static_cast<int64_t>(tok.int_value));
        ++pos_;
        return side;
      case TokenKind::kIdent:
        side.temporal = false;
        side.nt = NtTerm::Constant(ConstantId(tok.text));
        ++pos_;
        return side;
      case TokenKind::kVar: {
        VarId v = LookupVar(tok.text);
        ++pos_;
        int64_t offset = 0;
        if (Peek().kind == TokenKind::kPlus) {
          ++pos_;
          if (Peek().kind != TokenKind::kInt) {
            return Unexpected(Peek(), "integer offset after '+'");
          }
          offset = static_cast<int64_t>(Peek().int_value);
          ++pos_;
        }
        if (offset > 0) {
          CHRONOLOG_RETURN_IF_ERROR(SetSort(v, /*temporal=*/true, tok));
        }
        if (sort_known_[v] && query_->temporal_vars[v]) {
          side.temporal = true;
          side.time = TemporalTerm::Var(v, offset);
        } else if (sort_known_[v]) {
          side.temporal = false;
          side.nt = NtTerm::Variable(v);
        } else {
          // Sort still open; settled by ResolveEqualitySorts.
          side.temporal = false;
          side.nt = NtTerm::Variable(v);
        }
        return side;
      }
      default:
        return Unexpected(tok, "a term in equality");
    }
  }

  Status ResolveEqualitySorts(EqualitySide* lhs, EqualitySide* rhs,
                              const Token& where) {
    auto is_open = [&](const EqualitySide& s) {
      return !s.temporal && s.nt.is_variable() && !sort_known_[s.nt.id];
    };
    auto settle = [&](EqualitySide* open, bool temporal) -> Status {
      VarId v = open->nt.id;
      CHRONOLOG_RETURN_IF_ERROR(SetSort(v, temporal, where));
      if (temporal) {
        open->temporal = true;
        open->time = TemporalTerm::Var(v, 0);
      }
      return Status::Ok();
    };
    bool lhs_open = is_open(*lhs);
    bool rhs_open = is_open(*rhs);
    if (lhs_open && rhs_open) {
      return InvalidArgumentError(
          "cannot infer the sort of equality '" + where.text +
          " = ...': neither side's sort is known; use the variable in an "
          "atom first");
    }
    if (lhs_open) CHRONOLOG_RETURN_IF_ERROR(settle(lhs, rhs->temporal));
    if (rhs_open) CHRONOLOG_RETURN_IF_ERROR(settle(rhs, lhs->temporal));
    if (lhs->temporal != rhs->temporal) {
      return InvalidArgumentError(
          "equality compares a temporal with a non-temporal term (line " +
          std::to_string(where.line) + ")");
    }
    return Status::Ok();
  }

  Result<std::unique_ptr<QueryNode>> ParseAtom() {
    const Token& name = Peek();
    if (name.kind != TokenKind::kIdent) {
      return Unexpected(name, "predicate name");
    }
    PredicateId pred = vocab_.FindPredicate(name.text);
    if (pred == kInvalidPredicate) {
      return NotFoundError("unknown predicate '" + name.text + "'" + At(name));
    }
    const PredicateInfo& info = vocab_.predicate(pred);
    ++pos_;

    auto node = std::make_unique<QueryNode>();
    node->kind = QueryKind::kAtom;
    node->atom.pred = pred;

    uint32_t written = 0;
    if (Peek().kind == TokenKind::kLParen) {
      ++pos_;
      while (true) {
        CHRONOLOG_RETURN_IF_ERROR(
            ParseTerm(info, written, &node->atom, name));
        ++written;
        if (Peek().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
      if (Peek().kind != TokenKind::kRParen) {
        return Unexpected(Peek(), "')'");
      }
      ++pos_;
    }
    if (written != info.written_arity()) {
      return InvalidArgumentError(
          "predicate '" + name.text + "' expects " +
          std::to_string(info.written_arity()) + " arguments, got " +
          std::to_string(written) + At(name));
    }
    return node;
  }

  Status ParseTerm(const PredicateInfo& info, uint32_t position, Atom* atom,
                   const Token& where) {
    const Token& tok = Peek();
    const bool temporal_position = info.is_temporal && position == 0;
    switch (tok.kind) {
      case TokenKind::kInt:
        if (!temporal_position) {
          return InvalidArgumentError(
              "integer in non-temporal argument position of '" + info.name +
              "'" + At(tok));
        }
        atom->time = TemporalTerm::Ground(static_cast<int64_t>(tok.int_value));
        ++pos_;
        return Status::Ok();
      case TokenKind::kIdent:
        if (temporal_position) {
          return InvalidArgumentError(
              "constant in temporal argument position of '" + info.name + "'" +
              At(tok));
        }
        atom->args.push_back(
            NtTerm::Constant(ConstantId(tok.text)));
        ++pos_;
        return Status::Ok();
      case TokenKind::kVar: {
        VarId v = LookupVar(tok.text);
        ++pos_;
        int64_t offset = 0;
        if (Peek().kind == TokenKind::kPlus) {
          ++pos_;
          if (Peek().kind != TokenKind::kInt) {
            return Unexpected(Peek(), "integer offset after '+'");
          }
          offset = static_cast<int64_t>(Peek().int_value);
          ++pos_;
        }
        if (temporal_position || offset > 0) {
          if (!temporal_position) {
            return InvalidArgumentError("temporal term in non-temporal "
                                        "argument position of '" + info.name +
                                        "'" + At(tok));
          }
          CHRONOLOG_RETURN_IF_ERROR(SetSort(v, /*temporal=*/true, tok));
          atom->time = TemporalTerm::Var(v, offset);
        } else {
          CHRONOLOG_RETURN_IF_ERROR(SetSort(v, /*temporal=*/false, tok));
          atom->args.push_back(NtTerm::Variable(v));
        }
        return Status::Ok();
      }
      default:
        return Unexpected(tok, "a term in '" + where.text + "'");
    }
  }

  SymbolId ConstantId(const std::string& name) {
    const SymbolId known = vocab_.FindConstant(name);
    if (known != kInvalidSymbol) return known;
    std::vector<std::string>& local = query_->local_constants;
    auto [it, inserted] = local_ids_.try_emplace(
        name, kFirstLocalConstant + static_cast<SymbolId>(local.size()));
    if (inserted) local.push_back(name);
    return it->second;
  }

  VarId NewVar(const std::string& name) {
    VarId v = static_cast<VarId>(query_->var_names.size());
    query_->var_names.push_back(name);
    query_->temporal_vars.push_back(false);
    sort_known_.push_back(false);
    return v;
  }

  /// Innermost quantifier scope wins; otherwise the variable is free (one
  /// shared VarId per free name).
  VarId LookupVar(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    auto found = free_.find(name);
    if (found != free_.end()) return found->second;
    VarId v = NewVar(name);
    free_.emplace(name, v);
    query_->free_vars.push_back(v);
    return v;
  }

  Status SetSort(VarId v, bool temporal, const Token& tok) {
    if (!sort_known_[v]) {
      sort_known_[v] = true;
      query_->temporal_vars[v] = temporal;
      return Status::Ok();
    }
    if (query_->temporal_vars[v] != temporal) {
      return InvalidArgumentError(
          "variable '" + query_->var_names[v] +
          "' is used both as a temporal and as a non-temporal term" + At(tok));
    }
    return Status::Ok();
  }

  const std::vector<Token>& tokens_;
  const Vocabulary& vocab_;
  Query* query_;
  std::size_t pos_ = 0;
  std::vector<std::pair<std::string, VarId>> scopes_;
  std::unordered_map<std::string, VarId> free_;
  std::unordered_map<std::string, SymbolId> local_ids_;
  std::vector<bool> sort_known_;
};

}  // namespace

Result<Query> ParseQuery(std::string_view source, const Vocabulary& vocab) {
  CHRONOLOG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Query query;
  QueryParserImpl impl(tokens, vocab, &query);
  CHRONOLOG_ASSIGN_OR_RETURN(query.root, impl.ParseDisjunction());
  const Token& end = impl.Peek();
  if (end.kind != TokenKind::kEof && end.kind != TokenKind::kDot) {
    return Unexpected(end, "end of query");
  }
  return query;
}

Result<GroundAtom> ParseGroundAtom(std::string_view source,
                                   const Vocabulary& vocab,
                                   std::vector<std::string>* local_constants) {
  CHRONOLOG_ASSIGN_OR_RETURN(Query query, ParseQuery(source, vocab));
  if (query.root->kind != QueryKind::kAtom || !query.free_vars.empty()) {
    return InvalidArgumentError("expected a ground atom, got a general query: " +
                                std::string(source));
  }
  const Atom& atom = query.root->atom;
  GroundAtom ground;
  ground.pred = atom.pred;
  if (atom.temporal()) {
    if (!atom.time->ground()) {
      return InvalidArgumentError("expected a ground temporal argument in: " +
                                  std::string(source));
    }
    ground.time = atom.time->offset;
  }
  for (const NtTerm& t : atom.args) {
    if (!t.is_constant()) {
      return InvalidArgumentError("expected constants only in: " +
                                  std::string(source));
    }
    ground.args.push_back(t.id);
  }
  if (local_constants != nullptr) {
    *local_constants = std::move(query.local_constants);
  }
  return ground;
}

}  // namespace chronolog
