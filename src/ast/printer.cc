#include "ast/printer.h"

namespace chronolog {

std::string TemporalTermToString(const TemporalTerm& term,
                                 const std::vector<std::string>& var_names) {
  if (term.ground()) return std::to_string(term.offset);
  std::string out = var_names[term.var];
  if (term.offset > 0) {
    out += "+";
    out += std::to_string(term.offset);
  }
  return out;
}

std::string AtomToString(const Atom& atom, const Vocabulary& vocab,
                         const std::vector<std::string>& var_names) {
  const PredicateInfo& info = vocab.predicate(atom.pred);
  std::string out = info.name;
  if (info.written_arity() == 0) return out;
  out += "(";
  bool first = true;
  if (atom.temporal()) {
    out += TemporalTermToString(*atom.time, var_names);
    first = false;
  }
  for (const NtTerm& t : atom.args) {
    if (!first) out += ", ";
    first = false;
    if (t.is_constant()) {
      out += vocab.ConstantName(t.id);
    } else {
      out += var_names[t.id];
    }
  }
  out += ")";
  return out;
}

std::string GroundAtomToString(
    const GroundAtom& atom, const Vocabulary& vocab,
    const std::vector<std::string>& local_constants) {
  const PredicateInfo& info = vocab.predicate(atom.pred);
  std::string out = info.name;
  if (info.written_arity() == 0) return out;
  out += "(";
  bool first = true;
  if (info.is_temporal) {
    out += std::to_string(atom.time);
    first = false;
  }
  for (SymbolId c : atom.args) {
    if (!first) out += ", ";
    first = false;
    out += vocab.ConstantName(c, local_constants);
  }
  out += ")";
  return out;
}

std::string RuleToString(const Rule& rule, const Vocabulary& vocab) {
  std::string out = AtomToString(rule.head, vocab, rule.var_names);
  if (!rule.body.empty()) {
    out += " :- ";
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out += ", ";
      out += AtomToString(rule.body[i], vocab, rule.var_names);
    }
  }
  out += ".";
  return out;
}

std::string ProgramToString(const Program& program) {
  std::string out;
  for (const Rule& r : program.rules()) {
    out += RuleToString(r, program.vocab());
    out += "\n";
  }
  return out;
}

std::string DatabaseToString(const Database& database) {
  std::string out;
  for (const GroundAtom& f : database.facts()) {
    out += GroundAtomToString(f, database.vocab());
    out += ".\n";
  }
  return out;
}

}  // namespace chronolog
