#include "eval/provenance.h"

#include <cassert>

#include "ast/printer.h"

namespace chronolog {

std::size_t ProofForest::Find(const GroundAtom& fact) const {
  auto it = index_.find(fact);
  return it == index_.end() ? kNotFound : it->second;
}

bool ProofForest::Add(ProofNode node) {
  auto [it, inserted] = index_.try_emplace(node.fact, nodes_.size());
  if (!inserted) return false;
  nodes_.push_back(std::move(node));
  return true;
}

Result<std::string> ProofForest::Explain(const GroundAtom& fact,
                                         const Program& program,
                                         int max_depth) const {
  std::size_t root = Find(fact);
  if (root == kNotFound) {
    return NotFoundError("no proof: " + GroundAtomToString(fact, *vocab_) +
                         " is not in the least model");
  }
  std::string out;
  // Premises always have smaller ids, so recursion is well-founded.
  std::function<void(std::size_t, int)> render = [&](std::size_t id,
                                                     int depth) {
    const ProofNode& node = nodes_[id];
    std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
    out += indent + (depth == 0 ? "" : "- ") +
           GroundAtomToString(node.fact, *vocab_);
    if (node.rule_index < 0) {
      out += "   [database]\n";
      return;
    }
    out += "\n";
    if (depth >= max_depth) {
      out += indent + "  ...\n";
      return;
    }
    out += indent + "  by rule: " +
           RuleToString(program.rules()[static_cast<std::size_t>(
                            node.rule_index)],
                        program.vocab()) +
           "\n";
    for (std::size_t premise : node.premises) {
      render(premise, depth + 1);
    }
  };
  render(root, 0);
  return out;
}

Result<ProofForest> MaterializeWithProvenance(const Program& program,
                                              const Database& db,
                                              const FixpointOptions& options,
                                              EvalStats* stats) {
  const Vocabulary& vocab = program.vocab();
  ProofForest forest(program.vocab_ptr());
  for (const GroundAtom& f : db.facts()) {
    if (!vocab.predicate(f.pred).is_temporal || f.time <= options.max_time) {
      forest.Add(ProofNode{f, -1, {}});
    }
  }
  // Every premise was matched against the model, whose facts all entered
  // the forest before the fact they now prove: the lookups always succeed
  // and yield smaller ids.
  DerivationHook add_proof = [&](std::size_t rule_index,
                                 const GroundAtom& fact,
                                 const std::vector<GroundAtom>& premises) {
    ProofNode node{fact, static_cast<int>(rule_index), {}};
    node.premises.reserve(premises.size());
    for (const GroundAtom& premise : premises) {
      node.premises.push_back(forest.Find(premise));
      assert(node.premises.back() != ProofForest::kNotFound);
    }
    forest.Add(std::move(node));
  };
  FixpointOptions run = options;
  run.plan_report = nullptr;
  CHRONOLOG_RETURN_IF_ERROR(
      SemiNaiveFixpoint(program, db, run, stats, add_proof).status());
  return forest;
}

}  // namespace chronolog
