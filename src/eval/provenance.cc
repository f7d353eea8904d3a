#include "eval/provenance.h"

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
  Interpretation full(program.vocab_ptr());
  Interpretation delta(program.vocab_ptr());

  for (const GroundAtom& f : db.facts()) {
    if (vocab.predicate(f.pred).is_temporal && f.time > options.max_time) {
      continue;
    }
    if (full.Insert(f)) {
      delta.Insert(f);
      forest.Add(ProofNode{f, -1, {}});
    }
  }

  std::vector<RuleEvaluator> evaluators;
  evaluators.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    evaluators.emplace_back(rule, vocab, options.use_index, options.metrics);
  }

  std::vector<GroundAtom> body;  // premises of each emitted instantiation
  while (!delta.empty()) {
    if (stats != nullptr) ++stats->iterations;
    Interpretation next_delta(program.vocab_ptr());
    std::vector<ProofNode> pending;
    bool overflow = false;
    for (std::size_t ri = 0; ri < program.rules().size(); ++ri) {
      const Rule& rule = program.rules()[ri];
      for (int pos = 0; pos < static_cast<int>(rule.body.size()); ++pos) {
        evaluators[ri].Evaluate(
            full, &delta, pos, std::nullopt, stats,
            [&](GroundAtom&& head) {
              if (vocab.predicate(head.pred).is_temporal &&
                  head.time > options.max_time) {
                return;
              }
              if (full.Contains(head) || next_delta.Contains(head)) return;
              ProofNode node;
              node.rule_index = static_cast<int>(ri);
              node.premises.reserve(body.size());
              for (const GroundAtom& premise : body) {
                // Premises were matched against `full` or `delta`; both
                // are subsets of the forest, so the lookup always succeeds.
                std::size_t id = forest.Find(premise);
                if (id == ProofForest::kNotFound) return;
                node.premises.push_back(id);
              }
              next_delta.Insert(head);
              node.fact = std::move(head);
              pending.push_back(std::move(node));
              if (full.size() + pending.size() > options.max_facts) {
                overflow = true;
              }
            },
            &body);
        if (overflow) {
          return ResourceExhaustedError(
              "provenance fixpoint exceeded max_facts = " +
              std::to_string(options.max_facts));
        }
      }
    }
    for (ProofNode& node : pending) {
      GroundAtom fact = node.fact;
      if (forest.Add(std::move(node))) full.Insert(std::move(fact));
    }
    delta = std::move(next_delta);
  }
  return forest;
}

}  // namespace chronolog
