#ifndef CHRONOLOG_EVAL_PROVENANCE_H_
#define CHRONOLOG_EVAL_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "eval/fixpoint.h"
#include "storage/interpretation.h"
#include "util/result.h"

namespace chronolog {

/// One step of a ground hyperresolution proof (the object algorithm BT
/// implicitly constructs — see the correctness argument of Theorem 4.1):
/// either a database fact (leaf) or an instance of a rule whose ground
/// premises are earlier nodes.
struct ProofNode {
  GroundAtom fact;
  /// Index into Program::rules(), or -1 for a database fact.
  int rule_index = -1;
  /// Node ids of the ground body atoms (empty for database facts). Always
  /// smaller than this node's own id: proofs are well-founded.
  std::vector<std::size_t> premises;
};

/// The proofs of every fact in a truncated least model, one (first-found)
/// proof per fact.
class ProofForest {
 public:
  explicit ProofForest(std::shared_ptr<Vocabulary> vocab)
      : vocab_(std::move(vocab)) {}

  const std::vector<ProofNode>& nodes() const { return nodes_; }
  const Vocabulary& vocab() const { return *vocab_; }

  /// Node id of `fact`, or npos when the fact is not in the model.
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  std::size_t Find(const GroundAtom& fact) const;

  bool Contains(const GroundAtom& fact) const {
    return Find(fact) != kNotFound;
  }

  /// Registers a fact with its proof; returns false if already present
  /// (keeping the existing, earlier proof).
  bool Add(ProofNode node);

  /// Renders the proof of `fact` as an indented tree:
  ///
  ///   even(4)
  ///     by rule: even(T+2) :- even(T).
  ///     - even(2)
  ///       by rule: even(T+2) :- even(T).
  ///       - even(0)   [database]
  ///
  /// `max_depth` truncates deep proofs ("..." marks the cut).
  Result<std::string> Explain(const GroundAtom& fact, const Program& program,
                              int max_depth = 32) const;

  std::size_t size() const { return nodes_.size(); }

 private:
  std::shared_ptr<Vocabulary> vocab_;
  std::vector<ProofNode> nodes_;
  std::unordered_map<GroundAtom, std::size_t, GroundAtomHash> index_;
};

/// Records one proof per fact of the truncated least model: the database
/// facts within `[0...max_time]` become leaves, then SemiNaiveFixpoint runs
/// with a DerivationHook that adds each derived fact with the first
/// instantiation that produced it. `stats` receives the fixpoint's
/// counters, identical to a plain SemiNaiveFixpoint run. The options'
/// `plan_report` is ignored. Costs memory proportional to the proof
/// premises; use for debugging, auditing and the engine's `Explain`.
Result<ProofForest> MaterializeWithProvenance(const Program& program,
                                              const Database& db,
                                              const FixpointOptions& options,
                                              EvalStats* stats = nullptr);

}  // namespace chronolog

#endif  // CHRONOLOG_EVAL_PROVENANCE_H_
