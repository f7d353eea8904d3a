#include "analysis/boundedness.h"

#include <algorithm>
#include <string>

#include "eval/fixpoint.h"

namespace chronolog {

namespace {

Status RequireFunctionFree(const Program& program) {
  for (PredicateId p : program.vocab().AllPredicates()) {
    if (program.vocab().predicate(p).is_temporal) {
      return InvalidArgumentError(
          "boundedness analysis requires a function-free program; "
          "predicate '" + program.vocab().predicate(p).name +
          "' is temporal");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<int64_t> FixpointIterations(const Program& program,
                                   const Database& db, uint64_t max_facts) {
  CHRONOLOG_RETURN_IF_ERROR(RequireFunctionFree(program));
  FixpointOptions options;
  options.max_time = 0;
  options.max_facts = max_facts;
  // NaiveFixpoint's last pass only confirms stability; every earlier one
  // changed the interpretation.
  EvalStats stats;
  CHRONOLOG_RETURN_IF_ERROR(
      NaiveFixpoint(program, db, options, &stats).status());
  return static_cast<int64_t>(stats.iterations) - 1;
}

Result<BoundednessProbe> ProbeBoundedness(const Program& program,
                                          int max_chain) {
  CHRONOLOG_RETURN_IF_ERROR(RequireFunctionFree(program));
  const Vocabulary& vocab = program.vocab();
  auto vocab_ptr = program.vocab_ptr();

  BoundednessProbe probe;
  int64_t previous = -1;
  bool grew_at_tail = false;
  for (int n = 2; n <= max_chain; n *= 2) {
    // Canonical chain database: every EDB predicate seeded along
    // c_0 -> c_1 -> ... -> c_{n-1} (unary predicates get every element).
    Database db(vocab_ptr);
    std::vector<SymbolId> chain;
    chain.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      chain.push_back(
          vocab_ptr->InternConstant("$bp" + std::to_string(i)));
    }
    std::vector<PredicateId> derived = program.DerivedPredicates();
    for (PredicateId pred : vocab.AllPredicates()) {
      if (std::find(derived.begin(), derived.end(), pred) != derived.end()) {
        continue;  // only EDB predicates are seeded
      }
      const PredicateInfo& info = vocab.predicate(pred);
      if (info.arity == 0) {
        db.AddFact(GroundAtom(pred, 0, {}));
      } else if (info.arity == 1) {
        for (SymbolId c : chain) db.AddFact(GroundAtom(pred, 0, {c}));
      } else {
        // Chain links in the first two columns; further columns repeat the
        // source (enough to drive transitive-closure-style growth).
        for (int i = 0; i + 1 < n; ++i) {
          Tuple args;
          args.push_back(chain[i]);
          args.push_back(chain[i + 1]);
          for (uint32_t j = 2; j < info.arity; ++j) {
            args.push_back(chain[i]);
          }
          db.AddFact(GroundAtom(pred, 0, std::move(args)));
        }
      }
    }
    CHRONOLOG_ASSIGN_OR_RETURN(int64_t iterations,
                               FixpointIterations(program, db));
    grew_at_tail = iterations > probe.max_iterations && previous >= 0;
    previous = iterations;
    probe.max_iterations = std::max(probe.max_iterations, iterations);
  }
  // Growth at the largest probed sizes refutes every small bound.
  probe.refuted = grew_at_tail;
  return probe;
}

}  // namespace chronolog
