#include "eval/bt.h"

#include <algorithm>

namespace chronolog {

Result<BtResult> RunBt(const Program& program, const Database& db,
                       const GroundAtom& query, const BtOptions& options) {
  if (options.range.has_value() == options.horizon.has_value()) {
    return FailedPreconditionError(
        "BtOptions: exactly one of `range` and `horizon` must be set "
        "(use the engine or a periodicity analysis to obtain range(Z∧D))");
  }
  if (query.pred >= program.vocab().num_predicates()) {
    return InvalidArgumentError("BT query references an unknown predicate");
  }

  const bool query_temporal =
      program.vocab().predicate(query.pred).is_temporal;
  const int64_t h = query_temporal ? query.time : 0;
  const int64_t c = db.MaxTemporalDepth();

  int64_t m;
  if (options.horizon.has_value()) {
    m = *options.horizon;
  } else {
    // m = max(c, h) + range(Z ∧ D), as in the proof of Theorem 4.1.
    m = std::max(c, h) + *options.range;
  }

  FixpointOptions fp;
  fp.max_time = m;
  fp.max_facts = options.max_facts;
  fp.metrics = options.metrics;
  fp.trace = options.trace;

  BtResult result{false, m, Interpretation(program.vocab_ptr()), {}};
  if (options.semi_naive) {
    CHRONOLOG_ASSIGN_OR_RETURN(
        result.model, SemiNaiveFixpoint(program, db, fp, &result.stats));
  } else {
    CHRONOLOG_ASSIGN_OR_RETURN(
        result.model, NaiveFixpoint(program, db, fp, &result.stats));
  }
  result.answer = result.model.Contains(query);
  return result;
}

}  // namespace chronolog
