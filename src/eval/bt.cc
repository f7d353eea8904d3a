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

  // m = max(c, h) + range(Z ∧ D), as in the proof of Theorem 4.1. A wrapped
  // bound would truncate the query's own timestep away.
  int64_t m = 0;
  if (options.horizon.has_value()) {
    m = *options.horizon;
  } else if (__builtin_add_overflow(std::max(c, h), *options.range, &m)) {
    return OutOfRangeError("BT bound max(c, h) + range = " +
                           std::to_string(std::max(c, h)) + " + " +
                           std::to_string(*options.range) +
                           " does not fit int64_t");
  }

  FixpointOptions fp;
  static_cast<EvalContext&>(fp) = options;
  fp.max_time = m;

  BtResult result{false, m, Interpretation(program.vocab_ptr()), {}};
  CHRONOLOG_ASSIGN_OR_RETURN(result.model,
                             SemiNaiveFixpoint(program, db, fp, &result.stats));
  result.answer = result.model.Contains(query);
  return result;
}

}  // namespace chronolog
