#include "storage/state.h"

#include <algorithm>

namespace chronolog {

State State::FromInterpretation(const Interpretation& interp, int64_t t) {
  State state;
  const Vocabulary& vocab = interp.vocab();
  for (PredicateId pred : vocab.AllPredicates()) {
    if (!vocab.predicate(pred).is_temporal) continue;
    const Relation& rel = interp.Snapshot(pred, t);
    for (uint32_t row = 0; row < rel.size(); ++row) {
      state.facts_.emplace_back(pred, rel.Row(row));
    }
  }
  std::sort(state.facts_.begin(), state.facts_.end());
  return state;
}

std::size_t State::Hash() const {
  std::size_t hash = facts_.size();
  for (const auto& [pred, tuple] : facts_) hash += FactHash(pred, tuple);
  return hash;
}

std::vector<State> ExtractStates(const Interpretation& interp, int64_t from,
                                 int64_t to) {
  std::vector<State> states;
  states.reserve(static_cast<std::size_t>(std::max<int64_t>(0, to - from + 1)));
  for (int64_t t = from; t <= to; ++t) {
    states.push_back(State::FromInterpretation(interp, t));
  }
  return states;
}

}  // namespace chronolog
