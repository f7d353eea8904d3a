#ifndef CHRONOLOG_SPEC_PRIMARY_DATABASE_H_
#define CHRONOLOG_SPEC_PRIMARY_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "ast/atom.h"
#include "ast/vocabulary.h"
#include "storage/interpretation.h"
#include "storage/tuple.h"

namespace chronolog {

/// The primary database `B` of a relational specification, frozen: a
/// read-only copy of an Interpretation laid out for lookups only.
///
/// Layout, per predicate:
///  * `rows` — one contiguous row-major `SymbolId` array holding every fact
///    of the predicate, sorted by `(time, args)`;
///  * `times`/`begins` — the cell directory: the populated times in
///    ascending order, and the row offset where each time's cell begins
///    (plus an end sentinel). The directory has one entry per populated
///    time, never one per representative term, so a period of `10^12`
///    costs nothing for the empty times.
/// A non-temporal predicate is one cell at time 0.
///
/// `Contains` is two binary searches — the cell by time, then the row in
/// the cell — and copies nothing. The sorted set of constants occurring in
/// `B` is computed once, while freezing.
class PrimaryDatabase {
 public:
  /// Freezes the facts of `model` at times `<= last_time`, plus its
  /// non-temporal facts; `model` is consumed and the later cells are
  /// dropped with it.
  explicit PrimaryDatabase(
      Interpretation model,
      int64_t last_time = std::numeric_limits<int64_t>::max());

  const Vocabulary& vocab() const { return *vocab_; }
  const std::shared_ptr<Vocabulary>& vocab_ptr() const { return vocab_; }

  /// Number of facts (temporal + non-temporal).
  std::size_t size() const { return size_; }

  /// Every constant that occurs in some fact, ascending.
  const std::vector<SymbolId>& constants() const { return constants_; }

  /// True when `pred` is temporal. A predicate added to the vocabulary
  /// after freezing holds no facts and reports false.
  bool IsTemporal(PredicateId pred) const {
    return pred < preds_.size() && preds_[pred].temporal;
  }

  /// Membership of `pred(time, args[0..n))`; `time` is ignored for a
  /// non-temporal predicate.
  bool Contains(PredicateId pred, int64_t time, const SymbolId* args,
                std::size_t n) const;
  bool Contains(const GroundAtom& fact) const {
    return Contains(fact.pred, fact.time, fact.args.data(), fact.args.size());
  }

  /// Number of facts of `pred` at `time` (for a non-temporal predicate:
  /// all of its facts, whatever `time`).
  std::size_t CellSize(PredicateId pred, int64_t time) const;

  /// Calls `fn(time, facts)` for every populated time of `pred`, ascending
  /// (once with time 0 for a non-empty non-temporal predicate).
  template <typename Fn>
  void ForEachCell(PredicateId pred, Fn fn) const {
    if (pred >= preds_.size()) return;
    const Frozen& rel = preds_[pred];
    for (std::size_t i = 0; i < rel.times.size(); ++i) {
      fn(rel.times[i], static_cast<std::size_t>(rel.begins[i + 1] -
                                                rel.begins[i]));
    }
  }

  /// Enumerates every fact: predicates by id, times ascending, rows sorted.
  /// `fn` receives (pred, time, tuple); `time` is 0 for non-temporal
  /// predicates. The Tuple reference points at a scratch buffer that is
  /// overwritten between calls.
  void ForEach(
      const std::function<void(PredicateId, int64_t, const Tuple&)>& fn) const;

 private:
  struct Frozen {
    bool temporal = false;
    uint32_t arity = 0;
    std::vector<int64_t> times;
    /// Row offset of each cell; `begins[times.size()]` is the row count.
    std::vector<uint32_t> begins;
    std::vector<SymbolId> rows;
  };

  /// Index of the cell of `rel` holding `time` (the only cell of a
  /// non-temporal predicate), or kNoCell.
  static constexpr std::size_t kNoCell = ~std::size_t{0};
  static std::size_t FindCell(const Frozen& rel, int64_t time);

  std::shared_ptr<Vocabulary> vocab_;
  std::vector<Frozen> preds_;
  std::vector<SymbolId> constants_;
  std::size_t size_ = 0;
};

}  // namespace chronolog

#endif  // CHRONOLOG_SPEC_PRIMARY_DATABASE_H_
