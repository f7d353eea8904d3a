#ifndef CHRONOLOG_STORAGE_INTERPRETATION_H_
#define CHRONOLOG_STORAGE_INTERPRETATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ast/atom.h"
#include "ast/program.h"
#include "ast/vocabulary.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace chronolog {

/// A finite fragment of a Herbrand interpretation of a TDD: for every
/// temporal predicate a snapshot index `time -> relation`, for every
/// non-temporal predicate a columnar relation (the paper's `M_nt`).
///
/// Interpretations are the working store of every evaluator in chronolog:
/// `T_{Z∧D}` maps interpretations to interpretations, algorithm BT iterates
/// truncated interpretations, and the primary database `B` of a relational
/// specification is an interpretation restricted to representative times.
class Interpretation {
 public:
  explicit Interpretation(std::shared_ptr<Vocabulary> vocab);

  const Vocabulary& vocab() const { return *vocab_; }
  const std::shared_ptr<Vocabulary>& vocab_ptr() const { return vocab_; }

  /// Inserts a fact; returns true when it was new. For temporal predicates,
  /// `time` must be >= 0. The span overload copies `args[0..n)` straight
  /// into the columnar store.
  bool Insert(const GroundAtom& fact);
  bool Insert(PredicateId pred, int64_t time, const Tuple& args);
  bool Insert(PredicateId pred, int64_t time, const SymbolId* args,
              std::size_t n);

  /// Inserts like Insert and returns the cell that gained the fact, or null
  /// when it was already present. The semi-naive rounds keep the cell's
  /// watermark through it; the cell stays owned by the interpretation.
  Relation* InsertReturningCell(PredicateId pred, int64_t time,
                                const SymbolId* args, std::size_t n);

  /// Allocates the slots of every predicate the vocabulary knows now, so
  /// no later insert moves a non-temporal relation (callers that hold cell
  /// pointers across inserts call this first).
  void ReservePredicates();

  /// Inserts every fact of `db`.
  void InsertDatabase(const Database& db);

  bool Contains(const GroundAtom& fact) const;
  bool Contains(PredicateId pred, int64_t time, const Tuple& args) const;

  /// Number of stored facts (temporal + non-temporal).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Tuples of a non-temporal predicate, as a columnar relation.
  const Relation& NonTemporal(PredicateId pred) const;

  /// Tuples of a temporal predicate at `time` — one cell of the paper's
  /// snapshot `M(t)`. Returns an empty relation when nothing is stored there.
  const Relation& Snapshot(PredicateId pred, int64_t time) const;

  /// All populated time points of a temporal predicate, ascending.
  const std::map<int64_t, Relation>& Timeline(PredicateId pred) const;

  /// Largest time point carrying any temporal fact; -1 when none.
  int64_t MaxTime() const;

  /// Content hash of the state `M[time]` (the snapshot with the temporal
  /// argument projected out), computed on demand from the cells at `time`:
  /// equals `State::FromInterpretation(*this, time).Hash()` without
  /// materialising the state. Empty snapshots hash to 0. Equal hashes do not
  /// prove equal states — verify collisions with SnapshotEquals. Only the
  /// period detectors call this; nothing is maintained per insert.
  std::size_t SnapshotHash(int64_t time) const;

  /// Exact comparison of the states `M[t1]` and `M[t2]`, in place (no State
  /// materialisation) — the hash-collision verification step of the period
  /// detectors, whose callers have already compared SnapshotHash.
  bool SnapshotEquals(int64_t t1, int64_t t2) const;

  /// Enumerates every stored fact. `fn` receives (pred, time, tuple); `time`
  /// is 0 for non-temporal predicates. The Tuple reference points at a
  /// scratch buffer that is overwritten between calls — callbacks must copy
  /// whatever they keep (all in-tree consumers insert or serialise).
  void ForEach(
      const std::function<void(PredicateId, int64_t, const Tuple&)>& fn) const;

  /// Removes (in place) every temporal fact at time > `m` — the paper's
  /// `L'(0...m) ∪ L'_nt` truncation used by BT.
  void TruncateInPlace(int64_t m);

  /// True when both interpretations contain the same non-temporal facts.
  bool NonTemporalEquals(const Interpretation& other) const;

  /// True when both interpretations coincide on the segment `[0...m]`
  /// (and, with `and_non_temporal`, on the non-temporal part too) — the
  /// termination test of algorithm BT.
  bool SegmentEquals(const Interpretation& other, int64_t m,
                     bool and_non_temporal = true) const;

  friend bool operator==(const Interpretation& a, const Interpretation& b);

 private:
  std::shared_ptr<Vocabulary> vocab_;
  // Indexed by PredicateId. Exactly one of the two slots is meaningful per
  // predicate; both are default-constructed for uniformity.
  std::vector<Relation> non_temporal_;
  std::vector<std::map<int64_t, Relation>> temporal_;
  std::size_t size_ = 0;

  void EnsurePred(PredicateId pred);
};

}  // namespace chronolog

#endif  // CHRONOLOG_STORAGE_INTERPRETATION_H_
