#ifndef CHRONOLOG_EVAL_FORWARD_H_
#define CHRONOLOG_EVAL_FORWARD_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ast/program.h"
#include "eval/rule_eval.h"
#include "storage/interpretation.h"
#include "storage/state.h"
#include "util/hash.h"
#include "util/result.h"

namespace chronolog {

/// A period `(b, p)` of a least model in the paper's convention
/// (Section 3.2): `M[t] = M[t+p]` for all `t >= b + c`, where `c` is the
/// maximum temporal depth in the database.
struct Period {
  int64_t b = 0;
  int64_t p = 1;

  friend bool operator==(const Period& a, const Period& b) {
    return a.b == b.b && a.p == b.p;
  }
};

/// Options shared by both period detectors (ForwardSimulate and the verified
/// doubling of DetectPeriod). The fact budget and the sinks come from the
/// EvalContext base and are handed unchanged to the underlying fixpoints.
struct PeriodDetectionOptions : EvalContext {
  /// Hard ceiling on the materialised horizon; exceeded => kResourceExhausted
  /// (periods can be exponential in the database size, Theorem 3.1).
  int64_t max_horizon = 1 << 20;
};

/// Outcome of period detection: the minimal period of `M_{Z∧D}` and the
/// least model materialised far enough to build a relational specification.
/// Per-time states are not materialised (detection interns each snapshot
/// to an exact dense id in place, DenseIds); callers that want them use
/// ExtractStates(model, 0, horizon).
struct PeriodDetection {
  Period period;
  int64_t c = 0;        // max temporal depth of the database
  int64_t horizon = 0;  // model materialised on [0...horizon]
  Interpretation model;
  /// True when produced by the exact forward detector (progressive
  /// programs); false when produced by verified doubling, which certifies
  /// the period on a window of at least two extra cycles but is not a proof.
  bool exact = true;
  EvalStats stats;
};

/// Dense ids for the values at positions 0, 1, 2, ... of a sequence — the
/// states `M[t]` of a model, or windows of state ids: two positions get the
/// same id exactly when their values are equal. A flat open-addressing table
/// maps a value's hash to the id of the first position interned with it; a
/// hash hit is confirmed with one exact `equal(first, t)`, so hash collisions
/// cost a compare and never merge distinct values. Positions are interned in
/// increasing order, so ids and their first positions ascend together.
class DenseIds {
 public:
  /// Id of the value at `t`: the id of the first interned position with an
  /// equal value, or the fresh id `size()`. `equal(s, t)` compares the values
  /// at positions `s` and `t` exactly.
  template <typename Equal>
  int64_t Intern(std::size_t hash, int64_t t, const Equal& equal) {
    if (2 * (first_.size() + 1) > slots_.size()) {
      Rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Mix64(hash) & mask;; i = (i + 1) & mask) {
      const int64_t id = slots_[i];
      if (id < 0) {
        slots_[i] = size();
        first_.push_back(t);
        hash_.push_back(hash);
        return slots_[i];
      }
      if (hash_[static_cast<std::size_t>(id)] == hash &&
          equal(first_[static_cast<std::size_t>(id)], t)) {
        return id;
      }
    }
  }

  /// The position that first got `id`.
  int64_t First(int64_t id) const {
    return first_[static_cast<std::size_t>(id)];
  }
  int64_t size() const { return static_cast<int64_t>(first_.size()); }

  /// Drops the ids first seen at or after position `t`, for when the values
  /// there have changed. Ids first seen earlier keep naming their values.
  void ForgetFrom(int64_t t) {
    const std::size_t keep = static_cast<std::size_t>(
        std::lower_bound(first_.begin(), first_.end(), t) - first_.begin());
    if (keep == first_.size()) return;
    first_.resize(keep);
    hash_.resize(keep);
    Rehash(slots_.size());
  }

 private:
  void Rehash(std::size_t capacity) {
    slots_.assign(capacity, -1);
    for (std::size_t id = 0; id < hash_.size(); ++id) {
      std::size_t i = Mix64(hash_[id]) & (capacity - 1);
      while (slots_[i] >= 0) i = (i + 1) & (capacity - 1);
      slots_[i] = static_cast<int64_t>(id);
    }
  }

  std::vector<int64_t> slots_;  // id per slot, -1 when empty; power of two
  std::vector<int64_t> first_;  // first position per id, ascending
  std::vector<std::size_t> hash_;  // value hash per id
};

/// Whether a program is *progressive*: information flows forward in time
/// only, so the least model can be computed timestep by timestep and its
/// minimal period detected exactly (deterministic orbit of state windows).
///
/// A program is progressive when every rule satisfies all of:
///  1. it is semi-normal (at most one temporal variable);
///  2. it contains no ground temporal terms;
///  3. a temporal head `P(T+a, x)` only has temporal body atoms `Q(T+b, y)`
///     with `b <= a`;
///  4. a non-temporal head has a purely non-temporal body.
///
/// Every normal program produced by the paper's constructions (inflationary
/// examples, multi-separable programs, temporalised Datalog) is progressive.
///
/// `reads_future` marks the programs whose truncated model on `[0...m]` can
/// miss facts just below `m` because their support lies past `m`: a rule
/// that is not semi-normal, has a ground head time, or has a non-ground
/// temporal body atom whose offset exceeds its head's.
struct ProgressivityReport {
  bool progressive = true;
  bool reads_future = false;
  std::string reason;  // first violated condition, for diagnostics
};

ProgressivityReport CheckProgressive(const Program& program);

/// Computes the least model of a *progressive* program timestep by timestep
/// and detects its minimal period exactly: past the database horizon the
/// sequence of state windows evolves deterministically, so the first
/// repeated window marks the entry to the cycle and the exact cycle length.
/// Fails with kFailedPrecondition when the program is not progressive and
/// with kResourceExhausted when no period appears within `max_horizon`.
/// The result is always `exact`.
Result<PeriodDetection> ForwardSimulate(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options = {});

}  // namespace chronolog

#endif  // CHRONOLOG_EVAL_FORWARD_H_
