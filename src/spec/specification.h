#ifndef CHRONOLOG_SPEC_SPECIFICATION_H_
#define CHRONOLOG_SPEC_SPECIFICATION_H_

#include <cstdint>
#include <string>

#include "ast/program.h"
#include "spec/period.h"
#include "spec/primary_database.h"
#include "storage/interpretation.h"
#include "util/result.h"

namespace chronolog {

/// A relational specification `S_{Z∧D} = (T, B, W)` of the (possibly
/// infinite) least model `M_{Z∧D}` (Section 3.3):
///
///  * `T` — the representative ground temporal terms `0, 1, ..., b+c+p-1`;
///  * `B` — the primary database: the least model restricted to the
///    representative terms, plus its non-temporal part;
///  * `W` — for TDDs a single ground rewrite rule `b+c+p -> b+c`, applied to
///    exhaustion to canonicalise any ground temporal term.
///
/// Every temporal query is invariant w.r.t. relational specifications
/// (Proposition 3.1), so evaluation over `B` with rewriting by `W` answers
/// queries against the infinite least model.
///
/// `B` is frozen on construction (spec/primary_database.h): the
/// Interpretation is consumed into a read-only sorted layout, and the
/// sorted constant domain of `B` is computed once, so no query walks `B`.
class RelationalSpecification {
 public:
  /// `primary` is the least model on at least the representative segment
  /// `[0, b+c+p-1]`; facts at later times are dropped while freezing.
  RelationalSpecification(Period period, int64_t c, Interpretation primary)
      : period_(period),
        c_(c),
        primary_(std::move(primary), period.b + c + period.p - 1) {}

  const Period& period() const { return period_; }
  int64_t c() const { return c_; }

  /// Left-hand side of the single rewrite rule in `W` (`b+c+p`); its
  /// right-hand side is `lhs - p`.
  int64_t rewrite_lhs() const { return period_.b + c_ + period_.p; }

  /// Number of representative terms `|T| = b + c + p`.
  int64_t num_representatives() const {
    return period_.b + c_ + period_.p;
  }

  /// True when `t` is a representative term (already canonical).
  bool IsRepresentative(int64_t t) const {
    return t >= 0 && t < num_representatives();
  }

  /// Canonical form of the ground temporal term `t` under `W`: rewriting
  /// `b+c+p -> b+c` to exhaustion folds `t` into the representative
  /// `b + c + ((t - b - c) mod p)` when `t >= b+c+p`.
  int64_t Canonicalize(int64_t t) const {
    const int64_t base = period_.b + c_;
    if (t < base + period_.p) return t;
    return base + (t - base) % period_.p;
  }

  /// The primary database `B` (facts at representative times plus the
  /// non-temporal part).
  const PrimaryDatabase& primary() const { return primary_; }

  /// Yes-no query for an arbitrary ground atom: canonicalise, then look up
  /// in `B` (two binary searches, nothing copied). Decides
  /// `M_{Z∧D} |= atom` in time independent of the temporal depth of the
  /// atom.
  bool Ask(const GroundAtom& atom) const {
    int64_t time = atom.time;
    if (primary_.IsTemporal(atom.pred)) {
      if (time < 0) return false;
      time = Canonicalize(time);
    }
    return primary_.Contains(atom.pred, time, atom.args.data(),
                             atom.args.size());
  }

  /// Total number of facts in `B` (the specification's size measure; its
  /// term component is `|T| = b+c+p` and `W` is constant-sized).
  std::size_t SizeInFacts() const { return primary_.size(); }

  /// Human-readable rendering of `(T, B, W)` for diagnostics and the REPL.
  std::string ToString() const;

 private:
  Period period_;
  int64_t c_;
  PrimaryDatabase primary_;
};

/// Builds the relational specification of `M_{Z∧D}`: detects the minimal
/// period and truncates the materialised least model to the representative
/// segment (the procedure of the paper's reference [6], specialised to
/// TDDs).
struct SpecificationBuildInfo {
  bool exact_period = true;
  EvalStats stats;
  int64_t detection_horizon = 0;
  /// Join plans executed by the detection run that produced the spec
  /// (indexed like Program::rules(); empty when the caller routed
  /// PeriodDetectionOptions::plan_report elsewhere). Consumed by EXPLAIN.
  RulePlanReport plans;
};

Result<RelationalSpecification> BuildSpecification(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options = {},
    SpecificationBuildInfo* info = nullptr);

}  // namespace chronolog

#endif  // CHRONOLOG_SPEC_SPECIFICATION_H_
