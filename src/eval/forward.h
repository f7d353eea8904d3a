#ifndef CHRONOLOG_EVAL_FORWARD_H_
#define CHRONOLOG_EVAL_FORWARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/program.h"
#include "eval/rule_eval.h"
#include "storage/interpretation.h"
#include "storage/state.h"
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
struct ProgressivityReport {
  bool progressive = true;
  std::string reason;  // first violated condition, for diagnostics
};

ProgressivityReport CheckProgressive(const Program& program);

/// The fact budget and the sinks come from the EvalContext base.
struct ForwardOptions : EvalContext {
  /// Upper bound on simulated timesteps before giving up with
  /// kResourceExhausted (the period of an arbitrary TDD can be exponential —
  /// Theorem 3.1 — so a guard is mandatory).
  int64_t max_steps = 1'000'000;
};

/// Result of a forward simulation run.
struct ForwardResult {
  /// The least model materialised on `[0...horizon]`.
  Interpretation model;
  /// Minimal period of the least model.
  Period period;
  /// Maximum temporal depth `c` of the database.
  int64_t c = 0;
  /// Last timestep materialised (>= b + c + 2p - 1, enough for a
  /// relational specification). Per-time states are not materialised — the
  /// simulator hashes each new state once and compares snapshots in place;
  /// callers that want explicit states use ExtractStates(model, 0, horizon).
  int64_t horizon = 0;
  EvalStats stats;
};

/// Computes the least model of a *progressive* program timestep by timestep
/// and detects its minimal period exactly: past the database horizon the
/// sequence of state windows evolves deterministically, so the first
/// repeated window marks the entry to the cycle and the exact cycle length.
/// Fails with kFailedPrecondition when the program is not progressive and
/// with kResourceExhausted when no period appears within `max_steps`.
Result<ForwardResult> ForwardSimulate(const Program& program,
                                      const Database& db,
                                      const ForwardOptions& options = {});

}  // namespace chronolog

#endif  // CHRONOLOG_EVAL_FORWARD_H_
