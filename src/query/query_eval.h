#ifndef CHRONOLOG_QUERY_QUERY_EVAL_H_
#define CHRONOLOG_QUERY_QUERY_EVAL_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/query_ast.h"
#include "spec/specification.h"
#include "storage/interpretation.h"
#include "util/result.h"

namespace chronolog {

class MetricsRegistry;
class TraceBuffer;

/// Observability sinks for query evaluation (chronolog_obs; both nullable,
/// wired by the engine when `EngineOptions::collect_metrics` is set).
/// Instruments live under the `query.*` family:
///
///   query.evaluations   counter    evaluations started
///   query.latency_ns    histogram  wall time per evaluation
///   query.answers       histogram  rows per open query (0/1 for closed)
///   query.oracle_lookups counter   ground-atom lookups against `B`
///   query.rewrite_steps counter    W-rule applications folded by
///                                  canonicalisation during those lookups
///   query.deadline_exceeded counter  evaluations stopped by `deadline`
///   query.rows_truncated counter     evaluations stopped by `max_rows`
struct QueryEvalOptions {
  MetricsRegistry* metrics = nullptr;
  TraceBuffer* trace = nullptr;
  /// Wall-clock cut-off for this evaluation. The check sits inside the
  /// oracle-lookup loop (amortised: one clock read every 64 lookups), so a
  /// runaway query stops mid-evaluation; the answer then carries
  /// `QueryAnswer::partial` and holds only the rows completed before the
  /// deadline. Unset = unlimited.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Row cap for open queries: enumeration stops once this many satisfying
  /// assignments have been collected and the answer carries
  /// `QueryAnswer::truncated`. 0 = unlimited.
  uint64_t max_rows = 0;
  /// Request id for per-request observability (chronolog_qstats): when set
  /// (and `trace` is non-null), the evaluation runs inside a TraceScope so
  /// its spans can be sliced out of the shared buffer by request id
  /// (`GET /trace?request=ID`). Empty = unscoped.
  std::string request_id;
};

/// Caller-facing limit knobs (the serving layer's per-query budget; see
/// docs/SERVING.md). Converted into `QueryEvalOptions::deadline`/`max_rows`
/// by `TemporalDatabase::Query` and the `POST /query` endpoint.
struct QueryLimits {
  /// Wall-clock budget; zero (the default) = unlimited.
  std::chrono::milliseconds timeout{0};
  /// Row cap for open queries; 0 = unlimited.
  uint64_t max_rows = 0;
};

/// The `QueryEvalOptions::deadline` for a `QueryLimits::timeout` starting
/// now: unset when `timeout` is not positive (unlimited), else
/// `now + timeout` saturated at the clock's maximum. A plain sum overflows
/// once a huge timeout (e.g. 2^62 ms) converts to the clock's nanosecond
/// duration, which would put the deadline in the past.
std::optional<std::chrono::steady_clock::time_point> DeadlineAfter(
    std::chrono::milliseconds timeout);

/// One value of a query answer: a ground temporal term (representative) or a
/// database constant.
struct QueryValue {
  bool temporal = false;
  int64_t time = 0;       // meaningful when temporal
  SymbolId constant = 0;  // meaningful when !temporal

  friend bool operator==(const QueryValue& a, const QueryValue& b) {
    return a.temporal == b.temporal &&
           (a.temporal ? a.time == b.time : a.constant == b.constant);
  }
};

/// Answer to a first-order temporal query.
///
/// For a closed query only `boolean` is meaningful. For an open query each
/// row is a satisfying assignment of the free variables; temporal values are
/// *representative* terms, and together with the specification's rewrite
/// rule (`rewrite_lhs -> rewrite_lhs - rewrite_p`) each row finitely
/// represents the possibly infinitely many original answers (the paper's
/// `even(X)` example: `X = 0` plus `2 -> 0` represents 0, 2, 4, ...).
struct QueryAnswer {
  bool boolean = false;
  std::vector<std::string> free_var_names;
  std::vector<bool> free_var_temporal;
  std::vector<std::vector<QueryValue>> rows;
  /// Rewrite rule accompanying open answers; -1 when answered over a plain
  /// materialised model.
  int64_t rewrite_lhs = -1;
  int64_t rewrite_p = 0;
  /// The deadline fired mid-evaluation: `rows` is a correct prefix of the
  /// full answer set (every collected row satisfies the query) but possibly
  /// incomplete, and for a closed query `boolean` is unreliable (reported
  /// as false).
  bool partial = false;
  /// `max_rows` was reached: `rows` is exact but enumeration stopped, so
  /// further satisfying assignments may exist.
  bool truncated = false;
  /// Per-request cost accounting (chronolog_qstats): ground-atom lookups
  /// against `B` and `W`-rule applications folded by canonicalisation during
  /// this evaluation. Always counted (independent of `metrics`); the
  /// statement-statistics store and the slow-query log read these.
  uint64_t oracle_lookups = 0;
  uint64_t rewrite_steps = 0;
  /// The query's local constants (Query::local_constants), which answer
  /// rows may hold; rendering names them.
  std::vector<std::string> local_constants;

  std::string ToString(const Vocabulary& vocab) const;
};

/// Evaluates a query over a relational specification per Proposition 3.1:
/// temporal quantifiers (and free temporal variables) range over the
/// representative terms `T`, non-temporal ones over the constants of `B`
/// (cached by the specification) plus the query's own constants; atoms are
/// canonicalised by `W` and looked up in `B`; negation is closed-world.
/// Nothing here walks `B`: a ground atom costs one lookup and no
/// allocation, and a query without non-temporal variables builds no
/// constant domain.
Result<QueryAnswer> EvaluateQueryOverSpec(
    const Query& query, const RelationalSpecification& spec,
    const QueryEvalOptions& options = {});

/// Reference evaluator over an explicitly materialised segment of the least
/// model: temporal quantifiers range over `[0...temporal_horizon]`. Used to
/// validate invariance (Proposition 3.1) in tests and benchmarks; for
/// queries whose quantifiers "stabilise" within the horizon this equals the
/// infinite-model semantics.
Result<QueryAnswer> EvaluateQueryOverModel(const Query& query,
                                           const Interpretation& model,
                                           int64_t temporal_horizon);

}  // namespace chronolog

#endif  // CHRONOLOG_QUERY_QUERY_EVAL_H_
