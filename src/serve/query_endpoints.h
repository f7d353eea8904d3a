#ifndef CHRONOLOG_SERVE_QUERY_ENDPOINTS_H_
#define CHRONOLOG_SERVE_QUERY_ENDPOINTS_H_

#include <chrono>
#include <cstdint>

#include "serve/http_server.h"
#include "serve/registry.h"

namespace chronolog {

class MetricsRegistry;

/// Serving-side query budgets and admission control (docs/SERVING.md).
struct QueryServiceOptions {
  /// Queries evaluating concurrently before new ones are refused with 429
  /// (+ the `query.rejected` counter). Admission is checked before any
  /// parsing, so a flood is shed at the price of an atomic increment.
  /// <= 0 disables admission control.
  int max_in_flight = 8;
  /// Per-query wall-clock budget when the request does not send
  /// `deadline_ms`; zero = unlimited by default.
  std::chrono::milliseconds default_timeout{1000};
  /// Upper bound on client-requested `deadline_ms` (clients can lower their
  /// budget below the default, never raise it past this).
  std::chrono::milliseconds max_timeout{10000};
  /// Row cap when the request does not send `max_rows`; 0 = unlimited.
  uint64_t default_max_rows = 1024;
  /// Upper bound on client-requested `max_rows`.
  uint64_t max_rows_cap = 65536;
  /// Serve-level instruments (`query.rejected`, `query.slow`); nullable.
  /// Typically the same registry the HttpServer and the default database
  /// export, so one `/metrics` scrape sees everything.
  MetricsRegistry* metrics = nullptr;
  /// Slow-query threshold (chronolog_qstats): a successful `POST /query`
  /// whose evaluation wall time reaches this many milliseconds emits one
  /// structured `query.slow` warn line (shape, request id, limits, phase
  /// breakdown) and bumps the `query.slow` counter. 0 logs every query
  /// (the ci.sh end-to-end gate runs this way); negative (the default)
  /// disables the log.
  int64_t slow_query_ms = -1;
  /// Per-database statement statistics (GET /statements). On by default;
  /// the bench harness turns it off to measure the store's overhead.
  bool track_statements = true;
};

/// Registers the query protocol on `server`:
///
///   POST /query      {"query": "...", "database": "...", "deadline_ms": N,
///                     "max_rows": N} → JSON answer (docs/SERVING.md).
///                    400 malformed body / unparseable query, 404 unknown
///                    database, 429 over `max_in_flight`.
///   GET /databases   registry contents with per-database spec sizes.
///   GET /analyze     chronolog_flow static analysis of one database
///                    (`?db=NAME`, default "default"): offset bounds,
///                    degrees, A-series diagnostics.
///                    404 unknown database.
///   GET /statements  per-shape statement statistics of one database
///                    (`?db=NAME`, default "default"; `&reset=1` starts a
///                    fresh generation after rendering). 404 unknown
///                    database.
///   POST /explain    {"query": "...", "database": "..."} → the plan that
///                    would answer the query, WITHOUT executing it: the
///                    normalized shape, the rewrite `W` rule and period,
///                    the static-analysis bounds, and per-rule join plans
///                    (order, estimated vs observed steps-per-emit) from
///                    the spec build's plan cache. Same 400/404 mapping as
///                    /query.
///
/// Request ids (chronolog_qstats): a client-supplied `X-Request-Id` (or a
/// generated `q-...` id) is echoed as `request_id` in /query and /explain
/// responses, attached to their log lines, and tags the evaluation's trace
/// spans for `GET /trace?request=ID`.
///
/// `registry` must outlive the server; entries registered after Start() are
/// served as soon as Add returns (Find is the only lookup on the hot path).
void RegisterQueryEndpoints(HttpServer& server,
                            const DatabaseRegistry* registry,
                            QueryServiceOptions options = {});

}  // namespace chronolog

#endif  // CHRONOLOG_SERVE_QUERY_ENDPOINTS_H_
