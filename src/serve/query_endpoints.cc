#include "serve/query_endpoints.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>

#include "analysis/dataflow.h"
#include "ast/printer.h"
#include "query/answers.h"
#include "query/query_eval.h"
#include "query/query_parser.h"
#include "query/query_shape.h"
#include "util/json.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace chronolog {

namespace {

HttpResponse JsonError(int status, const std::string& message,
                       const std::string& extra = "") {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\":\"" + JsonEscape(message) + "\"" + extra + "}\n";
  return response;
}

/// ",\"databases\":[...]" — the known-names hint attached to 404 errors.
std::string KnownDatabasesJson(const DatabaseRegistry* registry) {
  std::string known = ",\"databases\":[";
  bool first = true;
  for (const std::string& name : registry->names()) {
    if (!first) known += ",";
    known += '"';
    known += JsonEscape(name);
    known += '"';
    first = false;
  }
  known += "]";
  return known;
}

/// Value of `key` in a raw query string ("a=1&b=2"); `fallback` when absent.
/// Values are not percent-decoded — database names are plain identifiers.
std::string QueryParam(const std::string& query, std::string_view key,
                       std::string fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return fallback;
}

/// The effective request id (chronolog_qstats): the client's `X-Request-Id`
/// (capped — ids land verbatim in log lines and trace scopes, so an
/// adversarially long header must not balloon them), or a generated
/// `q-<instance>-<seq>` id unique within this process.
std::string EffectiveRequestId(const std::string& client_id) {
  constexpr std::size_t kMaxIdLength = 128;
  if (!client_id.empty()) {
    return client_id.size() <= kMaxIdLength
               ? client_id
               : client_id.substr(0, kMaxIdLength);
  }
  // Random instance prefix so ids from restarted servers don't collide in
  // aggregated logs; the sequence makes them unique within the process.
  static const uint32_t instance = std::random_device{}();
  static std::atomic<uint64_t> sequence{0};
  char buf[40];
  std::snprintf(buf, sizeof(buf), "q-%08x-%llu", instance,
                static_cast<unsigned long long>(
                    sequence.fetch_add(1, std::memory_order_relaxed) + 1));
  return buf;
}

/// ",\"request_id\":\"...\"" — spliced into response documents and 4xx/5xx
/// error objects so a client can correlate failures too.
std::string RequestIdJson(const std::string& request_id) {
  return ",\"request_id\":\"" + JsonEscape(request_id) + "\"";
}

/// The fields POST /query and POST /explain share: the parsed JSON body
/// (kept for endpoint-specific fields), its `query` text and the database
/// it names (default "default"), resolved against the registry.
struct StatementRequest {
  JsonValue body;
  std::string query;
  std::string database = "default";
  const DatabaseRegistry::Entry* entry = nullptr;
};

/// Decodes a statement request body into `*out`. On failure returns the
/// error response: 400 for a malformed body, 404 for an unknown database.
/// Every error body carries `id_json`, so failures correlate too.
std::optional<HttpResponse> DecodeStatementRequest(
    const HttpRequest& request, const DatabaseRegistry* registry,
    const std::string& id_json, StatementRequest* out) {
  Result<JsonValue> body = ParseJson(request.body);
  if (!body.ok()) {
    return JsonError(400, body.status().message(), id_json);
  }
  if (!body->is_object()) {
    return JsonError(400, "request body must be a JSON object", id_json);
  }
  out->body = std::move(body).value();
  const JsonValue* query = out->body.Find("query");
  if (query == nullptr || !query->is_string()) {
    return JsonError(400, "missing string field \"query\"", id_json);
  }
  out->query = query->string_value;
  if (const JsonValue* db = out->body.Find("database"); db != nullptr) {
    if (!db->is_string()) {
      return JsonError(400, "\"database\" must be a string", id_json);
    }
    out->database = db->string_value;
  }
  out->entry = registry->Find(out->database);
  if (out->entry == nullptr) {
    return JsonError(404, "unknown database '" + out->database + "'",
                     KnownDatabasesJson(registry) + id_json);
  }
  return std::nullopt;
}

/// HTTP status for a failed evaluation: client-side errors (a query the
/// engine rejects by design, e.g. equality over a spec) map to 400,
/// engine-side budget exhaustion to 503, anything else is a 500.
int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnimplemented:
      return 400;
    case StatusCode::kResourceExhausted:
      return 503;
    default:
      return 500;
  }
}

}  // namespace

void RegisterQueryEndpoints(HttpServer& server,
                            const DatabaseRegistry* registry,
                            QueryServiceOptions options) {
  // Admission state shared by every request; the handler outlives this
  // function, so the counter lives on the heap behind a shared_ptr.
  auto in_flight = std::make_shared<std::atomic<int>>(0);

  server.HandlePost("/query", [registry, options,
                               in_flight](const HttpRequest& request) {
    const std::string request_id = EffectiveRequestId(request.request_id);
    const std::string id_json = RequestIdJson(request_id);

    // Admission control next: shedding load must stay O(1) even when the
    // pool is saturated with slow queries.
    if (options.max_in_flight > 0) {
      const int occupied =
          in_flight->fetch_add(1, std::memory_order_acq_rel);
      if (occupied >= options.max_in_flight) {
        in_flight->fetch_sub(1, std::memory_order_acq_rel);
        if (options.metrics != nullptr) {
          options.metrics->counter("query.rejected")->Add();
        }
        return JsonError(429, "too many queries in flight",
                         ",\"max_in_flight\":" +
                             std::to_string(options.max_in_flight) + id_json);
      }
    }
    struct Release {
      std::atomic<int>* counter;
      bool armed;
      ~Release() {
        if (armed) counter->fetch_sub(1, std::memory_order_acq_rel);
      }
    } release{in_flight.get(), options.max_in_flight > 0};

    StatementRequest decoded;
    if (std::optional<HttpResponse> error =
            DecodeStatementRequest(request, registry, id_json, &decoded)) {
      return *std::move(error);
    }
    const std::string& database = decoded.database;
    const DatabaseRegistry::Entry* entry = decoded.entry;

    // Per-query limits: the client can tighten the service defaults but
    // never exceed the configured caps.
    std::chrono::milliseconds timeout = options.default_timeout;
    if (const JsonValue* v = decoded.body.Find("deadline_ms"); v != nullptr) {
      if (!v->is_number() || !v->is_integer || v->int_value <= 0) {
        return JsonError(400, "\"deadline_ms\" must be a positive integer",
                         id_json);
      }
      timeout = std::chrono::milliseconds(v->int_value);
    }
    if (options.max_timeout.count() > 0 &&
        (timeout.count() <= 0 || timeout > options.max_timeout)) {
      timeout = options.max_timeout;
    }
    uint64_t max_rows = options.default_max_rows;
    if (const JsonValue* v = decoded.body.Find("max_rows"); v != nullptr) {
      if (!v->is_number() || !v->is_integer || v->int_value < 0) {
        return JsonError(400, "\"max_rows\" must be a non-negative integer",
                         id_json);
      }
      max_rows = static_cast<uint64_t>(v->int_value);
    }
    if (options.max_rows_cap != 0 &&
        (max_rows == 0 || max_rows > options.max_rows_cap)) {
      max_rows = options.max_rows_cap;
    }

    const Vocabulary& vocab = entry->tdd.vocab();
    const auto parse_start = std::chrono::steady_clock::now();
    Result<Query> parsed = ParseQuery(decoded.query, vocab);
    const auto parse_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - parse_start)
            .count();
    if (!parsed.ok()) {
      return JsonError(400, parsed.status().ToString(), id_json);
    }

    QueryEvalOptions eval_options;
    eval_options.metrics = entry->tdd.metrics();
    eval_options.trace = entry->tdd.trace();
    eval_options.request_id = request_id;
    // Saturating: a huge client deadline_ms (e.g. 2^62, legal when no
    // max_timeout cap is configured) must not wrap into the past.
    eval_options.deadline = DeadlineAfter(timeout);
    eval_options.max_rows = max_rows;

    // Snapshot the trace drop counter around the evaluation: an admitted
    // query whose spans fell off the wrapped buffer deserves a warning (the
    // operator asked for `/trace?request=ID` observability and silently got
    // less; `--trace-capacity` is the remedy).
    TraceBuffer* trace = entry->tdd.trace();
    const uint64_t dropped_before = trace != nullptr ? trace->dropped() : 0;

    const auto start = std::chrono::steady_clock::now();
    Result<QueryAnswer> answer =
        EvaluateQueryOverSpec(parsed.value(), *entry->spec, eval_options);
    if (!answer.ok()) {
      return JsonError(StatusToHttp(answer.status()),
                       answer.status().ToString(), id_json);
    }
    const double eval_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();

    if (trace != nullptr) {
      const uint64_t dropped_after = trace->dropped();
      if (dropped_after > dropped_before) {
        // A saturated buffer drops spans on every query from then on, so
        // warning per request would put a stderr write on the hot path.
        // Warn on the first drop, then only when the total has doubled
        // since the last warn; the running total keeps the line useful.
        uint64_t warned =
            entry->trace_drop_warned.load(std::memory_order_relaxed);
        while (warned == 0 || dropped_after >= 2 * warned) {
          if (entry->trace_drop_warned.compare_exchange_weak(
                  warned, dropped_after, std::memory_order_relaxed)) {
            LogWarn("trace.dropped")
                .Str("request_id", request_id)
                .Str("database", database)
                .Uint("dropped", dropped_after - dropped_before)
                .Uint("dropped_total", dropped_after)
                .Uint("capacity", trace->capacity());
            break;
          }
        }
      }
    }

    const bool slow = options.slow_query_ms >= 0 &&
                      eval_ms >= static_cast<double>(options.slow_query_ms);
    if (options.track_statements || slow) {
      const std::string shape = NormalizeQueryShape(decoded.query);
      if (options.track_statements) {
        entry->statements->GetOrCreate(shape)->Record(
            answer->rows.size(), answer->partial, answer->truncated,
            answer->oracle_lookups, answer->rewrite_steps,
            static_cast<uint64_t>(parse_ns),
            static_cast<uint64_t>(eval_ms * 1e6));
      }
      if (slow) {
        if (options.metrics != nullptr) {
          options.metrics->counter("query.slow")->Add();
        }
        // One line per slow query: shape (not the raw text — constants can
        // be sensitive, and the shape is the aggregation key anyway),
        // request id, the limits it ran under, and the phase breakdown.
        LogWarn("query.slow")
            .Str("request_id", request_id)
            .Str("database", database)
            .Str("shape", shape)
            .Num("parse_ms", static_cast<double>(parse_ns) / 1e6)
            .Num("eval_ms", eval_ms)
            .Uint("oracle_lookups", answer->oracle_lookups)
            .Uint("rewrite_steps", answer->rewrite_steps)
            .Uint("rows", answer->rows.size())
            .Bool("partial", answer->partial)
            .Bool("truncated", answer->truncated)
            .Int("deadline_ms", timeout.count())
            .Uint("max_rows", max_rows);
      }
    }

    HttpResponse response;
    response.content_type = "application/json";
    // Splice the request context into the answer document (the renderer
    // emits a complete object; drop its opening brace).
    std::string answer_json = QueryAnswerToJson(*answer, vocab);
    // FormatDouble, not std::to_string: the latter honors LC_NUMERIC, and a
    // comma decimal separator (e.g. under de_DE) breaks the JSON document.
    response.body = "{\"database\":\"" + JsonEscape(database) + "\"" +
                    id_json + ",\"eval_ms\":" + FormatDouble(eval_ms) + "," +
                    answer_json.substr(1) + "\n";
    return response;
  });

  server.Handle("/databases", [registry](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    std::string body = "{\"databases\":[";
    bool first = true;
    for (const std::string& name : registry->names()) {
      const DatabaseRegistry::Entry* entry = registry->Find(name);
      if (entry == nullptr) continue;
      if (!first) body += ",";
      first = false;
      body += "{\"name\":\"" + JsonEscape(name) + "\"";
      body += ",\"facts\":" + std::to_string(entry->spec->SizeInFacts());
      body += ",\"representatives\":" +
              std::to_string(entry->spec->num_representatives());
      body += ",\"period_b\":" + std::to_string(entry->spec->period().b);
      body += ",\"period_p\":" + std::to_string(entry->spec->period().p);
      body += ",\"rewrite_lhs\":" +
              std::to_string(entry->spec->rewrite_lhs()) + "}";
    }
    body += "]}\n";
    response.body = std::move(body);
    return response;
  });

  server.Handle("/analyze", [registry](const HttpRequest& request) {
    const std::string database = QueryParam(request.query, "db", "default");
    const DatabaseRegistry::Entry* entry = registry->Find(database);
    if (entry == nullptr) {
      return JsonError(404, "unknown database '" + database + "'",
                       KnownDatabasesJson(registry));
    }
    // AnalyzeProgram is purely static (no model construction), cheap enough
    // to recompute per request; going through the const registry entry
    // keeps the handler free of shared mutable state.
    const FlowAnalysis analysis =
        AnalyzeProgram(entry->tdd.program(), entry->tdd.database());
    HttpResponse response;
    response.content_type = "application/json";
    // Splice the database name into the analysis document (ToJson emits a
    // complete object; drop its opening brace).
    response.body = "{\"database\":\"";
    response.body += JsonEscape(database);
    response.body += "\",";
    response.body += analysis.ToJson(entry->tdd.program()).substr(1);
    response.body += "\n";
    return response;
  });

  server.Handle("/statements", [registry](const HttpRequest& request) {
    const std::string database = QueryParam(request.query, "db", "default");
    const DatabaseRegistry::Entry* entry = registry->Find(database);
    if (entry == nullptr) {
      return JsonError(404, "unknown database '" + database + "'",
                       KnownDatabasesJson(registry));
    }
    StatementStats* stats = entry->statements.get();
    HttpResponse response;
    response.content_type = "application/json";
    // Render first, then reset: `?reset=1` returns the statistics it wiped,
    // so a scrape-and-reset loop never loses a window.
    response.body = "{\"database\":\"" + JsonEscape(database) + "\"," +
                    stats->ToJson().substr(1) + "\n";
    if (QueryParam(request.query, "reset", "0") == "1") stats->Reset();
    return response;
  });

  server.HandlePost("/explain", [registry](const HttpRequest& request) {
    const std::string request_id = EffectiveRequestId(request.request_id);
    const std::string id_json = RequestIdJson(request_id);
    StatementRequest decoded;
    if (std::optional<HttpResponse> error =
            DecodeStatementRequest(request, registry, id_json, &decoded)) {
      return *std::move(error);
    }
    const std::string& database = decoded.database;
    const DatabaseRegistry::Entry* entry = decoded.entry;
    const Vocabulary& vocab = entry->tdd.vocab();
    // Parse to validate (same 400 contract as /query) — but never evaluate:
    // EXPLAIN answers from compiled artefacts only.
    Result<Query> parsed = ParseQuery(decoded.query, vocab);
    if (!parsed.ok()) {
      return JsonError(400, parsed.status().ToString(), id_json);
    }

    const RelationalSpecification* spec = entry->spec;
    const FlowAnalysis analysis =
        AnalyzeProgram(entry->tdd.program(), entry->tdd.database());

    HttpResponse response;
    response.content_type = "application/json";
    std::string out = "{\"database\":\"" + JsonEscape(database) + "\"";
    out += id_json;
    out += ",\"query\":\"" + JsonEscape(decoded.query) + "\"";
    out += ",\"shape\":\"" +
           JsonEscape(NormalizeQueryShape(decoded.query)) + "\"";
    out += ",\"executed\":false";
    // The rewrite rule W that answers any temporal term in this query:
    // lhs -> lhs - p applied to exhaustion (Prop. 3.1).
    out += ",\"rewrite\":{\"lhs\":" + std::to_string(spec->rewrite_lhs()) +
           ",\"rhs\":" + std::to_string(spec->rewrite_lhs() -
                                        spec->period().p) +
           ",\"p\":" + std::to_string(spec->period().p) + "}";
    out += ",\"period\":{\"b\":" + std::to_string(spec->period().b) +
           ",\"p\":" + std::to_string(spec->period().p) +
           ",\"c\":" + std::to_string(spec->c()) + ",\"representatives\":" +
           std::to_string(spec->num_representatives()) + "}";
    out += ",\"analysis\":{\"bounded\":";
    out += analysis.offsets.bounded ? "true" : "false";
    out += ",\"static_horizon\":" +
           std::to_string(analysis.offsets.static_horizon) +
           ",\"period_divisor\":" +
           std::to_string(analysis.offsets.period_divisor) +
           ",\"program_degree\":" +
           std::to_string(analysis.degrees.program_degree) + "}";
    // Join plans the spec build actually executed (exported from the
    // RuleEvaluator plan caches of its last fixpoint) — what a repeated
    // build of this database would run again.
    const RulePlanReport& plans = entry->tdd.spec_info().plans;
    out += ",\"plans\":[";
    const auto& rules = entry->tdd.program().rules();
    bool first_rule = true;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (!first_rule) out += ",";
      first_rule = false;
      out += "{\"rule\":\"" + JsonEscape(RuleToString(rules[i], vocab)) +
             "\",\"slots\":[";
      bool first_slot = true;
      if (i < plans.size()) {
        for (const PlanSlotReport& slot : plans[i]) {
          if (!first_slot) out += ",";
          first_slot = false;
          out += "{\"delta_pos\":" + std::to_string(slot.delta_pos) +
                 ",\"time_bound\":";
          out += slot.time_bound ? "true" : "false";
          out += ",\"order\":[";
          for (std::size_t k = 0; k < slot.order.size(); ++k) {
            if (k > 0) out += ",";
            out += std::to_string(slot.order[k]);
          }
          out += "],\"probe_cols\":[";
          for (std::size_t k = 0; k < slot.probe_cols.size(); ++k) {
            if (k > 0) out += ",";
            out += std::to_string(slot.probe_cols[k]);
          }
          out += "],\"est_steps_per_emit\":" +
                 FormatDouble(slot.est_steps_per_emit) +
                 ",\"observed_steps\":" +
                 std::to_string(slot.observed_steps) +
                 ",\"observed_emits\":" +
                 std::to_string(slot.observed_emits) + "}";
        }
      }
      out += "]}";
    }
    out += "]}\n";
    response.body = std::move(out);
    return response;
  });
}

}  // namespace chronolog
