// chronolog-serve — the query-serving daemon: loads one or more programs
// into a DatabaseRegistry (compiling each relational specification
// eagerly), and serves the query protocol plus the chronolog_obs endpoints
// over HTTP until SIGINT/SIGTERM.
//
// Usage:
//   chronolog-serve [flags] program.tdl
//
// The positional program registers as database "default"; additional
// databases ride along via --db.
//
// Flags:
//   --port=N          listen port (default 0 = kernel-assigned ephemeral
//                     port; the chosen port is printed and optionally
//                     written to --port-file so scripts can scrape without
//                     racing)
//   --port-file=P     write the bound port (decimal, newline) to file P
//   --db=NAME=PATH    register PATH under database NAME (repeatable)
//   --query=Q         run first-order query Q once at startup against the
//                     default database (repeatable) so the query.*
//                     instrument family is populated before the first scrape
//   --workers=N       HTTP worker threads (default 2)
//   --idle-timeout-ms=N       close a kept-alive connection idle for N ms
//                             (default 5000)
//   --max-requests-per-conn=N close a connection after N requests
//                             (default 0 = unlimited)
//   --max-inflight=N  concurrent queries admitted before 429 (default 8;
//                     0 disables admission control)
//   --deadline-ms=N   default per-query wall-clock budget (default 1000)
//   --max-rows=N      default per-query row cap (default 1024)
//   --slow-query-ms=N emit one structured `query.slow` warn line per query
//                     whose evaluation takes >= N ms (0 logs every query;
//                     default -1 = off)
//   --trace-capacity=N trace-buffer events per database (default 65536);
//                     a wrap during an admitted query logs `trace.dropped`
//                     (throttled: first drop, then each doubling of the total)
//   --log-level=L     debug|info|warn|error|off (default: $CHRONOLOG_LOG_LEVEL)
//
// Integer values must be whole decimal ints (an optional leading '-', no
// '+', spaces, exponents or trailing bytes); an unknown flag or a malformed
// or out-of-range value logs `serve.bad_flag` and exits 2.
//
// Endpoints (see docs/SERVING.md and docs/OBSERVABILITY.md):
//   POST /query      JSON query protocol with per-query deadlines/row limits
//   POST /explain    the plan for a query without executing it
//   GET /databases   registry contents
//   GET /statements  per-shape statement statistics (?db=NAME&reset=1)
//   GET /metrics     Prometheus text exposition (version 0.0.4)
//   GET /healthz     JSON liveness probe
//   GET /trace       Chrome trace-event JSON (?request=ID slices one query)
//
// This is the scrape target for the bench/ci.sh serve gate: start with
// --port=0 --port-file, poll the file, scrape + POST, SIGINT, expect exit 0.

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "query/query_eval.h"
#include "query/query_parser.h"
#include "serve/http_server.h"
#include "serve/obs_endpoints.h"
#include "serve/query_endpoints.h"
#include "serve/registry.h"
#include "util/log.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int /*signum*/) { g_stop = 1; }

/// Parses all of `text` as a decimal int; false on an empty value, a
/// non-digit, trailing bytes or overflow (`*out` is then untouched).
bool ParseInt(const std::string& text, int* out) {
  const char* end = text.data() + text.size();
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int workers = 2;
  int idle_timeout_ms = 5000;
  int max_requests_per_conn = 0;
  int max_inflight = 8;
  int deadline_ms = 1000;
  int max_rows = 1024;
  int slow_query_ms = -1;
  int trace_capacity = 1 << 16;
  std::string port_file;
  std::string program_path;
  std::vector<std::string> queries;
  std::vector<std::pair<std::string, std::string>> extra_dbs;  // name, path
  const std::pair<const char*, int*> int_flags[] = {
      {"--port=", &port},
      {"--workers=", &workers},
      {"--idle-timeout-ms=", &idle_timeout_ms},
      {"--max-requests-per-conn=", &max_requests_per_conn},
      {"--max-inflight=", &max_inflight},
      {"--deadline-ms=", &deadline_ms},
      {"--max-rows=", &max_rows},
      {"--slow-query-ms=", &slow_query_ms},
      {"--trace-capacity=", &trace_capacity},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool int_flag = false;
    for (const auto& [prefix, value] : int_flags) {
      if (arg.rfind(prefix, 0) != 0) continue;
      if (!ParseInt(arg.substr(std::string_view(prefix).size()), value)) {
        chronolog::LogError("serve.bad_flag").Str("flag", arg);
        return 2;
      }
      int_flag = true;
      break;
    }
    if (int_flag) continue;
    if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(12);
      continue;
    }
    if (arg.rfind("--query=", 0) == 0) {
      queries.push_back(arg.substr(8));
      continue;
    }
    if (arg.rfind("--db=", 0) == 0) {
      const std::string spec = arg.substr(5);
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        chronolog::LogError("serve.bad_flag").Str("flag", arg);
        return 2;
      }
      extra_dbs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      continue;
    }
    if (arg.rfind("--log-level=", 0) == 0) {
      auto level = chronolog::ParseLogLevel(arg.substr(12));
      if (!level.has_value()) {
        chronolog::LogError("serve.bad_flag").Str("flag", arg);
        return 2;
      }
      chronolog::SetGlobalLogLevel(*level);
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      chronolog::LogError("serve.bad_flag").Str("flag", arg);
      return 2;
    }
    program_path = arg;
  }
  if (program_path.empty()) {
    std::fprintf(stderr, "usage: chronolog-serve [flags] program.tdl\n");
    return 2;
  }

  chronolog::EngineOptions options;
  options.collect_metrics = true;
  if (trace_capacity > 0) {
    options.trace_capacity = static_cast<std::size_t>(trace_capacity);
  }

  chronolog::DatabaseRegistry registry;
  // Registration compiles each specification eagerly, so the fixpoint.* /
  // spec.* instruments are populated before the first scrape and the
  // serving hot path never builds state.
  auto added = registry.AddFromFile("default", program_path, options);
  if (!added.ok()) {
    chronolog::LogError("serve.load_failed")
        .Str("path", program_path)
        .Str("status", added.ToString());
    return 1;
  }
  for (const auto& [name, path] : extra_dbs) {
    auto status = registry.AddFromFile(name, path, options);
    if (!status.ok()) {
      chronolog::LogError("serve.load_failed")
          .Str("db", name)
          .Str("path", path)
          .Str("status", status.ToString());
      return 1;
    }
  }

  const chronolog::DatabaseRegistry::Entry* default_db =
      registry.Find("default");
  for (const std::string& q : queries) {
    // Warm-ups go through the same const serving path as POST /query
    // (unbounded: they are operator-issued, not client traffic).
    auto parsed = chronolog::ParseQuery(q, default_db->tdd.vocab());
    if (!parsed.ok()) {
      chronolog::LogError("serve.query_failed")
          .Str("query", q)
          .Str("status", parsed.status().ToString());
      return 1;
    }
    chronolog::QueryEvalOptions eval_options;
    eval_options.metrics = default_db->tdd.metrics();
    eval_options.trace = default_db->tdd.trace();
    auto answer = chronolog::EvaluateQueryOverSpec(
        parsed.value(), *default_db->spec, eval_options);
    if (!answer.ok()) {
      chronolog::LogError("serve.query_failed")
          .Str("query", q)
          .Str("status", answer.status().ToString());
      return 1;
    }
  }

  chronolog::HttpServerOptions server_options;
  server_options.port = port;
  server_options.num_workers = workers;
  server_options.idle_timeout_ms = idle_timeout_ms;
  server_options.max_requests_per_connection = max_requests_per_conn;
  // The default database's registry doubles as the serve-level sink, so one
  // /metrics scrape carries query.*, serve.responses_* and query.rejected.
  server_options.metrics = default_db->tdd.metrics();
  chronolog::HttpServer server(server_options);
  chronolog::RegisterObservabilityEndpoints(server, default_db->tdd.metrics(),
                                            default_db->tdd.trace(),
                                            "chronolog-serve");
  chronolog::QueryServiceOptions query_options;
  query_options.max_in_flight = max_inflight;
  query_options.default_timeout = std::chrono::milliseconds(deadline_ms);
  query_options.default_max_rows =
      max_rows < 0 ? 0 : static_cast<uint64_t>(max_rows);
  query_options.metrics = default_db->tdd.metrics();
  query_options.slow_query_ms = slow_query_ms;
  chronolog::RegisterQueryEndpoints(server, &registry, query_options);

  auto started = server.Start();
  if (!started.ok()) {
    chronolog::LogError("serve.start_failed")
        .Str("status", started.ToString());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      chronolog::LogError("serve.port_file_failed").Str("path", port_file);
      server.Stop();
      return 1;
    }
    out << server.port() << "\n";
  }
  std::printf("chronolog-serve: listening on 127.0.0.1:%d (%zu database(s))\n",
              server.port(), registry.size());
  std::printf("  POST /query /explain  GET /databases /statements /metrics "
              "/healthz /trace — Ctrl-C to stop\n");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  std::printf("chronolog-serve: stopped after %llu response(s)\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}
