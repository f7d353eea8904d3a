// The two serving workloads, `serve_point` and `serve_scan`: a closed loop
// of 2 keep-alive clients, each waiting for its reply, against the 2-worker
// HttpServer of chronolog-serve's defaults (engine threads 1, metrics and
// statement tracking on, 1024-row cap, 1000 ms deadline) holding three
// registered databases:
//   rings = token rings over the first 6 primes (|T| = 30030),
//   ski   = SkiScheduleSource(4, 365, 91, 13),
//   path  = PathProgramSource over a 128-node/256-edge random graph.
// serve_point sends ground yes/no atoms (Prop. 3.1: one canonicalisation
// plus one lookup, so framing, JSON, parse and rendering dominate);
// serve_scan sends open and quantified queries whose evaluation ranges over
// |T| and the active constants (oracle lookups and rendering dominate).
// Every response is checked against an answer computed in-process before
// the run.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "eval/bt.h"
#include "query/answers.h"
#include "query/query_eval.h"
#include "query/query_parser.h"
#include "query/query_shape.h"
#include "serve/http_server.h"
#include "serve/obs_endpoints.h"
#include "serve/query_endpoints.h"
#include "serve/registry.h"
#include "util/json.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr uint64_t kMaxRows = 1024;
constexpr auto kDeadline = std::chrono::milliseconds(1000);
/// Requests of the stream the traced run sends and replays in-process.
constexpr std::ptrdiff_t kReplayed = 252;

struct Request {
  std::string database;
  std::string query;
  std::string body;  // the JSON request document
  std::string http;  // the full HTTP/1.1 request
  /// The response body must end with this: the rendered expected answer
  /// (rows, boolean, rewrite rule, partial/truncated flags).
  std::string expected_suffix;
};

/// Open and quantified queries over the three databases: answers from one
/// row up to the 1024-row cap.
std::vector<std::pair<std::string, std::string>> ScanStream(uint64_t seed,
                                                            std::size_t n) {
  std::mt19937_64 rng(seed * 0x2545F4914F6CDD1DULL + 7);
  auto pick = [&](int n_choices) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n_choices));
  };
  const std::vector<int> primes = FirstPrimes(6);
  auto ring_node = [&](int ring) {
    return "r" + std::to_string(ring) + "_" + std::to_string(pick(primes[ring]));
  };
  auto node = [&] { return "n" + std::to_string(pick(kPathNodes)); };
  auto resort = [&] { return "resort" + std::to_string(pick(4)); };
  std::vector<std::pair<std::string, std::string>> stream;
  stream.reserve(n);
  // Templates (and rings) rotate in a fixed order so every seed sends the
  // same mix; the seed picks the constants.
  for (std::size_t i = 0; i < n; ++i) {
    const int ring = static_cast<int>(i / 9 % 6);
    switch (i % 9) {
      case 0:
        stream.emplace_back("rings", "tok(T, " + ring_node(ring) + ")");
        break;
      case 1: {
        const int a = ring;
        const int b = (a + 1 + pick(5)) % 6;
        stream.emplace_back("rings", "exists T (tok(T, " + ring_node(a) +
                                         ") & tok(T, " + ring_node(b) + "))");
        break;
      }
      case 2:
        stream.emplace_back("rings",
                            "tok(" + std::to_string(rng() % 1000000007) +
                                ", X)");
        break;
      case 3:
        stream.emplace_back("ski", "plane(T, " + resort() + ") & ~winter(T)");
        break;
      case 4:
        stream.emplace_back("ski", "exists T (plane(T, X) & holiday(T))");
        break;
      case 5:
        stream.emplace_back("ski", "plane(T, X) & holiday(T)");
        break;
      case 6:
        stream.emplace_back("path", "path(K, " + node() + ", Y)");
        break;
      case 7:
        stream.emplace_back("path",
                            "exists K (path(K, " + node() + ", " + node() + "))");
        break;
      default:
        stream.emplace_back("path", "path(" + std::to_string(pick(16)) +
                                        ", X, " + node() + ")");
    }
  }
  return stream;
}

/// The served databases behind a started server, wired like chronolog-serve.
struct ServeFixture {
  chronolog::DatabaseRegistry registry;
  std::unique_ptr<chronolog::HttpServer> server;
  double register_s = 0;
};

std::unique_ptr<ServeFixture> StartServer() {
  auto fixture = std::make_unique<ServeFixture>();
  const auto start = Clock::now();
  chronolog::EngineOptions engine;
  engine.collect_metrics = true;
  engine.num_threads = 1;
  const std::pair<const char*, std::string> dbs[] = {
      {"rings", RingsSource(6)}, {"ski", SkiSource()}, {"path", PathSource()}};
  for (const auto& [name, source] : dbs) {
    const chronolog::Status added =
        fixture->registry.AddFromSource(name, source, engine);
    if (!added.ok()) {
      std::fprintf(stderr, "perfbench: register %s: %s\n", name,
                   added.ToString().c_str());
      std::exit(2);
    }
  }
  fixture->register_s = SecondsSince(start);
  // chronolog-serve hangs the serve-level instruments off its first
  // database's registry; `rings` plays that part here.
  chronolog::MetricsRegistry* metrics =
      fixture->registry.Find("rings")->tdd.metrics();
  chronolog::HttpServerOptions server_options;
  server_options.num_workers = kWorkers;
  server_options.metrics = metrics;
  fixture->server = std::make_unique<chronolog::HttpServer>(server_options);
  chronolog::RegisterObservabilityEndpoints(
      *fixture->server, metrics, fixture->registry.Find("rings")->tdd.trace(),
      "chronolog-serve");
  chronolog::QueryServiceOptions query_options;
  query_options.metrics = metrics;
  chronolog::RegisterQueryEndpoints(*fixture->server, &fixture->registry,
                                    query_options);
  const chronolog::Status started = fixture->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server start: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
  return fixture;
}

chronolog::QueryEvalOptions EvalOptions(
    const chronolog::DatabaseRegistry::Entry& entry, std::string request_id) {
  chronolog::QueryEvalOptions options;
  options.metrics = entry.tdd.metrics();
  options.trace = entry.tdd.trace();
  options.request_id = std::move(request_id);
  options.deadline = Clock::now() + kDeadline;
  options.max_rows = kMaxRows;
  return options;
}

/// Builds the requests and their expected answers (outside any timing).
std::vector<Request> BuildRequests(
    const ServeFixture& fixture,
    const std::vector<std::pair<std::string, std::string>>& stream,
    bool point, bool corrupt) {
  std::vector<Request> requests;
  requests.reserve(stream.size());
  for (const auto& [db, query] : stream) {
    Request r;
    r.database = db;
    r.query = query;
    r.body = "{\"query\":\"" + query + "\",\"database\":\"" + db + "\"}";
    r.http = "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
             std::to_string(r.body.size()) + "\r\n\r\n" + r.body;
    const auto* entry = fixture.registry.Find(db);
    chronolog::Result<chronolog::QueryAnswer> answer =
        chronolog::InvalidArgumentError("no oracle");
    if (point) {
      // A ground atom's answer is the spec's Ask: canonicalise, look up.
      auto atom = chronolog::ParseGroundAtom(query, entry->tdd.vocab());
      if (atom.ok()) {
        chronolog::QueryAnswer closed;
        closed.boolean = entry->spec->Ask(*atom);
        closed.rewrite_lhs = entry->spec->rewrite_lhs();
        closed.rewrite_p = entry->spec->period().p;
        answer = closed;
      }
    } else if (auto parsed = chronolog::ParseQuery(query, entry->tdd.vocab());
               parsed.ok()) {
      chronolog::QueryEvalOptions options;
      options.max_rows = kMaxRows;
      answer = chronolog::EvaluateQueryOverSpec(*parsed, *entry->spec, options);
    }
    if (!answer.ok()) {
      std::fprintf(stderr, "perfbench: no expected answer for %s\n",
                   query.c_str());
      std::exit(2);
    }
    r.expected_suffix =
        chronolog::QueryAnswerToJson(*answer, entry->tdd.vocab()).substr(1) +
        "\n";
    requests.push_back(std::move(r));
  }
  if (corrupt && !requests.empty()) {
    requests[0].expected_suffix.insert(0, "\"corrupted\":true,");
  }
  return requests;
}

/// One persistent HTTP/1.1 connection; responses framed by Content-Length.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { Close(); }

  bool Open(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool open() const { return fd_ >= 0; }

  /// Sends `request` and reads one response; `body` views this connection's
  /// buffer and stays valid until the next call.
  bool Exchange(const std::string& request, int* status,
                std::string_view* body) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n =
          ::send(fd_, request.data() + sent, request.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    std::size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    if (buffer_.compare(0, 9, "HTTP/1.1 ") != 0) return false;
    *status = std::atoi(buffer_.c_str() + 9);
    const std::size_t cl = buffer_.find("Content-Length: ");
    if (cl == std::string::npos || cl > header_end) return false;
    const std::size_t length =
        std::strtoull(buffer_.c_str() + cl + 16, nullptr, 10);
    const std::size_t total = header_end + 4 + length;
    while (buffer_.size() < total) {
      if (!Fill()) return false;
    }
    *body = std::string_view(buffer_).substr(header_end + 4, length);
    consumed_ = total;
    return true;
  }

 private:
  bool Fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;
};

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Per-client tallies of one closed-loop run.
struct ClientResult {
  uint64_t sent = 0;
  uint64_t ok200 = 0;
  std::vector<double> latency_us;  // requests completed in the window
  Outcome checks;
};

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

void ClientLoop(int port, const std::vector<Request>* requests,
                std::size_t offset, const std::atomic<int>* phase,
                ClientResult* result, SpanRecorder* spans) {
  Connection conn;
  std::size_t next = offset;
  while (true) {
    const int before = phase->load(std::memory_order_acquire);
    if (before == kStop) break;
    if (!conn.open() && !conn.Open(port)) {
      result->checks.Check("connect failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const Request& r = (*requests)[next % requests->size()];
    const uint32_t index = static_cast<uint32_t>(next % requests->size());
    ++next;
    const int32_t span =
        spans != nullptr && before == kMeasure
            ? spans->Begin("serve.roundtrip", index)
            : -1;
    const auto start = Clock::now();
    int status = 0;
    std::string_view body;
    const bool ok = conn.Exchange(r.http, &status, &body);
    const auto end = Clock::now();
    if (span >= 0) spans->End(span);
    ++result->sent;
    if (!ok) {
      result->checks.Check("connection dropped on " + r.query);
      conn.Close();
      continue;
    }
    if (status == 200) ++result->ok200;
    if (status != 200) {
      result->checks.Check("HTTP " + std::to_string(status) + " on " + r.query);
    } else if (!EndsWith(body, r.expected_suffix)) {
      result->checks.Check("wrong answer to " + r.query + ": " +
                           std::string(body.substr(0, 300)));
    } else {
      result->checks.Check("");
    }
    if (before == kMeasure &&
        phase->load(std::memory_order_acquire) == kMeasure) {
      result->latency_us.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
    }
  }
}

struct LoopStats {
  uint64_t completed = 0;
  double seconds = 0;
  std::vector<double> latency_us;
};

/// Runs the closed loop: `warmup` seconds untimed, then `seconds` measured.
LoopStats RunLoop(const ServeFixture& fixture,
                  const std::vector<Request>& requests, double warmup,
                  double seconds, bool traced, Outcome* out,
                  uint64_t* ok200_total, SpanRecorder* spans) {
  std::atomic<int> phase{kWarmup};
  std::vector<ClientResult> results(kClients);
  std::vector<SpanRecorder> client_spans;
  for (int c = 0; c < kClients; ++c) {
    results[c].latency_us.reserve(1 << 20);
    client_spans.emplace_back(traced ? (1 << 19) : 0);
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(ClientLoop, fixture.server->port(), &requests,
                         requests.size() * c / kClients, &phase, &results[c],
                         traced ? &client_spans[c] : nullptr);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  const auto start = Clock::now();
  phase.store(kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  phase.store(kStop, std::memory_order_release);
  const double elapsed = SecondsSince(start);
  for (std::thread& t : clients) t.join();

  LoopStats stats;
  stats.seconds = elapsed;
  for (int c = 0; c < kClients; ++c) {
    ClientResult& r = results[c];
    *ok200_total += r.ok200;
    out->attempted += r.checks.attempted;
    out->failed += r.checks.failed;
    for (const std::string& m : r.checks.mismatches) {
      if (out->mismatches.size() < 8) out->mismatches.push_back(m);
    }
    stats.latency_us.insert(stats.latency_us.end(), r.latency_us.begin(),
                            r.latency_us.end());
    if (spans != nullptr) spans->Append(client_spans[c]);
  }
  stats.completed = stats.latency_us.size();
  return stats;
}

/// GET /metrics on a fresh connection; checks the server's own response
/// counters against what the clients saw and returns the keep-alive ratio.
double ScrapeAndCheck(const ServeFixture& fixture, uint64_t ok200_total,
                      Outcome* out) {
  Connection conn;
  int status = 0;
  std::string_view body;
  if (!conn.Open(fixture.server->port()) ||
      !conn.Exchange("GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n", &status,
                     &body) ||
      status != 200) {
    out->Check("GET /metrics failed");
    return 0;
  }
  const std::string text(body);
  auto counter = [&](const std::string& name) -> double {
    const std::string key = "\n" + name + " ";
    const std::size_t at = text.find(key);
    return at == std::string::npos
               ? 0
               : std::strtod(text.c_str() + at + key.size(), nullptr);
  };
  const double ok2xx = counter("serve_responses_2xx");
  const double err5xx = counter("serve_responses_5xx");
  out->Check(ok2xx == static_cast<double>(ok200_total) && err5xx == 0
                 ? ""
                 : "/metrics: serve_responses_2xx=" + std::to_string(ok2xx) +
                       " (clients saw " + std::to_string(ok200_total) +
                       " 200s), serve_responses_5xx=" +
                       std::to_string(err5xx));
  const double opened = counter("serve_connections_opened");
  const double reused = counter("serve_connections_reused");
  return reused / std::max(1.0, reused + opened);
}

/// For each request in turn: one round trip to the otherwise idle server,
/// then the in-process replay of the same body through the layers the
/// POST /query handler calls, in its order. Pairing the two cancels drift
/// in machine speed, so their difference is the HTTP share.
void ReplayLayers(const ServeFixture& fixture,
                  const std::vector<Request>& requests, double seconds,
                  SpanRecorder* spans, Outcome* out, uint64_t* ok200_total,
                  double* replay_us, double* roundtrip_us) {
  Connection conn;
  if (!conn.Open(fixture.server->port())) out->Check("connect failed");
  double roundtrip = 0, json = 0, parse = 0, shape = 0, eval = 0, render = 0;
  double lookups = 0, rewrites = 0, rows = 0, truncated = 0, allocs = 0;
  uint64_t n = 0;
  const auto start = Clock::now();
  // The whole set, replayed until the time budget is spent, so
  // per-request counts are exact and repeat run to run.
  for (int pass = 0; pass < 1 || SecondsSince(start) < seconds; ++pass) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      const uint32_t id = static_cast<uint32_t>(i);
      const int32_t trip = spans->Begin("serve.roundtrip", id);
      int status = 0;
      std::string_view served;
      const bool sent = conn.Exchange(r.http, &status, &served);
      roundtrip += static_cast<double>(spans->End(trip));
      if (pass == 0) {
        out->Check(sent && status == 200 && EndsWith(served, r.expected_suffix)
                       ? ""
                       : "paired round trip failed for " + r.query);
      }
      if (sent && status == 200) ++*ok200_total;
      const int32_t root = spans->Begin("replay.request", id);
      // Each call is timed by its own span; allocations are counted around
      // the call only, so span bookkeeping never enters the count.
      auto layer = [&](const char* name, double* total_ns, auto&& call) {
        const int32_t s = spans->Begin(name, id, root);
        const uint64_t allocs0 = ThreadAllocations();
        call();
        allocs += static_cast<double>(ThreadAllocations() - allocs0);
        *total_ns += static_cast<double>(spans->End(s));
      };
      const auto* entry = fixture.registry.Find(r.database);
      chronolog::Result<chronolog::JsonValue> body =
          chronolog::InvalidArgumentError("unparsed");
      chronolog::Result<chronolog::Query> parsed =
          chronolog::InvalidArgumentError("unparsed");
      chronolog::Result<chronolog::QueryAnswer> answer =
          chronolog::InvalidArgumentError("unevaluated");
      std::string normalized, rendered;
      layer("util.json_parse", &json,
            [&] { body = chronolog::ParseJson(r.body); });
      const chronolog::JsonValue* text =
          body.ok() ? body->Find("query") : nullptr;
      if (text != nullptr) {
        layer("query.parse", &parse, [&] {
          parsed = chronolog::ParseQuery(text->string_value, entry->tdd.vocab());
        });
      }
      layer("query.shape", &shape,
            [&] { normalized = chronolog::NormalizeQueryShape(r.query); });
      if (parsed.ok()) {
        layer("query.eval", &eval, [&] {
          answer = chronolog::EvaluateQueryOverSpec(
              *parsed, *entry->spec, EvalOptions(*entry, "replay-request"));
        });
      }
      if (answer.ok()) {
        layer("query.render", &render, [&] {
          rendered = chronolog::QueryAnswerToJson(*answer, entry->tdd.vocab());
        });
      }
      spans->End(root);
      if (!answer.ok()) {
        out->Check("replay failed for " + r.query);
        continue;
      }
      if (pass == 0) {
        out->Check(EndsWith(rendered + "\n", r.expected_suffix) &&
                           !normalized.empty()
                       ? ""
                       : "replay answer differs for " + r.query);
      }
      lookups += static_cast<double>(answer->oracle_lookups);
      rewrites += static_cast<double>(answer->rewrite_steps);
      rows += static_cast<double>(answer->rows.size());
      truncated += answer->truncated ? 1 : 0;
      ++n;
    }
  }
  const double count = static_cast<double>(n);
  out->Add("util.json_parse_us", json / count / 1e3, "us");
  out->Add("query.parse_us", parse / count / 1e3, "us");
  out->Add("query.shape_us", shape / count / 1e3, "us");
  out->Add("query.eval_us", eval / count / 1e3, "us");
  out->Add("query.render_us", render / count / 1e3, "us");
  out->Add("query.oracle_lookups_per_req", lookups / count, "count");
  out->Add("query.rewrite_steps_per_req", rewrites / count, "count");
  out->Add("query.rows_per_req", rows / count, "count");
  out->Add("query.truncated_ratio", truncated / count, "ratio");
  out->Add("query.allocs_per_req", allocs / count, "count");
  *replay_us = (json + parse + shape + eval + render) / count / 1e3;
  *roundtrip_us = roundtrip / count / 1e3;
}

/// The traced serving measurement shared by every workload: an untraced
/// and a traced closed-loop half (their throughputs give the tracing
/// overhead), the paired replay, and the /metrics check, all on the same
/// prefix of the stream. Returns the traced half's throughput over the
/// untraced one's.
double MeasureServeLayers(const ServeFixture& fixture,
                          const std::vector<Request>& stream, double seconds,
                          uint64_t* ok200_total, SpanRecorder* spans,
                          Outcome* out) {
  const std::vector<Request> requests(
      stream.begin(),
      stream.begin() + std::min<std::ptrdiff_t>(
                           static_cast<std::ptrdiff_t>(stream.size()),
                           kReplayed));
  const LoopStats plain =
      RunLoop(fixture, requests, 0.5, seconds / 2, false, out, ok200_total,
              nullptr);
  const LoopStats traced =
      RunLoop(fixture, requests, 0.2, seconds / 2, true, out, ok200_total,
              spans);
  double replay_us = 0, roundtrip_us = 0;
  ReplayLayers(fixture, requests, std::min(2.0, seconds / 4), spans, out,
               ok200_total, &replay_us, &roundtrip_us);
  const double reuse = ScrapeAndCheck(fixture, *ok200_total, out);
  out->Add("serve.roundtrip_us", roundtrip_us, "us");
  out->Add("serve.http_us", roundtrip_us - replay_us, "us");
  out->Add("serve.conn_reuse_ratio", reuse, "ratio");
  const double qps_plain = static_cast<double>(plain.completed) / plain.seconds;
  const double qps_traced =
      static_cast<double>(traced.completed) / traced.seconds;
  return qps_traced / qps_plain;
}

}  // namespace

void MeasureServeLayersProbe(const RunOptions& options, SpanRecorder* spans,
                             Outcome* out) {
  auto fixture = StartServer();
  const std::vector<Request> requests =
      BuildRequests(*fixture, PointStream(options.seed, 4096), true, false);
  uint64_t ok200 = 0;
  MeasureServeLayers(*fixture, requests, 2.0, &ok200, spans, out);
}

Outcome RunServeWorkload(const RunOptions& options, bool scan) {
  Outcome out;
  // Set-up is register the three databases (which compiles their
  // specifications) and start the server; the first fixture serves. Set-up
  // and the BT cross-check are sampled before and between the slices of
  // the serving loop, so their samples span the run.
  std::vector<double> setup_s, build_ms, bt_ms;
  auto set_up = [&] {
    const auto start = Clock::now();
    std::unique_ptr<ServeFixture> fixture = StartServer();
    setup_s.push_back(SecondsSince(start));
    build_ms.push_back(fixture->register_s * 1e3);
    return fixture;
  };
  // BT cross-check on the served `path` database: Figure 1 must agree with
  // the spec's Ask on the same atom.
  std::mt19937_64 rng(options.seed ^ 0xB7B7ULL);
  const std::string atom_text =
      "path(8, n" + std::to_string(rng() % kPathNodes) + ", n" +
      std::to_string(rng() % kPathNodes) + ")";
  auto run_bt = [&](const ServeFixture& fixture) {
    const auto* path = fixture.registry.Find("path");
    auto atom = chronolog::ParseGroundAtom(atom_text, path->tdd.vocab());
    chronolog::BtOptions bt;
    bt.range = kPathNodes + 2;  // inflationary saturation bound
    bt.num_threads = 1;
    const auto start = Clock::now();
    auto result = atom.ok() ? chronolog::RunBt(path->tdd.program(),
                                               path->tdd.database(), *atom, bt)
                            : atom.status();
    bt_ms.push_back(SecondsSince(start) * 1e3);
    out.Check(result.ok() && result->answer == path->spec->Ask(*atom)
                  ? ""
                  : "BT disagrees with Ask on " + atom_text);
  };
  auto sample = [&] { run_bt(*set_up()); };

  std::unique_ptr<ServeFixture> fixture = set_up();
  const std::vector<std::pair<std::string, std::string>> stream =
      scan ? ScanStream(options.seed, 252) : PointStream(options.seed, 4096);
  const std::vector<Request> requests =
      BuildRequests(*fixture, stream, !scan, options.corrupt_oracle);
  uint64_t ok200 = 0;

  if (options.trace) {
    SpanRecorder spans(1 << 18);
    const double ratio = MeasureServeLayers(*fixture, requests,
                                            options.seconds, &ok200, &spans,
                                            &out);
    fixture.reset();
    MeasureBuildLayers(true, options.seed, &spans, &out);
    out.Add("trace.overhead_pct", (1.0 - ratio) * 100.0, "%");
    if (!options.trace_out.empty()) {
      spans.WriteChromeTrace(options.trace_out, 20000);
    }
    return out;
  }

  run_bt(*fixture);
  // Serving gets this share of the run; the rest goes to set-up and BT
  // samples (about a dozen in a 30 s run), so their best times and medians
  // rest on enough samples to be steady.
  constexpr int kSlices = 4;
  constexpr double kServeShare = 0.7;
  const double sample_s = options.seconds * (1 - kServeShare) / kSlices;
  LoopStats loop;
  for (int slice = 0; slice < kSlices; ++slice) {
    LoopStats part = RunLoop(*fixture, requests, slice == 0 ? 1.0 : 0.2,
                             options.seconds * kServeShare / kSlices, false,
                             &out, &ok200, nullptr);
    loop.completed += part.completed;
    loop.seconds += part.seconds;
    loop.latency_us.insert(loop.latency_us.end(), part.latency_us.begin(),
                           part.latency_us.end());
    const auto sampling = Clock::now();
    do {
      sample();
    } while (SecondsSince(sampling) < sample_s);
  }
  const double reuse = ScrapeAndCheck(*fixture, ok200, &out);
  fixture.reset();
  out.notes.push_back("latency samples: " + std::to_string(loop.completed) +
                      " requests; keep-alive reuse " + std::to_string(reuse) +
                      "; set-up/BT samples " + std::to_string(bt_ms.size()));
  out.Add("qps", static_cast<double>(loop.completed) / loop.seconds, "1/s");
  out.Add("latency_p50_ms", Quantile(loop.latency_us, 0.50) / 1e3, "ms");
  out.Add("latency_p99_ms", Quantile(loop.latency_us, 0.99) / 1e3, "ms");
  // Best of the samples: this host's speed drifts in episodes of seconds,
  // which the fastest sample is least exposed to.
  out.Add("build_ms", Min(build_ms), "ms");
  out.Add("bt_ms", Min(bt_ms), "ms");
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
