#ifndef CHRONOLOG_SERVE_HTTP_SERVER_H_
#define CHRONOLOG_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace chronolog {

class MetricsRegistry;

/// chronolog_serve — a minimal blocking HTTP/1.1 server for the
/// observability endpoints (`/metrics`, `/healthz`, `/trace`) and the query
/// protocol (`POST /query`, see docs/SERVING.md). Scope is deliberately
/// narrow: GET/HEAD plus explicitly registered POST routes, loopback by
/// default, no TLS, no third-party dependencies — enough for a Prometheus
/// scraper, `curl`, or a query client, and nothing an internet-facing proxy
/// should be pointed at directly.
///
/// Connection semantics: HTTP/1.1 requests default to persistent
/// connections — one socket carries many requests (including pipelined
/// back-to-back requests; responses always go back in request order because
/// a connection is owned by one worker). A connection closes when the
/// client asks (`Connection: close`), speaks HTTP/1.0, sits idle past
/// `idle_timeout_ms`, exceeds `max_requests_per_connection`, or commits any
/// protocol error (the 400/408/411/413/431 family below) — an error leaves
/// the request framing untrustworthy, so the server never reuses after one.
/// Route-level errors (404/405) keep the connection: the framing is intact,
/// only the routing failed, and any declared request body is drained before
/// the next request is read.
///
/// Concurrency model: `Start()` binds and listens, then starts
/// `num_workers` threads, each running one long-running accept loop —
/// `accept(2)` on a shared listening socket is thread-safe, so the workers
/// form a classic pre-threaded server. Each worker polls the
/// listening fd with a short timeout between accepts, and idle keep-alive
/// waits poll in the same short slices, which is what lets `Stop()`
/// terminate the loops (and shed idle connections) without relying on
/// platform-specific `shutdown(2)`-on-listener semantics.
///
/// Error responses the connection layer produces itself (all of them close
/// the connection):
///   400  malformed request line / header block / body shorter than
///        Content-Length / duplicate or conflicting Content-Length /
///        any Transfer-Encoding (not supported, and a smuggling vector on
///        reused connections)
///   408  the client stalled past the receive timeout mid-request
///   411  POST without a Content-Length header
///   413  request body larger than `max_body_bytes`
///   431  header block larger than the request read cap
struct HttpRequest {
  std::string method;  // "GET", "HEAD", "POST"
  std::string path;    // decoded-enough: the raw path, query string split off
  std::string query;   // text after '?', if any (not parsed further)
  std::string body;    // POST payload (exactly Content-Length bytes)
  /// Client-supplied `X-Request-Id` header value (trimmed), empty when the
  /// client sent none. The query endpoints echo it into the response JSON,
  /// log lines and the per-request trace scope (chronolog_qstats); handlers
  /// that ignore it lose nothing.
  std::string request_id;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Handler for one route. Invoked concurrently from worker threads — must
/// be thread-safe.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  /// Port to bind; 0 picks an ephemeral port (read it back via `port()`).
  int port = 0;
  /// Bind address. The default stays on loopback; pass "0.0.0.0" to expose
  /// the endpoints beyond the host.
  std::string bind_address = "127.0.0.1";
  /// Concurrent request workers (each runs one blocking accept loop).
  int num_workers = 2;
  /// Per-connection socket receive timeout while reading one request.
  int read_timeout_ms = 5000;
  /// How long a kept-alive connection may sit idle between requests before
  /// the server closes it (serve.connections_idle_closed).
  int idle_timeout_ms = 5000;
  /// Requests served over one connection before the server forces a close
  /// (the final allowed response carries `Connection: close`); 0 = no cap.
  int max_requests_per_connection = 0;
  /// Cap on a POST body; larger payloads are refused with 413.
  std::size_t max_body_bytes = 1 << 20;
  /// Serve-level instruments (nullable, must outlive the server when set):
  ///   serve.responses_2xx/4xx/5xx     counters  responses by status class
  ///   serve.connections_opened        counter   accepted connections
  ///   serve.connections_reused        counter   requests parsed on a
  ///                                             connection past its first —
  ///                                             reused/opened is the
  ///                                             keep-alive hit rate
  ///   serve.connections_idle_closed   counter   idle-timeout closes
  /// Response counters count actual responses written back, not accepted
  /// connections — a client that connects and sends nothing parseable
  /// counts nowhere.
  MetricsRegistry* metrics = nullptr;
};

class HttpServer {
 public:
  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path` under GET (and HEAD, which
  /// reuses the GET handler minus the body). Must be called before Start();
  /// routes are immutable while serving.
  void Handle(std::string path, HttpHandler handler);

  /// Registers `handler` for exact-match `path` under POST. The request
  /// body (up to `max_body_bytes`) is read before the handler runs.
  void HandlePost(std::string path, HttpHandler handler);

  /// Binds, listens and spawns the worker threads. Fails with
  /// kUnavailable when the socket cannot be bound.
  Status Start();

  /// Stops the accept loops, joins the workers and closes the socket.
  /// Idempotent; also invoked by the destructor.
  void Stop();

  /// The bound port (the chosen one when options.port == 0); 0 before
  /// Start().
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Responses actually written since Start (200s and error responses
  /// alike). Connections that closed without producing a parseable request
  /// line are not counted.
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  /// Serves requests off `client_fd` until the connection is done: client
  /// close, protocol error, idle timeout, request cap, or server shutdown.
  void ServeConnection(int client_fd);
  /// Reads, dispatches and answers one request. `carry` holds over-read
  /// bytes belonging to the next pipelined request (in and out);
  /// `allow_reuse` is false when the per-connection request cap makes this
  /// the final allowed request; `reused` marks a request past the first on
  /// its connection (for serve.connections_reused). Returns true when the
  /// connection may carry another request.
  bool ServeOneRequest(int client_fd, std::string* carry, bool allow_reuse,
                       bool reused);
  /// Writes `response` and maintains requests_served_ plus the per-class
  /// serve.responses_* counters. All responses funnel through here.
  /// `keep_alive` picks the Connection response header and must match what
  /// the caller then does with the socket.
  void Respond(int client_fd, const HttpResponse& response, bool keep_alive,
               bool head_only = false);
  /// Bumps a serve-level counter when a metrics registry is attached.
  void Count(const char* name);

  HttpServerOptions options_;
  std::map<std::string, HttpHandler> routes_;       // GET/HEAD
  std::map<std::string, HttpHandler> post_routes_;  // POST
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::vector<std::thread> workers_;  // one AcceptLoop each
};

}  // namespace chronolog

#endif  // CHRONOLOG_SERVE_HTTP_SERVER_H_
