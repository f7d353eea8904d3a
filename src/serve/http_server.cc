#include "serve/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <string_view>

#include "util/log.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace chronolog {

namespace {

/// Poll interval of the accept loops: the latency bound on Stop().
constexpr int kAcceptPollMs = 100;

/// Header-block read cap. Request lines plus headers larger than this are
/// abuse, not a request to buffer; the body has its own configurable cap.
constexpr std::size_t kMaxRequestBytes = 64 * 1024;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 411:
      return "Length Required";
    case 413:
      return "Payload Too Large";
    case 422:
      return "Unprocessable Entity";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

void WriteAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client went away; nothing useful to do
    }
    sent += static_cast<std::size_t>(n);
  }
}

void WriteResponse(int fd, const HttpResponse& response, bool keep_alive,
                   bool head_only = false) {
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusText(response.status) + "\r\n";
  wire += "Content-Type: " + response.content_type + "\r\n";
  wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  wire += keep_alive ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n";
  // One send for head + body: separate writes would leave the body runt
  // packet parked behind Nagle until the client's delayed ACK (~40ms) on a
  // kept-alive connection, where no close() flushes it.
  if (!head_only) wire += response.body;
  WriteAll(fd, wire);
}

HttpResponse TextResponse(int status, std::string body) {
  return HttpResponse{status, "text/plain; charset=utf-8", std::move(body)};
}

std::string_view TrimOws(std::string_view value) {
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.remove_prefix(1);
  }
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t' ||
                            value.back() == '\r')) {
    value.remove_suffix(1);
  }
  return value;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// The request headers the connection layer itself acts on. Everything is
/// gathered in one scan of the header block (the lines after the request
/// line, exclusive of the terminating blank line).
struct RequestHeaders {
  bool has_content_length = false;
  uint64_t content_length = 0;
  /// Duplicate, conflicting or unparseable Content-Length. With connection
  /// reuse, guessing at an ambiguous body length is a request-smuggling
  /// vector (the "second" interpretation executes as a new request), so any
  /// ambiguity is rejected outright with 400.
  bool bad_content_length = false;
  /// Any Transfer-Encoding at all: chunked is unimplemented, and every
  /// other value conflicts with Content-Length framing — same smuggling
  /// reasoning, same 400.
  bool has_transfer_encoding = false;
  bool connection_close = false;
  /// Trimmed X-Request-Id value (chronolog_qstats); empty when absent.
  std::string request_id;
};

RequestHeaders ParseRequestHeaders(std::string_view headers) {
  RequestHeaders out;
  std::size_t pos = 0;
  while (pos < headers.size()) {
    std::size_t eol = headers.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = headers.size();
    const std::string_view line = headers.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = TrimOws(line.substr(colon + 1));
    if (EqualsIgnoreCase(name, "content-length")) {
      uint64_t parsed = 0;
      if (out.has_content_length || !ParseUint64(value, &parsed)) {
        out.bad_content_length = true;  // duplicates rejected even if equal
      } else {
        out.has_content_length = true;
        out.content_length = parsed;
      }
    } else if (EqualsIgnoreCase(name, "transfer-encoding")) {
      out.has_transfer_encoding = true;
    } else if (EqualsIgnoreCase(name, "x-request-id")) {
      out.request_id.assign(value);
    } else if (EqualsIgnoreCase(name, "connection")) {
      // Comma-separated option list; "close" anywhere in it wins.
      std::size_t start = 0;
      while (start <= value.size()) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string_view::npos) comma = value.size();
        if (EqualsIgnoreCase(TrimOws(value.substr(start, comma - start)),
                             "close")) {
          out.connection_close = true;
        }
        start = comma + 1;
      }
    }
  }
  return out;
}

}  // namespace

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, HttpHandler handler) {
  routes_[std::move(path)] = std::move(handler);
}

void HttpServer::HandlePost(std::string path, HttpHandler handler) {
  post_routes_[std::move(path)] = std::move(handler);
}

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("HttpServer::Start: already running");
  }
  shutdown_.store(false, std::memory_order_release);

  if (options_.metrics != nullptr) {
    // Pre-register the connection and response-class families: a scrape
    // must see an explicit zero (so dashboards and the CI no-5xx assertion
    // can distinguish "none happened" from "not instrumented"), not a
    // missing series until the first event.
    for (const char* name :
         {"serve.connections_opened", "serve.connections_reused",
          "serve.connections_idle_closed", "serve.responses_2xx",
          "serve.responses_3xx", "serve.responses_4xx",
          "serve.responses_5xx"}) {
      options_.metrics->counter(name);
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgumentError("invalid bind address: " +
                                options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string message = std::string("bind ") + options_.bind_address +
                                ":" + std::to_string(options_.port) + ": " +
                                std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InternalError(message);
  }
  if (::listen(listen_fd_, /*backlog=*/64) < 0) {
    const std::string message = std::string("listen: ") +
                                std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InternalError(message);
  }
  // Non-blocking listener: several workers poll the same fd, and when a
  // connection wakes more than one of them only the first accept() wins —
  // the losers must get EAGAIN back instead of blocking (and going blind to
  // shutdown_) until the next connection.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  running_.store(true, std::memory_order_release);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { AcceptLoop(); });
  }
  LogInfo("serve.start")
      .Str("bind", options_.bind_address)
      .Int("port", port_)
      .Int("workers", options_.num_workers);
  return Status();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  shutdown_.store(true, std::memory_order_release);
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  LogInfo("serve.stop")
      .Int("port", port_)
      .Uint("requests", requests_served());
}

void HttpServer::AcceptLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check shutdown
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) continue;  // racing worker won the connection
    ServeConnection(client_fd);
    ::close(client_fd);
  }
}

void HttpServer::Respond(int client_fd, const HttpResponse& response,
                         bool keep_alive, bool head_only) {
  WriteResponse(client_fd, response, keep_alive, head_only);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (options_.metrics != nullptr) {
    const char* family = response.status >= 500   ? "serve.responses_5xx"
                         : response.status >= 400 ? "serve.responses_4xx"
                         : response.status >= 300 ? "serve.responses_3xx"
                                                  : "serve.responses_2xx";
    options_.metrics->counter(family)->Add();
  }
}

void HttpServer::Count(const char* name) {
  if (options_.metrics != nullptr) options_.metrics->counter(name)->Add();
}

void HttpServer::ServeConnection(int client_fd) {
  timeval timeout{};
  timeout.tv_sec = options_.read_timeout_ms / 1000;
  timeout.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  // Responses must hit the wire as soon as they are written: with reuse the
  // socket stays open, so Nagle would otherwise hold the final segment of
  // each response hostage to the client's delayed ACK.
  const int one = 1;
  ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Count("serve.connections_opened");

  std::string carry;  // over-read bytes belonging to the next request
  for (int served = 0; !shutdown_.load(std::memory_order_acquire); ++served) {
    if (served > 0 && carry.empty()) {
      // Idle keep-alive wait, in short slices so shutdown_ stays visible:
      // a parked connection must never pin a worker past Stop().
      int waited_ms = 0;
      bool readable = false;
      while (waited_ms < options_.idle_timeout_ms &&
             !shutdown_.load(std::memory_order_acquire)) {
        const int slice =
            std::min(kAcceptPollMs, options_.idle_timeout_ms - waited_ms);
        pollfd pfd{client_fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, slice);
        if (ready > 0) {
          readable = true;
          break;
        }
        if (ready == 0) waited_ms += slice;
        // EINTR: retry the slice without crediting the wait.
      }
      if (!readable) {
        if (!shutdown_.load(std::memory_order_acquire)) {
          Count("serve.connections_idle_closed");
        }
        return;
      }
    }
    const bool allow_reuse =
        options_.max_requests_per_connection <= 0 ||
        served + 1 < options_.max_requests_per_connection;
    if (!ServeOneRequest(client_fd, &carry, allow_reuse,
                         /*reused=*/served > 0)) {
      return;
    }
  }
}

bool HttpServer::ServeOneRequest(int client_fd, std::string* carry,
                                 bool allow_reuse, bool reused) {
  // Read until the end of the header block, starting from whatever the
  // previous request over-read; the body (if any) is read separately below,
  // once Content-Length is known.
  std::string request = std::move(*carry);
  carry->clear();
  char buf[4096];
  bool timed_out = false;
  // Resume-offset scan: the terminator can only straddle the last 3 bytes
  // of what was already searched plus the new chunk, so each recv re-scans
  // O(chunk) bytes instead of the whole buffer (large header blocks used to
  // make this loop quadratic).
  std::size_t header_end = request.find("\r\n\r\n");
  while (header_end == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      timed_out = true;  // SO_RCVTIMEO expired: the client stalled
      break;
    }
    if (n <= 0) break;  // closed or hard error
    const std::size_t scan_from = request.size() < 3 ? 0 : request.size() - 3;
    request.append(buf, static_cast<std::size_t>(n));
    header_end = request.find("\r\n\r\n", scan_from);
  }

  if (header_end == std::string::npos) {
    // The three truncation causes get distinct codes: a header block that
    // hit the read cap is 431 (even if the peer would have sent more), a
    // stalled client is 408, and a closed/garbled connection is 400. A
    // connection that closed without sending anything gets no response at
    // all — and is deliberately not counted as a request. All of them end
    // the connection: the stream is not at a request boundary.
    if (request.size() >= kMaxRequestBytes) {
      Respond(client_fd,
              TextResponse(431, "request header block exceeds " +
                                    std::to_string(kMaxRequestBytes) +
                                    " bytes\n"),
              /*keep_alive=*/false);
      return false;
    }
    if (timed_out) {
      Respond(client_fd, TextResponse(408, "timed out reading the request\n"),
              /*keep_alive=*/false);
      return false;
    }
    if (request.empty()) return false;
    Respond(client_fd, TextResponse(400, "incomplete request\n"),
            /*keep_alive=*/false);
    return false;
  }
  if (reused) Count("serve.connections_reused");

  const std::size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    Respond(client_fd, TextResponse(400, "malformed request line\n"),
            /*keep_alive=*/false);
    return false;
  }
  HttpRequest parsed;
  parsed.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    parsed.path = std::move(target);
  } else {
    parsed.path = target.substr(0, qmark);
    parsed.query = target.substr(qmark + 1);
  }

  RequestHeaders headers = ParseRequestHeaders(
      std::string_view(request).substr(line_end + 2,
                                       header_end - line_end - 2));
  parsed.request_id = std::move(headers.request_id);
  if (headers.has_transfer_encoding) {
    Respond(client_fd,
            TextResponse(400, "Transfer-Encoding is not supported\n"),
            /*keep_alive=*/false);
    return false;
  }
  if (headers.bad_content_length) {
    Respond(client_fd,
            TextResponse(400, "duplicate, conflicting or malformed "
                              "Content-Length\n"),
            /*keep_alive=*/false);
    return false;
  }

  // Keep-alive decision: HTTP/1.1 defaults to persistent, HTTP/1.0 always
  // closes, an explicit `Connection: close` is honored, and the request cap
  // turns the final allowed response into a close.
  const bool http10 = line.compare(sp2 + 1, std::string::npos, "HTTP/1.0") == 0;
  const bool keep_alive = allow_reuse && !http10 && !headers.connection_close;

  // Bytes past the header block were over-read: the body prefix first, then
  // (pipelined clients) the start of the next request.
  std::string buffered = request.substr(header_end + 4);
  const uint64_t body_length =
      headers.has_content_length ? headers.content_length : 0;

  // Reads the declared body — over-read prefix first, then the wire — and
  // leaves anything beyond it in *carry for the next request. Returns the
  // HTTP status to fail the connection with, or 0 on success.
  const auto read_body = [&](std::string* body) -> int {
    if (buffered.size() >= body_length) {
      body->assign(buffered, 0, static_cast<std::size_t>(body_length));
      carry->assign(buffered, static_cast<std::size_t>(body_length),
                    std::string::npos);
      return 0;
    }
    *body = std::move(buffered);
    while (body->size() < body_length) {
      const std::size_t want =
          std::min(sizeof(buf),
                   static_cast<std::size_t>(body_length) - body->size());
      const ssize_t n = ::recv(client_fd, buf, want, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 408;
      if (n <= 0) return 400;
      body->append(buf, static_cast<std::size_t>(n));
    }
    return 0;
  };
  const auto fail_body = [&](int status) {
    Respond(client_fd,
            status == 408
                ? TextResponse(408, "timed out reading the request body\n")
                : TextResponse(400,
                               "request body shorter than Content-Length\n"),
            /*keep_alive=*/false);
  };
  // Answers a route-level miss (404/405). The framing is intact, so the
  // connection survives — but only once the declared body (which the
  // handler never read) is drained off the wire; an undrainable body (over
  // the cap, or a read failure) closes instead.
  const auto respond_after_drain = [&](const HttpResponse& response) -> bool {
    if (body_length > options_.max_body_bytes) {
      Respond(client_fd, response, /*keep_alive=*/false);
      return false;
    }
    std::string discarded;
    if (const int status = read_body(&discarded); status != 0) {
      fail_body(status);
      return false;
    }
    Respond(client_fd, response, keep_alive);
    return keep_alive;
  };

  if (parsed.method == "GET" || parsed.method == "HEAD") {
    const auto it = routes_.find(parsed.path);
    if (it == routes_.end()) {
      if (post_routes_.count(parsed.path) != 0) {
        return respond_after_drain(
            TextResponse(405, "this route only accepts POST\n"));
      }
      std::string known = "not found; routes:";
      for (const auto& [path, handler] : routes_) known += " " + path;
      for (const auto& [path, handler] : post_routes_) {
        known += " POST:" + path;
      }
      return respond_after_drain(TextResponse(404, known + "\n"));
    }
    // A GET/HEAD with a declared body is unusual but legal; consume it so
    // the connection stays at a request boundary.
    if (body_length > options_.max_body_bytes) {
      Respond(client_fd,
              TextResponse(413, "request body exceeds " +
                                    std::to_string(options_.max_body_bytes) +
                                    " bytes\n"),
              /*keep_alive=*/false);
      return false;
    }
    std::string discarded;
    if (const int status = read_body(&discarded); status != 0) {
      fail_body(status);
      return false;
    }
    Respond(client_fd, it->second(parsed), keep_alive,
            /*head_only=*/parsed.method == "HEAD");
    return keep_alive;
  }

  if (parsed.method != "POST") {
    return respond_after_drain(
        TextResponse(405, "only GET, HEAD and POST are supported\n"));
  }

  const auto it = post_routes_.find(parsed.path);
  if (it == post_routes_.end()) {
    if (routes_.count(parsed.path) != 0) {
      return respond_after_drain(
          TextResponse(405, "this route only accepts GET\n"));
    }
    std::string known = "not found; POST routes:";
    for (const auto& [path, handler] : post_routes_) known += " " + path;
    return respond_after_drain(TextResponse(404, known + "\n"));
  }

  if (!headers.has_content_length) {
    // Without Content-Length the request's extent is unknowable, so the
    // connection cannot be reused either.
    Respond(client_fd,
            TextResponse(411, "POST requires a Content-Length header\n"),
            /*keep_alive=*/false);
    return false;
  }
  if (body_length > options_.max_body_bytes) {
    // Refusing to buffer also means refusing to drain: close rather than
    // stream an over-cap body into the void.
    Respond(client_fd,
            TextResponse(413, "request body exceeds " +
                                  std::to_string(options_.max_body_bytes) +
                                  " bytes\n"),
            /*keep_alive=*/false);
    return false;
  }
  if (const int status = read_body(&parsed.body); status != 0) {
    fail_body(status);
    return false;
  }
  Respond(client_fd, it->second(parsed), keep_alive);
  return keep_alive;
}

}  // namespace chronolog
