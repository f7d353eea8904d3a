// chronolog_serve: the minimal HTTP server, the observability endpoints,
// and their integration with an engine's chronolog_obs sinks. The client
// side is a raw blocking socket — the server is scraped exactly the way
// Prometheus or curl would, with no test-only transport.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "serve/http_server.h"
#include "serve/obs_endpoints.h"
#include "serve/query_endpoints.h"
#include "serve/registry.h"
#include "util/json.h"
#include "util/metrics.h"

namespace chronolog {
namespace {

/// Sends one raw HTTP request to 127.0.0.1:`port` and returns the full
/// response (status line, headers, body). Empty string on connect failure.
std::string RawRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// The one-shot helpers ask for `Connection: close` explicitly: they frame
// the response by reading to EOF, which on a keep-alive connection would
// block until the server's idle timeout.
std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n" +
                              "Connection: close\r\n\r\n");
}

std::string Post(int port, const std::string& path, const std::string& body) {
  return RawRequest(port, "POST " + path + " HTTP/1.1\r\nHost: t\r\n" +
                              "Connection: close\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body);
}

/// Like RawRequest, but half-closes the write side after sending — the
/// server sees EOF instead of waiting out its receive timeout.
std::string RawRequestThenEof(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// A client connection held open across requests. Keep-alive responses have
/// no EOF to delimit them, so each one is framed by its Content-Length —
/// exactly what a real reusing client must do.
class KeepAliveClient {
 public:
  ~KeepAliveClient() { Close(); }

  bool Connect(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
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

  bool Send(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads exactly one response. `head_only` responses (to HEAD requests)
  /// declare a Content-Length but carry no body bytes.
  std::string ReadResponse(bool head_only = false) {
    std::size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return "";
    }
    std::size_t body_size = 0;
    const std::size_t cl = buffer_.find("Content-Length: ");
    if (!head_only && cl != std::string::npos && cl < header_end) {
      body_size = static_cast<std::size_t>(
          std::strtoull(buffer_.c_str() + cl + 16, nullptr, 10));
    }
    const std::size_t total = header_end + 4 + body_size;
    while (buffer_.size() < total) {
      if (!Fill()) return "";
    }
    std::string response = buffer_.substr(0, total);
    buffer_.erase(0, total);
    return response;
  }

  /// Blocks until the server closes its side; true on a clean EOF with no
  /// stray bytes first.
  bool WaitForEof() {
    char c;
    for (;;) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n == 0) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;  // error, or unexpected data
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

 private:
  bool Fill() {
    char buf[4096];
    ssize_t n;
    do {
      n = ::recv(fd_, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;  // over-read bytes of the next response
};

TEST(HttpServerTest, ServesRegisteredRouteOnEphemeralPort) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string response = Get(server.port(), "/ping");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 4"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\npong"), std::string::npos);
  EXPECT_GE(server.requests_served(), 1u);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(HttpServerTest, HandlerSeesQueryString) {
  HttpServer server;
  server.Handle("/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.method + " " + request.path + " ?" + request.query;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Get(server.port(), "/echo?a=1&b=2");
  EXPECT_NE(response.find("GET /echo ?a=1&b=2"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, UnknownRouteIs404) {
  HttpServer server;
  server.Handle("/only", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Get(server.port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(response.find("/only"), std::string::npos);  // lists routes
  server.Stop();
}

TEST(HttpServerTest, NonGetIs405) {
  HttpServer server;
  server.Handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = RawRequest(
      server.port(),
      "POST /x HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, HeadGetsHeadersWithoutBody) {
  HttpServer server;
  server.Handle("/h", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "body-text";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = RawRequest(
      server.port(),
      "HEAD /h HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  // Content-Length reflects the GET body, but the body is not sent.
  EXPECT_NE(response.find("Content-Length: 9"), std::string::npos);
  EXPECT_EQ(response.find("body-text"), std::string::npos);
  server.Stop();
}

// Matches the TSan ctest filter ('Parallel'): concurrent scrapers against
// the worker pool.
TEST(HttpServerParallelTest, ConcurrentClientsAllServed) {
  HttpServerOptions options;
  options.num_workers = 4;
  HttpServer server(options);
  std::atomic<uint64_t> hits{0};
  server.Handle("/hit", [&hits](const HttpRequest&) {
    hits.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 10;
  std::vector<std::thread> clients;
  std::atomic<int> ok_responses{0};
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&ok_responses, port = server.port()] {
      for (int j = 0; j < kRequestsPerClient; ++j) {
        const std::string response = Get(port, "/hit");
        if (response.find("HTTP/1.1 200 OK") != std::string::npos) {
          ok_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(ok_responses.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(hits.load(), static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_GE(server.requests_served(),
            static_cast<uint64_t>(kClients * kRequestsPerClient));
}

TEST(ObsEndpointsTest, ServesEngineMetricsHealthAndTrace) {
  EngineOptions options;
  options.collect_metrics = true;
  auto tdd = TemporalDatabase::FromSource(R"(
    even(0).
    even(T+2) :- even(T).
  )", options);
  ASSERT_TRUE(tdd.ok()) << tdd.status();
  ASSERT_TRUE(tdd->specification().ok());
  ASSERT_TRUE(tdd->Query("exists T (even(T))").ok());

  HttpServer server;
  RegisterObservabilityEndpoints(server, tdd->metrics(), tdd->trace(),
                                 "serve-test");
  ASSERT_TRUE(server.Start().ok());

  const std::string health = Get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"service\":\"serve-test\""), std::string::npos);

  const std::string metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE forward_timesteps counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE query_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("query_evaluations 1"), std::string::npos);

  const std::string trace = Get(server.port(), "/trace");
  EXPECT_NE(trace.find("application/json"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("query.eval"), std::string::npos);

  server.Stop();
}

TEST(ObsEndpointsTest, NullSinksDegradeGracefully) {
  HttpServer server;
  RegisterObservabilityEndpoints(server, nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  const std::string metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string trace = Get(server.port(), "/trace");
  EXPECT_NE(trace.find("\"traceEvents\":[]"), std::string::npos);
  server.Stop();
}

// --------------------------------------------------------------------------
// HTTP/1.1 keep-alive: persistent connections, pipelining, idle timeout
// --------------------------------------------------------------------------

TEST(HttpKeepAliveTest, SequentialRequestsReuseOneConnection) {
  MetricsRegistry metrics;
  HttpServerOptions options;
  options.metrics = &metrics;
  HttpServer server(options);
  server.Handle("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
    const std::string response = client.ReadResponse();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos)
        << response;
    EXPECT_NE(response.find("pong"), std::string::npos);
  }
  client.Close();
  server.Stop();
  EXPECT_EQ(server.requests_served(), 3u);
  EXPECT_EQ(metrics.counter("serve.connections_opened")->value(), 1u);
  EXPECT_EQ(metrics.counter("serve.connections_reused")->value(), 2u);
}

TEST(HttpKeepAliveTest, PipelinedPostsAnswerInOrder) {
  HttpServer server;
  server.HandlePost("/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "got:" + request.body;
    return response;
  });
  server.Handle("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // Two POSTs plus a GET in a single write: the server over-reads the first
  // body together with the following requests and must carry the prefix
  // forward instead of discarding it.
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(
      "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nfirst"
      "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 6\r\n\r\nsecond"
      "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string r1 = client.ReadResponse();
  EXPECT_NE(r1.find("got:first"), std::string::npos) << r1;
  const std::string r2 = client.ReadResponse();
  EXPECT_NE(r2.find("got:second"), std::string::npos) << r2;
  const std::string r3 = client.ReadResponse();
  EXPECT_NE(r3.find("pong"), std::string::npos) << r3;
  server.Stop();
  EXPECT_EQ(server.requests_served(), 3u);
}

TEST(HttpKeepAliveTest, ConnectionCloseRequestIsHonored) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(
      "GET /ping HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << response;
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
}

TEST(HttpKeepAliveTest, Http10AlwaysCloses) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.0\r\nHost: t\r\n\r\n"));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << response;
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
}

TEST(HttpKeepAliveTest, MalformedSecondRequestClosesConnection) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(client.ReadResponse().find("HTTP/1.1 200"), std::string::npos);
  ASSERT_TRUE(client.Send("BOGUS\r\n\r\n"));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << response;
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
}

TEST(HttpKeepAliveTest, IdleConnectionIsClosedAndCounted) {
  MetricsRegistry metrics;
  HttpServerOptions options;
  options.idle_timeout_ms = 150;
  options.metrics = &metrics;
  HttpServer server(options);
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(client.ReadResponse().find("Connection: keep-alive"),
            std::string::npos);
  // Send nothing more: the server must hang up, not hold the worker.
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
  EXPECT_EQ(metrics.counter("serve.connections_idle_closed")->value(), 1u);
}

TEST(HttpKeepAliveTest, MaxRequestsPerConnectionHonored) {
  HttpServerOptions options;
  options.max_requests_per_connection = 2;
  HttpServer server(options);
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string first = client.ReadResponse();
  EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos) << first;
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string second = client.ReadResponse();
  EXPECT_NE(second.find("Connection: close"), std::string::npos) << second;
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(HttpKeepAliveTest, HeadResponsesDoNotDesyncFraming) {
  HttpServer server;
  server.Handle("/h", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "body-text";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  // HEAD then GET pipelined: the HEAD response declares Content-Length 9
  // but must not ship the body, or the GET's response starts 9 bytes late.
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(
      "HEAD /h HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /h HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string head = client.ReadResponse(/*head_only=*/true);
  EXPECT_NE(head.find("Content-Length: 9"), std::string::npos) << head;
  const std::string get = client.ReadResponse();
  EXPECT_NE(get.find("HTTP/1.1 200 OK"), std::string::npos) << get;
  EXPECT_NE(get.find("body-text"), std::string::npos) << get;
  server.Stop();
}

TEST(HttpKeepAliveTest, RouteMissesKeepConnectionAndDrainBody) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  // A POST to an unregistered route answers 404 — and must still drain the
  // 5-byte body it never read, or the next request starts mid-body.
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(
      "POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"));
  const std::string miss = client.ReadResponse();
  EXPECT_NE(miss.find("HTTP/1.1 404"), std::string::npos) << miss;
  EXPECT_NE(miss.find("Connection: keep-alive"), std::string::npos) << miss;
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
  const std::string hit = client.ReadResponse();
  EXPECT_NE(hit.find("HTTP/1.1 200"), std::string::npos) << hit;
  EXPECT_NE(hit.find("pong"), std::string::npos) << hit;
  server.Stop();
}

TEST(HttpKeepAliveTest, HeaderTerminatorStraddlingRecvChunksIsFound) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  // Split the request mid-"\r\n\r\n": the resume-offset scan must still see
  // a terminator that straddles two recv chunks.
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(client.Send("\n"));
  EXPECT_NE(client.ReadResponse().find("HTTP/1.1 200"), std::string::npos);
  server.Stop();
}

TEST(HttpKeepAliveTest, StopReturnsPromptlyWithIdleConnectionOpen) {
  HttpServer server;  // default 5 s idle timeout: Stop() must not wait it out
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"));
  EXPECT_NE(client.ReadResponse().find("HTTP/1.1 200"), std::string::npos);
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_TRUE(client.WaitForEof());
}

// Matches the TSan ctest filter ('Parallel'): concurrent clients, each
// reusing one persistent connection for its whole request sequence. The
// client count deliberately equals the worker count — a kept-alive
// connection pins its worker, so more reusing clients than workers would
// starve (that sizing rule is documented in docs/SERVING.md).
TEST(HttpKeepAliveParallelTest, ConcurrentReusingClientsAllServed) {
  MetricsRegistry metrics;
  HttpServerOptions options;
  options.num_workers = 4;
  options.metrics = &metrics;
  HttpServer server(options);
  std::atomic<uint64_t> hits{0};
  server.Handle("/hit", [&hits](const HttpRequest&) {
    hits.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> ok_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&ok_responses, port = server.port()] {
      KeepAliveClient client;
      if (!client.Connect(port)) return;
      for (int j = 0; j < kRequestsPerClient; ++j) {
        if (!client.Send("GET /hit HTTP/1.1\r\nHost: t\r\n\r\n")) return;
        if (client.ReadResponse().find("HTTP/1.1 200 OK") !=
            std::string::npos) {
          ok_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(ok_responses.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(hits.load(),
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(metrics.counter("serve.connections_opened")->value(),
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(metrics.counter("serve.connections_reused")->value(),
            static_cast<uint64_t>(kClients * (kRequestsPerClient - 1)));
}

// --------------------------------------------------------------------------
// Protocol-level status codes (the PR's 431/408/400 and counting fixes)
// --------------------------------------------------------------------------

TEST(HttpProtocolTest, OversizedHeaderBlockIs431) {
  HttpServer server;
  server.Handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  // Exactly the 64 KiB read cap, no terminator: the server must refuse the
  // request instead of serving a truncated parse of it. Sending no more
  // than the cap also means the server drains everything we wrote, so the
  // close after the 431 is a clean FIN and the response survives.
  std::string huge = "GET /x HTTP/1.1\r\nX-Filler: ";
  huge.resize(64 * 1024, 'a');
  const std::string response = RawRequest(server.port(), huge);
  EXPECT_NE(response.find("HTTP/1.1 431"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpProtocolTest, StalledClientIs408NotBadRequest) {
  HttpServerOptions options;
  options.read_timeout_ms = 200;
  HttpServer server(options);
  server.Handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  // Send half a request and keep the connection open: the receive timeout
  // fires and the server must say "timeout", not "malformed".
  const std::string response =
      RawRequest(server.port(), "GET /x HTTP/1.1\r\nHost: t\r\n");
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpProtocolTest, TruncatedRequestIs400) {
  HttpServer server;
  server.Handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  // Half a request followed by EOF is a malformed request, not a timeout.
  const std::string response =
      RawRequestThenEof(server.port(), "GET /x HTTP/1.1\r\nHost: t\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpProtocolTest, ResponsesAreCountedNotConnections) {
  MetricsRegistry metrics;
  HttpServerOptions options;
  options.metrics = &metrics;
  HttpServer server(options);
  server.Handle("/ok", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "fine";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(Get(server.port(), "/ok").find("200"), std::string::npos);
  EXPECT_NE(Get(server.port(), "/nope").find("404"), std::string::npos);
  // A connection that sends nothing must not count as a served request.
  EXPECT_TRUE(RawRequestThenEof(server.port(), "").empty());
  server.Stop();
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(metrics.counter("serve.responses_2xx")->value(), 1u);
  EXPECT_EQ(metrics.counter("serve.responses_4xx")->value(), 1u);
  EXPECT_EQ(metrics.counter("serve.responses_5xx")->value(), 0u);
}

TEST(HttpProtocolTest, PostRequiresContentLength) {
  HttpServer server;
  server.HandlePost("/p", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = RawRequestThenEof(
      server.port(), "POST /p HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 411"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpProtocolTest, OversizedBodyIs413) {
  HttpServerOptions options;
  options.max_body_bytes = 64;
  HttpServer server(options);
  server.HandlePost("/p", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  const std::string response =
      Post(server.port(), "/p", std::string(1000, 'x'));
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpProtocolTest, MethodRouteMismatchIs405) {
  HttpServer server;
  server.Handle("/get-only", [](const HttpRequest&) { return HttpResponse{}; });
  server.HandlePost("/post-only",
                    [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  const std::string post = Post(server.port(), "/get-only", "{}");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos) << post;
  EXPECT_NE(post.find("GET"), std::string::npos);
  const std::string get = Get(server.port(), "/post-only");
  EXPECT_NE(get.find("HTTP/1.1 405"), std::string::npos) << get;
  EXPECT_NE(get.find("POST"), std::string::npos);
  server.Stop();
}

TEST(HttpProtocolTest, PostBodyReachesHandler) {
  HttpServer server;
  server.HandlePost("/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "got:" + request.body;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Post(server.port(), "/echo", "hello body");
  EXPECT_NE(response.find("got:hello body"), std::string::npos) << response;
  server.Stop();
}

// With connection reuse, ambiguous body framing is a request-smuggling
// vector: whatever the server mis-frames as "beyond the body" would execute
// as a new request. Duplicate/conflicting Content-Length and any
// Transfer-Encoding are therefore rejected outright, and the connection is
// closed so nothing after the poisoned request is ever parsed.
TEST(HttpProtocolTest, DuplicateContentLengthIs400AndCloses) {
  std::atomic<int> hits{0};
  HttpServer server;
  server.HandlePost("/p", [&hits](const HttpRequest&) {
    hits.fetch_add(1, std::memory_order_relaxed);
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());
  KeepAliveClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Even agreeing duplicates are rejected; the pipelined smuggled request
  // behind them must never run.
  ASSERT_TRUE(client.Send(
      "POST /p HTTP/1.1\r\nHost: t\r\n"
      "Content-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
      "POST /p HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << response;
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
  EXPECT_EQ(hits.load(), 0);
}

TEST(HttpProtocolTest, ConflictingContentLengthIs400) {
  HttpServer server;
  server.HandlePost("/p", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = RawRequestThenEof(
      server.port(),
      "POST /p HTTP/1.1\r\nHost: t\r\n"
      "Content-Length: 4\r\nContent-Length: 11\r\n\r\nhush");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpProtocolTest, TransferEncodingIs400) {
  std::atomic<int> hits{0};
  HttpServer server;
  server.HandlePost("/p", [&hits](const HttpRequest&) {
    hits.fetch_add(1, std::memory_order_relaxed);
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());
  // The classic TE/CL split: a server that honored Content-Length here
  // while an upstream proxy honored Transfer-Encoding would disagree on
  // where the request ends.
  const std::string response = RawRequestThenEof(
      server.port(),
      "POST /p HTTP/1.1\r\nHost: t\r\n"
      "Transfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n"
      "0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  EXPECT_NE(response.find("Transfer-Encoding"), std::string::npos)
      << response;
  server.Stop();
  EXPECT_EQ(hits.load(), 0);
}

// --------------------------------------------------------------------------
// The query protocol: POST /query over a DatabaseRegistry
// --------------------------------------------------------------------------

class QueryEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .AddFromSource("default", R"(
                      tick(0).
                      tick(T+128) :- tick(T).
                    )")
                    .ok());
  }
  /// Starts a server with the query endpoints and returns its port.
  int StartServer(QueryServiceOptions options = {}) {
    server_ = std::make_unique<HttpServer>();
    RegisterQueryEndpoints(*server_, &registry_, options);
    EXPECT_TRUE(server_->Start().ok());
    return server_->port();
  }
  static std::string Body(const std::string& response) {
    const std::size_t split = response.find("\r\n\r\n");
    return split == std::string::npos ? "" : response.substr(split + 4);
  }
  DatabaseRegistry registry_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(QueryEndpointTest, RoundTripReturnsRowsAndRewrite) {
  const int port = StartServer();
  const std::string response =
      Post(port, "/query", R"j({"query":"tick(T)"})j");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << json.status() << "\n" << response;
  EXPECT_EQ(json->Find("database")->string_value, "default");
  EXPECT_TRUE(json->Find("boolean")->bool_value);
  ASSERT_TRUE(json->Find("rows")->is_array());
  ASSERT_EQ(json->Find("rows")->array.size(), 1u);
  EXPECT_EQ(json->Find("rows")->array[0].array[0].int_value, 0);
  EXPECT_EQ(json->Find("rewrite")->Find("p")->int_value, 128);
  EXPECT_FALSE(json->Find("partial")->bool_value);
  EXPECT_FALSE(json->Find("truncated")->bool_value);
  EXPECT_GE(json->Find("eval_ms")->number, 0.0);
}

TEST_F(QueryEndpointTest, ConcurrentUnknownConstantsLeaveTheVocabularyAlone) {
  // Two clients send constants the database has never seen, concurrently.
  // Parsing only reads the shared vocabulary, so neither races the other
  // nor grows it; the constants stay query-local and render by name.
  ASSERT_TRUE(registry_
                  .AddFromSource("planes",
                                 "plane(0, hunter).\n"
                                 "plane(T+2, X) :- plane(T, X).\n")
                  .ok());
  const Vocabulary& vocab = registry_.Find("planes")->tdd.vocab();
  const std::size_t before = vocab.num_constants();
  HttpServerOptions options;
  options.num_workers = 2;
  server_ = std::make_unique<HttpServer>(options);
  RegisterQueryEndpoints(*server_, &registry_, {});
  ASSERT_TRUE(server_->Start().ok());
  const int port = server_->port();

  constexpr int kClients = 2;
  constexpr int kRequestsPerClient = 40;
  std::atomic<int> correct{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&correct, port, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::string name =
            "c" + std::to_string(c) + "_" + std::to_string(i);
        const std::string response = Post(
            port, "/query",
            "{\"database\":\"planes\",\"query\":\"~plane(1, X) & "
            "~plane(3, " + name + ")\"}");
        auto json = ParseJson(Body(response));
        if (!json.ok() || json->Find("rows") == nullptr) continue;
        const auto& rows = json->Find("rows")->array;
        // hunter flies on even days only; X ranges over {hunter, name}.
        if (rows.size() == 2 && rows[0].array[0].string_value == "hunter" &&
            rows[1].array[0].string_value == name) {
          correct.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server_->Stop();
  EXPECT_EQ(correct.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(vocab.num_constants(), before);
}

TEST_F(QueryEndpointTest, MalformedJsonIs400) {
  const int port = StartServer();
  EXPECT_NE(Post(port, "/query", "{oops").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(Post(port, "/query", "[1,2]").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(Post(port, "/query", R"j({"no_query":1})j").find("HTTP/1.1 400"),
            std::string::npos);
  // A well-formed request with an unparseable query is also the client's
  // fault.
  EXPECT_NE(
      Post(port, "/query", R"j({"query":"unknown_pred(T)"})j")
          .find("HTTP/1.1 400"),
      std::string::npos);
}

TEST_F(QueryEndpointTest, UnknownDatabaseIs404AndListsKnownOnes) {
  const int port = StartServer();
  const std::string response =
      Post(port, "/query", R"j({"query":"tick(T)","database":"missing"})j");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos) << response;
  EXPECT_NE(response.find("\"default\""), std::string::npos) << response;
}

TEST_F(QueryEndpointTest, MaxRowsTruncatesAndSaysSo) {
  const int port = StartServer();
  const std::string response = Post(
      port, "/query", R"j({"query":"tick(T) | ~tick(T)","max_rows":2})j");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << response;
  EXPECT_TRUE(json->Find("truncated")->bool_value);
  EXPECT_EQ(json->Find("rows")->array.size(), 2u);
  EXPECT_EQ(json->Find("rows_returned")->int_value, 2);
}

TEST_F(QueryEndpointTest, DeadlineMarksAnswerPartial) {
  // A second database whose representative segment is wide enough that the
  // quantifier product below costs well over a millisecond.
  ASSERT_TRUE(registry_
                  .AddFromSource("slow", R"(
                    tick(0).
                    tick(T+1024) :- tick(T).
                  )")
                  .ok());
  const int port = StartServer();
  // `forall` cannot short-circuit over a tautology, so the evaluation is a
  // full ~1k x ~1k quantifier product — far more than a millisecond.
  const std::string response = Post(
      port, "/query",
      R"j({"query":"forall T (forall S (tick(S) | ~tick(S) | tick(T)))",)j"
      R"j("database":"slow","deadline_ms":1})j");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << response;
  EXPECT_TRUE(json->Find("partial")->bool_value) << Body(response);
}

TEST_F(QueryEndpointTest, HugeDeadlineDoesNotOverflowIntoThePast) {
  // With no max_timeout cap configured, a deadline_ms of 2^62 used to
  // overflow steady_clock::now() + timeout into the past, turning every
  // answer spuriously partial. The clamp must treat it as unlimited.
  QueryServiceOptions options;
  options.max_timeout = std::chrono::milliseconds(0);
  const int port = StartServer(options);
  const std::string response = Post(
      port, "/query",
      R"j({"query":"tick(T)","deadline_ms":4611686018427387904})j");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << response;
  EXPECT_FALSE(json->Find("partial")->bool_value) << Body(response);
  ASSERT_TRUE(json->Find("rows")->is_array());
  EXPECT_EQ(json->Find("rows")->array.size(), 1u);
}

TEST_F(QueryEndpointTest, EvalMsStaysValidJsonUnderCommaDecimalLocale) {
  // std::to_string(double) honors LC_NUMERIC: under a comma-decimal locale
  // it would render eval_ms as "0,042" and corrupt the JSON document. The
  // endpoint must format locale-independently. When the locale is not
  // installed in the test image, setlocale fails and this still verifies
  // the default-locale rendering parses.
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous != nullptr ? previous : "C";
  const bool have_locale =
      std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
      std::setlocale(LC_NUMERIC, "de_DE.utf8") != nullptr;
  const int port = StartServer();
  const std::string response =
      Post(port, "/query", R"j({"query":"tick(T)"})j");
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << json.status() << "\n"
                         << response << "\n(comma-decimal locale active: "
                         << (have_locale ? "yes" : "no") << ")";
  EXPECT_GE(json->Find("eval_ms")->number, 0.0);
}

TEST_F(QueryEndpointTest, InvalidLimitsAre400) {
  const int port = StartServer();
  EXPECT_NE(
      Post(port, "/query", R"j({"query":"tick(T)","deadline_ms":-5})j")
          .find("HTTP/1.1 400"),
      std::string::npos);
  EXPECT_NE(
      Post(port, "/query", R"j({"query":"tick(T)","deadline_ms":"soon"})j")
          .find("HTTP/1.1 400"),
      std::string::npos);
  EXPECT_NE(Post(port, "/query", R"j({"query":"tick(T)","max_rows":-1})j")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(QueryEndpointTest, DatabasesEndpointListsRegistry) {
  ASSERT_TRUE(registry_.AddFromSource("even", "even(0). even(T+2) :- even(T).")
                  .ok());
  const int port = StartServer();
  const std::string response = Get(port, "/databases");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << response;
  const JsonValue* dbs = json->Find("databases");
  ASSERT_NE(dbs, nullptr);
  ASSERT_EQ(dbs->array.size(), 2u);
  EXPECT_EQ(dbs->array[0].Find("name")->string_value, "default");
  EXPECT_EQ(dbs->array[1].Find("name")->string_value, "even");
  EXPECT_EQ(dbs->array[1].Find("period_p")->int_value, 2);
}

TEST_F(QueryEndpointTest, AnalyzeEndpointReportsStaticAnalysis) {
  const int port = StartServer();
  // The fixture program `tick(0). tick(T+128) :- tick(T).` is an EDB-seeded
  // self-delay predicate: the flow analysis certifies period divisor 128.
  const std::string response = Get(port, "/analyze?db=default");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << json.status() << "\n" << response;
  EXPECT_EQ(json->Find("database")->string_value, "default");
  EXPECT_FALSE(json->Find("bounded")->bool_value);
  EXPECT_EQ(json->Find("period_divisor")->int_value, 128);
  ASSERT_TRUE(json->Find("predicates")->is_array());
  ASSERT_EQ(json->Find("predicates")->array.size(), 1u);
  EXPECT_EQ(json->Find("predicates")->array[0].Find("name")->string_value,
            "tick");
  ASSERT_TRUE(json->Find("diagnostics")->is_array());
  EXPECT_FALSE(json->Find("diagnostics")->array.empty());
}

TEST_F(QueryEndpointTest, AnalyzeEndpointDefaultsToTheDefaultDatabase) {
  const int port = StartServer();
  const std::string response = Get(port, "/analyze");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << response;
  EXPECT_EQ(json->Find("database")->string_value, "default");
}

TEST_F(QueryEndpointTest, AnalyzeEndpointUnknownDatabaseIs404) {
  const int port = StartServer();
  const std::string response = Get(port, "/analyze?db=nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos) << response;
  // The error lists the registered names, same contract as POST /query.
  EXPECT_NE(response.find("\"default\""), std::string::npos) << response;
}

TEST_F(QueryEndpointTest, RegistryRejectsDuplicatesAndBadPrograms) {
  EXPECT_EQ(registry_.AddFromSource("default", "p(0).").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry_.AddFromSource("bad", "p(X).").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry_.AddFromFile("missing", "/no/such/file.tdl").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry_.size(), 1u);
  EXPECT_EQ(registry_.Find("bad"), nullptr);
}

// Matches the TSan ctest filter ('Parallel'): a flood of concurrent slow
// queries against a single admission slot must shed load with 429s while
// still serving at least one query, and the rejection must be counted.
TEST(QueryEndpointParallelTest, FloodShedsWith429) {
  DatabaseRegistry registry;
  ASSERT_TRUE(registry
                  .AddFromSource("default", R"(
                    tick(0).
                    tick(T+1024) :- tick(T).
                  )")
                  .ok());
  MetricsRegistry metrics;
  HttpServerOptions server_options;
  server_options.num_workers = 4;
  HttpServer server(server_options);
  QueryServiceOptions options;
  options.max_in_flight = 1;
  options.metrics = &metrics;
  // Each query costs tens of milliseconds (quadratic quantifier product
  // over ~1k representatives), so concurrent requests overlap reliably.
  options.default_timeout = std::chrono::milliseconds(2000);
  RegisterQueryEndpoints(server, &registry, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::atomic<int> rejected_with_id{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&ok, &rejected, &rejected_with_id,
                          port = server.port()] {
      const std::string response = Post(
          port, "/query",
          R"j({"query":"forall T (forall S (tick(S) | ~tick(S) | tick(T)))"})j");
      if (response.find("HTTP/1.1 200") != std::string::npos) {
        ok.fetch_add(1, std::memory_order_relaxed);
      } else if (response.find("HTTP/1.1 429") != std::string::npos) {
        rejected.fetch_add(1, std::memory_order_relaxed);
        if (response.find("\"request_id\":\"q-") != std::string::npos) {
          rejected_with_id.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(ok.load() + rejected.load(), kClients);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(rejected.load(), 1);
  EXPECT_EQ(rejected_with_id.load(), rejected.load());  // 429s carry the id
  EXPECT_EQ(metrics.counter("query.rejected")->value(),
            static_cast<uint64_t>(rejected.load()));
}

}  // namespace
}  // namespace chronolog
