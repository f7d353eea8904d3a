// chronolog_qstats: query-shape normalization, the statement-statistics
// store (including its concurrency contract — this suite runs under the
// ThreadSanitizer CI configuration), and the /statements + /explain
// endpoints scraped over real sockets.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "query/query_shape.h"
#include "serve/http_server.h"
#include "serve/query_endpoints.h"
#include "serve/registry.h"
#include "serve/statements.h"
#include "util/json.h"

namespace chronolog {
namespace {

TEST(StatementShapeTest, StripsConstantsToPlaceholders) {
  EXPECT_EQ(NormalizeQueryShape("tick(3)"), "tick(N)");
  EXPECT_EQ(NormalizeQueryShape("tick(17)"), "tick(N)");
  EXPECT_EQ(NormalizeQueryShape("tok(3, a0)"), "tok(N, ?)");
  // Different constants, one shape — the aggregation key pg_stat_statements
  // style.
  EXPECT_EQ(NormalizeQueryShape("tok(9, zebra)"),
            NormalizeQueryShape("tok(3, a0)"));
}

TEST(StatementShapeTest, KeepsVariablesAndQuantifiers) {
  EXPECT_EQ(NormalizeQueryShape("exists T (tick(T))"),
            "exists T (tick(T))");
  EXPECT_EQ(NormalizeQueryShape("forall T (tick(T))"),
            "forall T (tick(T))");
  // Variables are part of the shape; only constants are stripped.
  EXPECT_EQ(NormalizeQueryShape("tok(T, X)"), "tok(T, X)");
}

TEST(StatementShapeTest, CanonicalizesConnectivesToSymbols) {
  EXPECT_EQ(NormalizeQueryShape("tick(3) and tick(131)"),
            "tick(N), tick(N)");
  // `&` and `and` are the same connective after normalization.
  EXPECT_EQ(NormalizeQueryShape("tick(3) & tick(4)"),
            NormalizeQueryShape("tick(3) and tick(4)"));
  EXPECT_EQ(NormalizeQueryShape("tick(T) or not tick(T+1)"),
            "tick(T) | ~tick(T+N)");
}

TEST(StatementShapeTest, WhitespaceDoesNotChangeTheShape) {
  EXPECT_EQ(NormalizeQueryShape("  tick( 3 )  "),
            NormalizeQueryShape("tick(3)"));
  EXPECT_EQ(NormalizeQueryShape("tick(3)and tick(4)"),
            NormalizeQueryShape("tick(3)   and   tick(4)"));
}

TEST(StatementShapeTest, UnlexableTextFallsBackToTrimmedRawText) {
  // '^' never lexes; the raw (trimmed) text becomes the shape.
  EXPECT_EQ(NormalizeQueryShape("  ^oops^  "), "^oops^");
  // Comment-only text lexes to nothing — also fall back rather than keying
  // the store on an empty string.
  EXPECT_EQ(NormalizeQueryShape("  % just a comment "), "% just a comment");
}

TEST(StatementStatsTest, AccumulatesUnderOneShapeEntry) {
  StatementStats stats;
  StatementStats::Entry* entry = stats.GetOrCreate("tick(N)");
  ASSERT_NE(entry, nullptr);
  // Same shape resolves to the same stable entry.
  EXPECT_EQ(stats.GetOrCreate("tick(N)"), entry);
  entry->Record(/*row_count=*/3, /*was_partial=*/false,
                /*was_truncated=*/true, /*lookups=*/5, /*rewrites=*/7,
                /*parse_nanos=*/100, /*eval_nanos=*/2000);
  entry->Record(1, true, false, 2, 3, 50, 1000);
  EXPECT_EQ(entry->calls.load(), 2u);
  EXPECT_EQ(entry->rows.load(), 4u);
  EXPECT_EQ(entry->partial.load(), 1u);
  EXPECT_EQ(entry->truncated.load(), 1u);
  EXPECT_EQ(entry->oracle_lookups.load(), 7u);
  EXPECT_EQ(entry->rewrite_steps.load(), 10u);
  EXPECT_EQ(entry->parse_ns.load(), 150u);
  EXPECT_EQ(stats.TotalCalls(), 2u);
}

TEST(StatementStatsTest, ToJsonSortsByTotalEvalTimeDescending) {
  StatementStats stats;
  stats.GetOrCreate("cheap(N)")->Record(0, false, false, 1, 1, 10, 100);
  stats.GetOrCreate("costly(N)")->Record(0, false, false, 1, 1, 10, 9000);
  auto json = ParseJson(stats.ToJson());
  ASSERT_TRUE(json.ok()) << json.status();
  const JsonValue* statements = json->Find("statements");
  ASSERT_NE(statements, nullptr);
  ASSERT_EQ(statements->array.size(), 2u);
  EXPECT_EQ(statements->array[0].Find("shape")->string_value, "costly(N)");
  EXPECT_EQ(statements->array[1].Find("shape")->string_value, "cheap(N)");
  EXPECT_EQ(statements->array[0].Find("eval_ns")->Find("sum")->int_value,
            9000);
  EXPECT_EQ(statements->array[0].Find("eval_ns")->Find("p50")->number,
            statements->array[0].Find("eval_ns")->Find("p99")->number);
}

TEST(StatementStatsTest, ResetStartsAFreshGenerationAndKeepsOldPointers) {
  StatementStats stats;
  StatementStats::Entry* old_entry = stats.GetOrCreate("tick(N)");
  old_entry->Record(1, false, false, 1, 1, 10, 100);
  stats.Reset();
  EXPECT_EQ(stats.TotalCalls(), 0u);
  // A straggler holding the pre-reset pointer may still record safely; its
  // update lands in the retired generation and is simply not reported.
  old_entry->Record(1, false, false, 1, 1, 10, 100);
  EXPECT_EQ(stats.TotalCalls(), 0u);
  StatementStats::Entry* fresh = stats.GetOrCreate("tick(N)");
  EXPECT_NE(fresh, old_entry);
  EXPECT_EQ(fresh->calls.load(), 0u);
}

// The store's core concurrency contract, exercised directly: writers on two
// shapes race a Reset-free reader; counts must come out exact and the
// reader's view monotone. Runs under TSan in CI.
TEST(StatementStatsConcurrencyTest, ParallelRecordsAreExactAndMonotone) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  StatementStats stats;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t now = stats.TotalCalls();
      EXPECT_GE(now, last);  // totals never go backwards
      last = now;
      // The JSON view must stay well-formed mid-churn.
      auto json = ParseJson(stats.ToJson());
      EXPECT_TRUE(json.ok());
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stats, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const char* shape = (i % 2 == 0) ? "tick(N)" : "exists T (tick(T))";
        stats.GetOrCreate(shape)->Record(1, false, false, 2, 3,
                                         10 + w, 100 + i);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(stats.TotalCalls(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(stats.GetOrCreate("tick(N)")->calls.load(),
            static_cast<uint64_t>(kWriters) * (kPerWriter / 2));
  EXPECT_EQ(stats.GetOrCreate("exists T (tick(T))")->calls.load(),
            static_cast<uint64_t>(kWriters) * (kPerWriter / 2));
}

// ---------------------------------------------------------------------------
// Endpoint-level tests: real sockets against a served registry.

/// Sends one raw HTTP request and returns the full response; the request
/// asks for `Connection: close` so EOF frames the response.
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
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
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

std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n" +
                              "Connection: close\r\n\r\n");
}

std::string Post(int port, const std::string& path, const std::string& body,
                 const std::string& request_id = "") {
  std::string request = "POST " + path + " HTTP/1.1\r\nHost: t\r\n";
  if (!request_id.empty()) {
    request += "X-Request-Id: " + request_id + "\r\n";
  }
  request += "Connection: close\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
  return RawRequest(port, request);
}

std::string Body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// A client connection held open across requests, framing each response by
/// its Content-Length — the real keep-alive client contract.
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
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               0);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string ReadResponse() {
    std::size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return "";
    }
    std::size_t body_size = 0;
    const std::size_t cl = buffer_.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
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
  std::string buffer_;
};

class StatementEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(registry_
                    .AddFromSource("default", R"(
                      tick(0).
                      tick(T+128) :- tick(T).
                    )")
                    .ok());
  }
  int StartServer(QueryServiceOptions options = {}, int workers = 2) {
    HttpServerOptions server_options;
    server_options.num_workers = workers;
    server_ = std::make_unique<HttpServer>(server_options);
    RegisterQueryEndpoints(*server_, &registry_, options);
    EXPECT_TRUE(server_->Start().ok());
    return server_->port();
  }
  DatabaseRegistry registry_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(StatementEndpointTest, QueriesAccumulateByShapeAndResetClears) {
  const int port = StartServer();
  // Three queries, two shapes: the constants differ but normalize together.
  EXPECT_NE(Post(port, "/query", R"j({"query":"tick(0)"})j")
                .find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(Post(port, "/query", R"j({"query":"tick(128)"})j")
                .find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(Post(port, "/query", R"j({"query":"exists T (tick(T))"})j")
                .find("HTTP/1.1 200"),
            std::string::npos);

  auto json = ParseJson(Body(Get(port, "/statements")));
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_EQ(json->Find("database")->string_value, "default");
  const JsonValue* statements = json->Find("statements");
  ASSERT_NE(statements, nullptr);
  ASSERT_EQ(statements->array.size(), 2u);
  uint64_t ticks = 0, exists = 0;
  for (const JsonValue& s : statements->array) {
    const std::string& shape = s.Find("shape")->string_value;
    const auto calls = static_cast<uint64_t>(s.Find("calls")->int_value);
    if (shape == "tick(N)") ticks = calls;
    if (shape == "exists T (tick(T))") exists = calls;
    EXPECT_GT(s.Find("eval_ns")->Find("count")->int_value, 0);
  }
  EXPECT_EQ(ticks, 2u);
  EXPECT_EQ(exists, 1u);

  // reset=1 renders the window it wipes, then starts fresh.
  auto wiped = ParseJson(Body(Get(port, "/statements?reset=1")));
  ASSERT_TRUE(wiped.ok());
  EXPECT_EQ(wiped->Find("statements")->array.size(), 2u);
  auto after = ParseJson(Body(Get(port, "/statements")));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Find("statements")->array.size(), 0u);
}

TEST_F(StatementEndpointTest, UnknownDatabaseIs404) {
  const int port = StartServer();
  EXPECT_NE(Get(port, "/statements?db=missing").find("HTTP/1.1 404"),
            std::string::npos);
}

TEST_F(StatementEndpointTest, TrackingOffKeepsTheStoreEmpty) {
  QueryServiceOptions options;
  options.track_statements = false;
  const int port = StartServer(options);
  EXPECT_NE(Post(port, "/query", R"j({"query":"tick(0)"})j")
                .find("HTTP/1.1 200"),
            std::string::npos);
  auto json = ParseJson(Body(Get(port, "/statements")));
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("statements")->array.size(), 0u);
}

TEST_F(StatementEndpointTest, RequestIdRoundTripsIntoResponses) {
  const int port = StartServer();
  auto json = ParseJson(
      Body(Post(port, "/query", R"j({"query":"tick(0)"})j", "gate-77")));
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_EQ(json->Find("request_id")->string_value, "gate-77");
  // Without a client id the server generates one.
  auto generated =
      ParseJson(Body(Post(port, "/query", R"j({"query":"tick(0)"})j")));
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(generated->Find("request_id")->string_value.rfind("q-", 0), 0u);
  // Error responses carry the id too, so failures correlate.
  auto failed = ParseJson(Body(Post(
      port, "/query", R"j({"query":"no_such(T)"})j", "gate-78")));
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->Find("request_id")->string_value, "gate-78");
  // So do the body-decoding failures and the unknown-database 404.
  const std::pair<const char*, const char*> rejected[] = {
      {"[1]", "HTTP/1.1 400"},
      {R"j({"no_query":1})j", "HTTP/1.1 400"},
      {R"j({"query":"tick(0)","database":7})j", "HTTP/1.1 400"},
      {R"j({"query":"tick(0)","database":"nope"})j", "HTTP/1.1 404"},
      {R"j({"query":"tick(0)","deadline_ms":-1})j", "HTTP/1.1 400"},
      {R"j({"query":"tick(0)","max_rows":"x"})j", "HTTP/1.1 400"},
  };
  for (const auto& [body, status] : rejected) {
    SCOPED_TRACE(body);
    const std::string response = Post(port, "/query", body, "gate-79");
    EXPECT_EQ(response.rfind(status, 0), 0u) << response;
    auto error = ParseJson(Body(response));
    ASSERT_TRUE(error.ok()) << error.status();
    ASSERT_NE(error->Find("request_id"), nullptr) << response;
    EXPECT_EQ(error->Find("request_id")->string_value, "gate-79");
  }
}

TEST_F(StatementEndpointTest, ExplainReportsPlanWithoutExecuting) {
  const int port = StartServer();
  const std::string response =
      Post(port, "/explain", R"j({"query":"tick(128)"})j", "exp-1");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  auto json = ParseJson(Body(response));
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_EQ(json->Find("request_id")->string_value, "exp-1");
  EXPECT_EQ(json->Find("shape")->string_value, "tick(N)");
  EXPECT_FALSE(json->Find("executed")->bool_value);
  // The rewrite rule matches what /query reports for the same database.
  auto answered =
      ParseJson(Body(Post(port, "/query", R"j({"query":"tick(128)"})j")));
  ASSERT_TRUE(answered.ok());
  EXPECT_EQ(json->Find("rewrite")->Find("lhs")->int_value,
            answered->Find("rewrite")->Find("lhs")->int_value);
  EXPECT_EQ(json->Find("rewrite")->Find("p")->int_value,
            answered->Find("rewrite")->Find("p")->int_value);
  EXPECT_EQ(json->Find("rewrite")->Find("rhs")->int_value,
            json->Find("rewrite")->Find("lhs")->int_value -
                json->Find("rewrite")->Find("p")->int_value);
  // One recursive rule, and its cached plan from the spec build.
  const JsonValue* plans = json->Find("plans");
  ASSERT_NE(plans, nullptr);
  ASSERT_EQ(plans->array.size(), 1u);
  EXPECT_NE(plans->array[0].Find("rule")->string_value.find("tick"),
            std::string::npos);
  EXPECT_GE(plans->array[0].Find("slots")->array.size(), 1u);
  // EXPLAIN itself must not count as a statement call.
  auto stats = ParseJson(Body(Get(port, "/statements")));
  ASSERT_TRUE(stats.ok());
  uint64_t tick_calls = 0;
  for (const JsonValue& s : stats->Find("statements")->array) {
    if (s.Find("shape")->string_value == "tick(N)") {
      tick_calls = static_cast<uint64_t>(s.Find("calls")->int_value);
    }
  }
  EXPECT_EQ(tick_calls, 1u);  // only the /query call, not the /explain
}

TEST_F(StatementEndpointTest, ExplainMalformedRequestsAre400) {
  const int port = StartServer();
  EXPECT_NE(Post(port, "/explain", "{oops").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(Post(port, "/explain", R"j({"no_query":1})j")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(Post(port, "/explain", R"j({"query":"no_such(T)"})j")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(
      Post(port, "/explain", R"j({"query":"tick(0)","database":"nope"})j")
          .find("HTTP/1.1 404"),
      std::string::npos);
}

// The serving-path concurrency gate: keep-alive clients hammer two shapes
// through 4 HTTP workers while a scraper polls /statements; final counts
// must be exact. Runs under TSan in CI.
TEST_F(StatementEndpointTest, KeepAliveClientsYieldExactCountsUnderLoad) {
  QueryServiceOptions options;
  options.max_in_flight = 0;  // no admission control: every request counts
  const int port = StartServer(options, /*workers=*/4);
  constexpr int kClients = 4;
  constexpr int kPerClient = 24;

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto json = ParseJson(Body(Get(port, "/statements")));
      ASSERT_TRUE(json.ok());
      uint64_t total = 0;
      for (const JsonValue& s : json->Find("statements")->array) {
        total += static_cast<uint64_t>(s.Find("calls")->int_value);
      }
      EXPECT_GE(total, last);  // calls only ever accumulate
      last = total;
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> ok_responses{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      KeepAliveClient client;
      ASSERT_TRUE(client.Connect(port));
      for (int i = 0; i < kPerClient; ++i) {
        // Alternate two shapes; vary the constant so normalization is what
        // merges them, not textual identity.
        const std::string body =
            (i % 2 == 0)
                ? "{\"query\":\"tick(" + std::to_string((i % 4) * 128) +
                      ")\"}"
                : std::string("{\"query\":\"exists T (tick(T))\"}");
        const std::string request =
            "POST /query HTTP/1.1\r\nHost: t\r\nX-Request-Id: c" +
            std::to_string(c) + "-" + std::to_string(i) +
            "\r\nContent-Length: " + std::to_string(body.size()) +
            "\r\n\r\n" + body;
        ASSERT_TRUE(client.Send(request));
        const std::string response = client.ReadResponse();
        ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos)
            << response;
        ok_responses.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  ASSERT_EQ(ok_responses.load(), kClients * kPerClient);

  auto json = ParseJson(Body(Get(port, "/statements")));
  ASSERT_TRUE(json.ok());
  uint64_t ticks = 0, exists = 0;
  for (const JsonValue& s : json->Find("statements")->array) {
    const std::string& shape = s.Find("shape")->string_value;
    if (shape == "tick(N)") {
      ticks = static_cast<uint64_t>(s.Find("calls")->int_value);
    } else if (shape == "exists T (tick(T))") {
      exists = static_cast<uint64_t>(s.Find("calls")->int_value);
    }
  }
  EXPECT_EQ(ticks, static_cast<uint64_t>(kClients) * (kPerClient / 2));
  EXPECT_EQ(exists, static_cast<uint64_t>(kClients) * (kPerClient / 2));
}

}  // namespace
}  // namespace chronolog
