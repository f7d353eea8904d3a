// chronolog_obs: the metrics registry (counters and log2-bucketed
// histograms), the RAII trace spans with thread-local nesting, the JSON
// exporters, and the engine-level wiring behind
// EngineOptions::collect_metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "serve/registry.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

TEST(MetricsTest, CounterAccumulatesAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&c] {
      for (int j = 0; j < 1000; ++j) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  c.Add(5);
  EXPECT_EQ(c.value(), 4005u);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  Histogram h;
  h.RecordValue(0);  // bucket 0
  h.RecordValue(1);  // bit_width 1
  h.RecordValue(2);  // bit_width 2
  h.RecordValue(3);  // bit_width 2
  h.RecordValue(4);  // bit_width 3
  h.RecordValue(7);  // bit_width 3
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 17u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_NEAR(h.mean(), 17.0 / 6.0, 1e-9);
}

TEST(MetricsTest, HistogramRecordMsConvertsToNanoseconds) {
  Histogram h;
  h.RecordMs(1.0);  // 1e6 ns -> bit_width 20
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket(20), 1u);
  EXPECT_EQ(h.sum(), 1'000'000u);
}

TEST(MetricsTest, RegistryReturnsStablePointersAndGetOrCreates) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("a.events");
  Counter* c2 = reg.counter("a.events");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.counter("b.events"), c1);
  EXPECT_FALSE(reg.has_histogram("a.lat_ns"));
  Histogram* h = reg.histogram("a.lat_ns");
  EXPECT_TRUE(reg.has_histogram("a.lat_ns"));
  EXPECT_EQ(reg.histogram("a.lat_ns"), h);
}

TEST(MetricsTest, EmptyRegistryJson) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.ToJson(),
            "{\"counters\":{},\"histograms\":{}}");
}

TEST(MetricsTest, JsonContainsAllInstrumentKinds) {
  MetricsRegistry reg;
  reg.counter("x.n")->Add(3);
  reg.histogram("x.h")->RecordValue(5);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"x.n\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"x.h\""), std::string::npos) << json;
  // Value 5 has bit width 3: one sample in the bucket with le = 2^3.
  EXPECT_NE(json.find("\"buckets\":[{\"le\":8,\"n\":1}]"), std::string::npos)
      << json;
}

TEST(MetricsTest, PhaseTimerWritesFieldAndHistogram) {
  Histogram h;
  double field = 0;
  {
    PhaseTimer t(/*enabled=*/true, &field, &h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(field, 0.0);

  // Disabled timers never touch their sinks (and never read the clock).
  double untouched = 0;
  {
    PhaseTimer t(/*enabled=*/false, &untouched, &h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(untouched, 0.0);

  // Stop is idempotent: the destructor must not double-record.
  {
    PhaseTimer t(/*enabled=*/true, nullptr, &h);
    t.Stop();
    t.Stop();
  }
  EXPECT_EQ(h.count(), 2u);
}

TEST(TraceTest, SpansNestViaThreadLocalDepth) {
  TraceBuffer buf;
  {
    TraceSpan outer(&buf, "outer");
    {
      TraceSpan inner(&buf, "inner");
    }
    {
      TraceSpan inner2(&buf, "inner2");
    }
  }
  const std::vector<TraceEvent> events = buf.events();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: inner spans land before the scope enclosing them.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_STREQ(events[1].name, "inner2");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_LE(events[2].start_us, events[0].start_us);
}

TEST(TraceTest, NullBufferIsANoop) {
  TraceSpan span(nullptr, "nothing");
  // Depth bookkeeping must stay balanced: a following real span is a root.
  TraceBuffer buf;
  {
    TraceSpan real(&buf, "root");
  }
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.events()[0].depth, 0);
}

TEST(TraceTest, CapacityBoundsMemoryAndCountsDrops) {
  TraceBuffer buf(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span(&buf, "s");
  }
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.dropped(), 3u);
  const std::string json = buf.ToJson();
  EXPECT_NE(json.find("\"dropped\":3"), std::string::npos) << json;
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

// Engine wiring, progressive path: building the specification for a
// progressive program runs ForwardSimulate, which must populate the
// forward.* instruments and emit nested spans.
TEST(EngineMetricsTest, CollectMetricsPopulatesForwardInstruments) {
  EngineOptions options;
  options.collect_metrics = true;
  auto tdd = TemporalDatabase::FromSource(R"(
    even(0).
    even(T+2) :- even(T).
  )", options);
  ASSERT_TRUE(tdd.ok()) << tdd.status();
  auto answer = tdd->Ask("even(1000000)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(*answer);

  ASSERT_NE(tdd->metrics(), nullptr);
  ASSERT_NE(tdd->trace(), nullptr);
  EXPECT_GT(tdd->metrics()->counter("forward.timesteps")->value(), 0u);
  EXPECT_GT(tdd->metrics()->histogram("forward.timestep_ns")->count(), 0u);
  EXPECT_GT(tdd->trace()->size(), 0u);

  const std::string json = tdd->MetricsJson();
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("forward.timesteps"), std::string::npos);
}

// Engine wiring, doubling path: a non-progressive program goes through
// DetectByDoubling, which must count its probes and time its phases.
TEST(EngineMetricsTest, CollectMetricsPopulatesDoublingInstruments) {
  EngineOptions options;
  options.collect_metrics = true;
  auto tdd = TemporalDatabase::FromSource(R"(
    q(100).
    p(T) :- q(T+1).
    p(T) :- p(T+1).
  )", options);
  ASSERT_TRUE(tdd.ok()) << tdd.status();
  auto answer = tdd->Ask("p(99)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(*answer);
  EXPECT_GT(tdd->metrics()->counter("period.doublings")->value(), 0u);
  EXPECT_GT(tdd->metrics()->histogram("period.extend_ns")->count(), 0u);
  EXPECT_GT(tdd->metrics()->counter("fixpoint.rounds")->value(), 0u);
}

// Long runs keep the trace small: the forward simulator records no span per
// timestep (its per-timestep histograms carry that), so registering rings/6
// (30030 timesteps) and even leaves only a handful of spans per database.
TEST(EngineMetricsTest, RegisteringLongForwardRunsKeepsTheTraceSmall) {
  DatabaseRegistry registry;
  ASSERT_TRUE(registry
                  .AddFromSource("rings6", workload::TokenRingSource(
                                               {2, 3, 5, 7, 11, 13}))
                  .ok());
  ASSERT_TRUE(registry.AddFromSource("even", workload::EvenSource()).ok());
  for (const std::string& name : registry.names()) {
    const TraceBuffer* trace = registry.Find(name)->tdd.trace();
    ASSERT_NE(trace, nullptr) << name;
    EXPECT_GT(trace->size(), 0u) << name;
    EXPECT_LT(trace->size(), 1000u) << name;
    EXPECT_EQ(trace->dropped(), 0u) << name;
  }
}

// --- PR 5 exporters -------------------------------------------------------

// Every instrument kind must survive the Prometheus text round trip:
// counters as `counter`, histograms as cumulative `_bucket{le=...}` /
// `_sum` / `_count`.
TEST(MetricsTest, PrometheusTextCoversAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.counter("query.asks")->Add(3);
  Histogram* h = registry.histogram("query.latency_ns");
  h->RecordValue(0);  // bucket 0
  h->RecordValue(3);  // bucket 2: [2, 4)
  h->RecordValue(3);
  const std::string text = registry.ToPrometheusText();

  // Dotted names are sanitised; HELP lines keep the original spelling.
  EXPECT_NE(text.find("# HELP query_asks chronolog instrument query.asks\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE query_asks counter\n"), std::string::npos);
  EXPECT_NE(text.find("query_asks 3\n"), std::string::npos);

  EXPECT_NE(text.find("# TYPE query_latency_ns histogram\n"),
            std::string::npos);
  // Cumulative: 1 sample <= 0, still 1 below 2, all 3 below 4, +Inf = 3.
  EXPECT_NE(text.find("query_latency_ns_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("query_latency_ns_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("query_latency_ns_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("query_latency_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("query_latency_ns_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find("query_latency_ns_count 3\n"), std::string::npos);

  // Exposition hygiene: every non-comment line is `name[{labels}] value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':' || c == '{' || c == '}' || c == '=' || c == '"' ||
                  c == '+' || c == '.' || c == '-')
          << "bad exposition char in: " << line;
    }
    EXPECT_EQ(name.find('.'), std::string::npos)
        << "unsanitised dot in metric name: " << line;
  }
}

TEST(MetricsTest, PrometheusTextEmptyRegistry) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToPrometheusText(), "");
}

TEST(MetricsTest, HistogramQuantilesClampToObservedRange) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("q");
  EXPECT_EQ(h->Quantile(0.5), 0.0);  // empty histogram
  h->RecordValue(100);
  // One sample: every quantile is that sample (the in-bucket interpolation
  // is clamped to the observed min/max).
  EXPECT_EQ(h->Quantile(0.01), 100.0);
  EXPECT_EQ(h->Quantile(0.5), 100.0);
  EXPECT_EQ(h->Quantile(0.99), 100.0);
}

TEST(MetricsTest, HistogramQuantilesAreMonotoneWithinBucketBounds) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("q");
  for (uint64_t v = 1; v <= 1000; ++v) h->RecordValue(v);
  const double p50 = h->Quantile(0.50);
  const double p90 = h->Quantile(0.90);
  const double p99 = h->Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log2 buckets bound the error by the bucket the true quantile falls in:
  // the true p50 (500) sits in [256, 512), the true p90/p99 in [512, 1024)
  // clamped at the observed max of 1000.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  EXPECT_GE(p90, 512.0);
  EXPECT_LE(p90, 1000.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);
}

TEST(MetricsTest, PrometheusTextDerivesQuantileGauges) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("query.latency_ns");
  h->RecordValue(100);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE query_latency_ns_p50 gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("query_latency_ns_p50 100\n"), std::string::npos);
  EXPECT_NE(text.find("query_latency_ns_p90 100\n"), std::string::npos);
  EXPECT_NE(text.find("query_latency_ns_p99 100\n"), std::string::npos);
}

// Request-scope tagging (chronolog_qstats): spans recorded under an open
// TraceScope carry its id, and the Chrome export can slice to one request.
TEST(TraceTest, ChromeTraceJsonFiltersByRequestScope) {
  TraceBuffer buf;
  {
    TraceScope scope(&buf, "req-1");
    TraceSpan span(&buf, "first.query");
  }
  {
    TraceScope scope(&buf, "req-2");
    TraceSpan span(&buf, "second.query");
  }
  { TraceSpan span(&buf, "unscoped.work"); }

  // Unfiltered: everything, with request annotations on scoped spans.
  const std::string all = buf.ToChromeTraceJson();
  EXPECT_NE(all.find("\"name\":\"first.query\""), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"second.query\""), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"unscoped.work\""), std::string::npos);
  EXPECT_NE(all.find("\"request\":\"req-1\""), std::string::npos);

  // Filtered: only the spans recorded under the matching scope.
  const std::string filtered = buf.ToChromeTraceJson("req-1");
  EXPECT_NE(filtered.find("\"name\":\"first.query\""), std::string::npos);
  EXPECT_EQ(filtered.find("\"name\":\"second.query\""), std::string::npos);
  EXPECT_EQ(filtered.find("\"name\":\"unscoped.work\""), std::string::npos);
  EXPECT_NE(filtered.find("\"request\":\"req-1\""), std::string::npos);

  // A filter nothing matches yields a valid, span-free document.
  const std::string none = buf.ToChromeTraceJson("req-404");
  EXPECT_NE(none.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(none.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceTest, TraceScopeIsInactiveWithoutBufferOrId) {
  TraceBuffer buf;
  {
    TraceScope no_buffer(nullptr, "req-1");
    TraceScope no_id(&buf, "");
    TraceSpan span(&buf, "work");
  }
  // Neither inert scope tagged the span: a filter on req-1 excludes it.
  const std::string filtered = buf.ToChromeTraceJson("req-1");
  EXPECT_EQ(filtered.find("\"name\":\"work\""), std::string::npos);
}

// Chrome trace export: spans become "ph":"X" complete events whose ts/dur
// keep parent spans containing their children.
TEST(TraceTest, ChromeTraceJsonNestsContainedSpans) {
  TraceBuffer buf;
  {
    TraceSpan outer(&buf, "outer");
    TraceSpan inner(&buf, "inner");
  }
  const std::string json = buf.ToChromeTraceJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process_name
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);

  // Two complete events, both on the (dense-remapped) tid 1.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);

  // Containment on the raw events the JSON was generated from: the inner
  // span completed first and sits inside [start, start + dur] of the outer.
  const std::vector<TraceEvent> events = buf.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[0].start_us, events[1].start_us);
  EXPECT_LE(events[0].start_us + events[0].dur_us,
            events[1].start_us + events[1].dur_us);
}

// Events store durations in 32 bits of microseconds and depths in 16 bits;
// a larger value records the largest one instead of wrapping to a small one.
TEST(TraceTest, OverlongSpanDurationAndDepthSaturate) {
  TraceBuffer buf;
  const auto start = std::chrono::steady_clock::now();
  buf.Record("long", 70000, start, start + std::chrono::hours(100));
  buf.Record("short", 3, start, start + std::chrono::microseconds(7));
  const std::vector<TraceEvent> events = buf.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].dur_us, UINT32_MAX);
  EXPECT_EQ(events[0].depth, UINT16_MAX);
  EXPECT_EQ(events[1].dur_us, 7u);
  EXPECT_EQ(events[1].depth, 3);
}

TEST(TraceTest, ChromeTraceJsonEmptyBuffer) {
  TraceBuffer buf;
  const std::string json = buf.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

// Satellite (b): concurrent recorders against a bounded buffer. The suite
// name matches the TSan ctest filter ('Parallel'), so this runs under
// ThreadSanitizer in CI; the drop count must be exact, not approximate —
// capacity admission and the dropped counter share one critical section.
TEST(TraceBufferParallelTest, ConcurrentRecordersCountDropsExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSpansPerThread = 200;
  constexpr std::size_t kCapacity = 64;
  TraceBuffer buf(kCapacity);

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  std::atomic<bool> stop{false};
  // Concurrent readers: snapshots and exports must be safe mid-recording.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&buf, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)buf.events();
        (void)buf.ToJson();
        (void)buf.ToChromeTraceJson();
      }
    });
  }
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&buf] {
      for (std::size_t j = 0; j < kSpansPerThread; ++j) {
        TraceSpan span(&buf, "parallel.span");
      }
    });
  }
  for (std::size_t i = 2; i < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  threads[0].join();
  threads[1].join();

  EXPECT_EQ(buf.size(), kCapacity);
  EXPECT_EQ(buf.dropped(), kThreads * kSpansPerThread - kCapacity);
}

TEST(EngineMetricsTest, MetricsOffByDefault) {
  auto tdd = TemporalDatabase::FromSource("even(0). even(T+2) :- even(T).");
  ASSERT_TRUE(tdd.ok()) << tdd.status();
  EXPECT_EQ(tdd->metrics(), nullptr);
  EXPECT_EQ(tdd->trace(), nullptr);
  EXPECT_EQ(tdd->MetricsJson(), "{}");
}

}  // namespace
}  // namespace chronolog
