// Experiment E3 (DESIGN.md): Theorem 4.1 — the relational specification
// S_{Z∧D} = (T, B, W) is polynomially sized and polynomially computable iff
// the period is polynomially bounded.
//
// Reports |T| (representatives) and |B| (primary database facts) as
// counters next to the construction wall time: polynomial growth for the
// tractable classes (path, ski), explosive growth for the token rings.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "eval/fixpoint.h"
#include "spec/specification.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

void BuildAndReport(benchmark::State& state, const ParsedUnit& unit) {
  int64_t reps = 0;
  std::size_t primary = 0;
  for (auto _ : state) {
    auto spec = BuildSpecification(unit.program, unit.database);
    if (!spec.ok()) {
      state.SkipWithError(spec.status().ToString().c_str());
      return;
    }
    reps = spec->num_representatives();
    primary = spec->SizeInFacts();
  }
  state.counters["T_size"] = static_cast<double>(reps);
  state.counters["B_size"] = static_cast<double>(primary);
  state.counters["facts_n"] = static_cast<double>(unit.database.size());
}

void BM_SpecPath(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  std::mt19937 rng(777);
  ParsedUnit unit = bench::MustParse(
      workload::PathProgramSource() +
      workload::RandomGraphFactsSource(edges / 2, edges, &rng));
  BuildAndReport(state, unit);
}
BENCHMARK(BM_SpecPath)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_SpecSki(benchmark::State& state) {
  ParsedUnit unit = bench::MustParse(workload::SkiScheduleSource(
      static_cast<int>(state.range(0)), /*year_len=*/28, /*winter_len=*/8,
      /*holidays=*/2));
  BuildAndReport(state, unit);
}
BENCHMARK(BM_SpecSki)
    ->Arg(1)->Arg(8)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// The intractable contrast: |T| = b + c + p explodes with the lcm.
void BM_SpecTokenRings(benchmark::State& state) {
  std::vector<int> primes =
      bench::FirstPrimes(static_cast<int>(state.range(0)));
  ParsedUnit unit = bench::MustParse(workload::TokenRingSource(primes));
  BuildAndReport(state, unit);
}
BENCHMARK(BM_SpecTokenRings)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);

// Full-size paper scenario: the 365-day year with three seasons.
void BM_SpecSkiFullYear(benchmark::State& state) {
  ParsedUnit unit = bench::MustParse(workload::SkiScheduleSource(
      static_cast<int>(state.range(0)), /*year_len=*/365, /*winter_len=*/91,
      /*holidays=*/13));
  BuildAndReport(state, unit);
}
BENCHMARK(BM_SpecSkiFullYear)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

// Metered pass behind $CHRONOLOG_METRICS_OUT: re-runs representative
// spec-build workloads with a chronolog_obs registry attached and writes the
// combined dump (plus the host's hardware_concurrency, which the bench JSON
// header records) to that path. Covers every instrumented path:
//
//  * progressive workloads (path, ski, token rings) -> forward.*;
//  * the `seen`-augmented rings are non-progressive -> period.* doubling
//    plus the fixpoint.* instruments.
//
// bench/ci.sh fails the build if any histogram in this dump is empty —
// instruments are created at phase entry, so an empty one is dead
// instrumentation, not an idle phase.
void DumpSpecBuildMetrics(const char* path) {
  MetricsRegistry metrics;
  TraceBuffer trace;

  auto build_spec = [&](const std::string& src) {
    ParsedUnit unit = bench::MustParse(src);
    PeriodDetectionOptions options;
    options.metrics = &metrics;
    options.trace = &trace;
    auto spec = BuildSpecification(unit.program, unit.database, options);
    if (!spec.ok()) {
      LogError("bench.metered_spec_build_failed")
          .Str("status", spec.status().ToString());
    }
  };

  std::mt19937 rng(777);
  build_spec(workload::PathProgramSource() +
             workload::RandomGraphFactsSource(32, 64, &rng));
  build_spec(workload::SkiScheduleSource(3, /*year_len=*/28, /*winter_len=*/8,
                                         /*holidays=*/2));
  build_spec(workload::TokenRingSource({2, 3, 5}));
  build_spec(workload::TokenRingSource({2, 3, 5}) + "seen(X) :- tok(T, X).\n");

  std::ofstream out(path);
  out << "{\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"metrics\":" << metrics.ToJson()
      << ",\"trace_events\":" << trace.size()
      << ",\"trace_dropped\":" << trace.dropped() << "}\n";
  LogInfo("bench.metrics_dump")
      .Str("path", path)
      .Uint("trace_events", trace.size());
}

// Chrome-trace pass behind $CHRONOLOG_TRACE_OUT: builds the largest
// spec-build configuration in the suite (the full-year ski schedule at four
// resorts) with a fresh TraceBuffer and writes the Perfetto-loadable export.
// run_benches.sh stamps this next to the bench JSON as BENCH_PR5.trace.json.
void DumpSpecBuildTrace(const char* path) {
  MetricsRegistry metrics;
  TraceBuffer trace;
  ParsedUnit unit = bench::MustParse(workload::SkiScheduleSource(
      /*resorts=*/4, /*year_len=*/365, /*winter_len=*/91, /*holidays=*/13));
  PeriodDetectionOptions options;
  options.metrics = &metrics;
  options.trace = &trace;
  auto spec = BuildSpecification(unit.program, unit.database, options);
  if (!spec.ok()) {
    LogError("bench.trace_spec_build_failed")
        .Str("status", spec.status().ToString());
    return;
  }
  std::ofstream out(path);
  out << trace.ToChromeTraceJson();
  LogInfo("bench.trace_dump")
      .Str("path", path)
      .Uint("trace_events", trace.size())
      .Uint("trace_dropped", trace.dropped());
}

}  // namespace chronolog

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("CHRONOLOG_METRICS_OUT")) {
    chronolog::DumpSpecBuildMetrics(path);
  }
  if (const char* path = std::getenv("CHRONOLOG_TRACE_OUT")) {
    chronolog::DumpSpecBuildTrace(path);
  }
  return 0;
}
