// Experiment E4 (DESIGN.md): Section 3.3 / Proposition 3.1 — once the
// relational specification is built, a ground query of arbitrary temporal
// depth h costs O(rewrite + lookup), *independent of h*; answering the same
// query bottom-up (algorithm BT with horizon >= h) costs Θ(h).
//
// The crossover the paper's machinery buys: spec rows stay flat as h grows
// by 5 orders of magnitude; BT rows grow linearly.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "eval/bt.h"
#include "query/query_eval.h"
#include "query/query_parser.h"
#include "spec/specification.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

struct SkiFixture {
  ParsedUnit unit;
  RelationalSpecification spec;

  static SkiFixture Make() {
    ParsedUnit unit = bench::MustParse(workload::SkiScheduleSource(
        /*resorts=*/2, /*year_len=*/28, /*winter_len=*/8, /*holidays=*/2));
    auto spec = BuildSpecification(unit.program, unit.database);
    if (!spec.ok()) std::abort();
    return SkiFixture{std::move(unit), std::move(spec).value()};
  }
};

SkiFixture& Ski() {
  static SkiFixture* fixture = new SkiFixture(SkiFixture::Make());
  return *fixture;
}

// Spec-based: rewrite + hash lookup, flat in h.
void BM_SpecAskAtDepth(benchmark::State& state) {
  SkiFixture& ski = Ski();
  const int64_t h = state.range(0);
  auto query = ParseGroundAtom("plane(" + std::to_string(h) + ", resort0)",
                               ski.unit.program.vocab());
  if (!query.ok()) std::abort();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ski.spec.Ask(*query));
  }
}
BENCHMARK(BM_SpecAskAtDepth)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

// Bottom-up contrast: BT must materialise the segment up to h.
void BM_BtAskAtDepth(benchmark::State& state) {
  SkiFixture& ski = Ski();
  const int64_t h = state.range(0);
  auto query = ParseGroundAtom("plane(" + std::to_string(h) + ", resort0)",
                               ski.unit.program.vocab());
  if (!query.ok()) std::abort();
  BtOptions options;
  options.horizon = h;
  for (auto _ : state) {
    auto result = RunBt(ski.unit.program, ski.unit.database, *query, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result->answer);
  }
}
BENCHMARK(BM_BtAskAtDepth)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// First-order queries over the specification (Proposition 3.1 evaluation):
// quantifiers range over the finitely many representatives.
void BM_SpecFirstOrderQuery(benchmark::State& state) {
  SkiFixture& ski = Ski();
  auto query = ParseQuery("exists T (plane(T, resort0) & winter(T))",
                          ski.unit.program.vocab());
  if (!query.ok()) std::abort();
  for (auto _ : state) {
    auto answer = EvaluateQueryOverSpec(*query, ski.spec);
    if (!answer.ok()) state.SkipWithError(answer.status().ToString().c_str());
    benchmark::DoNotOptimize(answer->boolean);
  }
}
BENCHMARK(BM_SpecFirstOrderQuery)->Unit(benchmark::kMicrosecond);

// Open query: enumerate all representative answers (plus rewrite rule).
void BM_SpecOpenQuery(benchmark::State& state) {
  SkiFixture& ski = Ski();
  auto query = ParseQuery("plane(T, X)", ski.unit.program.vocab());
  if (!query.ok()) std::abort();
  std::size_t rows = 0;
  for (auto _ : state) {
    auto answer = EvaluateQueryOverSpec(*query, ski.spec);
    if (!answer.ok()) state.SkipWithError(answer.status().ToString().c_str());
    rows = answer->rows.size();
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_SpecOpenQuery)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace chronolog

BENCHMARK_MAIN();
