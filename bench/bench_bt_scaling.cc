// Experiment E1 (DESIGN.md): Theorem 4.1 / Figure 1 — algorithm BT runs in
// time polynomial in max(n, c, h) when the period is polynomially bounded.
//
// Workloads:
//  * inflationary `path` program (paper Section 2, Example 2) on random
//    graphs of growing size — period (b, 1), b <= diameter;
//  * multi-separable ski schedule with a growing number of resorts —
//    database-independent period.
//
// The paper claims a *shape*: BT time grows polynomially in n. Compare the
// reported times across the argument sweep (roughly quadratic for path:
// O(n) facts per timestep x O(n) timesteps; near-linear for ski).

#include <benchmark/benchmark.h>

#include <random>

#include "bench/bench_util.h"
#include "eval/bt.h"
#include "query/query_parser.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

void BM_BtPathRandomGraph(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  const int nodes = edges / 2;
  std::mt19937 rng(12345);
  ParsedUnit unit = bench::MustParse(
      workload::PathProgramSource() +
      workload::RandomGraphFactsSource(nodes, edges, &rng));
  auto query = ParseGroundAtom("path(8, n0, n1)", unit.program.vocab());
  if (!query.ok()) std::abort();
  BtOptions options;
  options.range = nodes + 2;  // inflationary saturation bound

  uint64_t derived = 0;
  for (auto _ : state) {
    auto result = RunBt(unit.program, unit.database, *query, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    derived = result->stats.derived;
    benchmark::DoNotOptimize(result->answer);
  }
  state.counters["facts_n"] = static_cast<double>(unit.database.size());
  state.counters["derived"] = static_cast<double>(derived);
}
BENCHMARK(BM_BtPathRandomGraph)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BtSkiResorts(benchmark::State& state) {
  const int resorts = static_cast<int>(state.range(0));
  ParsedUnit unit = bench::MustParse(workload::SkiScheduleSource(
      resorts, /*year_len=*/28, /*winter_len=*/8, /*holidays=*/2));
  auto query = ParseGroundAtom("plane(40, resort0)", unit.program.vocab());
  if (!query.ok()) std::abort();
  BtOptions options;
  // I-periodic: range is database-independent (b + c + p with p | 28).
  options.range = 28 + 28 + 8;

  for (auto _ : state) {
    auto result = RunBt(unit.program, unit.database, *query, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result->answer);
  }
  state.counters["facts_n"] = static_cast<double>(unit.database.size());
}
BENCHMARK(BM_BtSkiResorts)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Selectivity-skew microbench for the join planner: `wide` has state.range(0)
// rows of identical first column while `narrow` has one row. Source-order
// joins enumerate every wide row per timestep (work grows linearly with the
// fan-out); the selectivity-driven plan probes narrow first and keeps the
// per-step work constant, so wall time should stay nearly flat across the
// argument sweep. `match_steps` makes the enumerated work visible.
void BM_BtSkewedJoin(benchmark::State& state) {
  const int wide = static_cast<int>(state.range(0));
  ParsedUnit unit = bench::MustParse(workload::SkewedJoinSource(wide));
  auto query = ParseGroundAtom("hit(200, a)", unit.program.vocab());
  if (!query.ok()) std::abort();
  BtOptions options;
  options.horizon = 200;

  uint64_t match_steps = 0;
  for (auto _ : state) {
    auto result = RunBt(unit.program, unit.database, *query, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    match_steps = result->stats.match_steps;
    benchmark::DoNotOptimize(result->answer);
  }
  state.counters["facts_n"] = static_cast<double>(unit.database.size());
  state.counters["match_steps"] = static_cast<double>(match_steps);
}
BENCHMARK(BM_BtSkewedJoin)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Query depth h enters the bound m = max(c, h) + range linearly: BT time
// grows linearly in h (contrast with experiment E4's O(1) spec lookups).
void BM_BtDepthLinear(benchmark::State& state) {
  const int64_t h = state.range(0);
  ParsedUnit unit = bench::MustParse(workload::EvenSource());
  auto query = ParseGroundAtom("even(" + std::to_string(h) + ")",
                               unit.program.vocab());
  if (!query.ok()) std::abort();
  BtOptions options;
  options.range = 2;
  for (auto _ : state) {
    auto result = RunBt(unit.program, unit.database, *query, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result->answer);
  }
}
BENCHMARK(BM_BtDepthLinear)
    ->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace chronolog

BENCHMARK_MAIN();
