// Heap allocations of the semi-naive loop. A round inserts each new fact
// into the model once and describes the next delta as row ranges of the
// model, so a round allocates only what the model itself grows by: on
// `even`, one new cell per round (its timeline node, columns and table).
// Allocations are counted by replacing the global operator new in this
// executable only.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "workload/generators.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace chronolog {
namespace {

struct Cost {
  uint64_t allocations = 0;
  EvalStats stats;
};

/// Runs SemiNaiveFixpoint on `source` at `max_time` and counts the
/// allocations of the run, freeing the model included (parsing excluded).
Cost CountRun(const std::string& source, int64_t max_time) {
  auto unit = Parser::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  FixpointOptions options;
  options.max_time = max_time;
  Cost cost;
  const uint64_t before = g_allocations.load();
  {
    auto model =
        SemiNaiveFixpoint(unit->program, unit->database, options, &cost.stats);
    EXPECT_TRUE(model.ok()) << model.status();
  }
  cost.allocations = g_allocations.load() - before;
  return cost;
}

double PerRound(const Cost& cost) {
  return static_cast<double>(cost.allocations) /
         static_cast<double>(cost.stats.iterations);
}

// even(T+2) :- even(T): one fact per round, 5001 and 50001 rounds.
TEST(FixpointAllocTest, EvenRoundAllocatesOnlyItsNewCell) {
  const Cost small = CountRun(workload::EvenSource(), 10'000);
  const Cost large = CountRun(workload::EvenSource(), 100'000);
  ASSERT_EQ(small.stats.iterations, 5'001u);
  ASSERT_EQ(large.stats.iterations, 50'001u);
  EXPECT_LE(PerRound(small), 4.0) << small.allocations;
  EXPECT_LE(PerRound(large), 4.0) << large.allocations;
  // Per-round cost does not grow with the number of rounds.
  EXPECT_NEAR(PerRound(small), PerRound(large), 0.01)
      << small.allocations << " vs " << large.allocations;
}

// BT's path/256 job (perfbench `materialize`) at its bound 138. The
// previous evaluator, which built a fresh delta model every round, made
// 10820 allocations here.
TEST(FixpointAllocTest, BtPath256) {
  std::mt19937 rng(12345);
  const Cost cost = CountRun(workload::PathProgramSource() +
                            workload::RandomGraphFactsSource(128, 256, &rng),
                        138);
  EXPECT_LE(cost.allocations, 10'820u);
}

}  // namespace
}  // namespace chronolog
