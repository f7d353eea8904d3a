// Round discipline of the semi-naive loop. Each round inserts its new facts
// straight into the model, and a per-cell watermark hides them from every
// (rule, delta-position) pair of the same round. The programs below make a
// round insert into a cell that a later pair of that round reads: if the
// watermark leaked, the round would enumerate a different set of
// instantiations, and the work counters would move. The pinned counters
// and model hashes were recorded with the previous evaluator, which
// buffered each round's facts and merged them afterwards.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "util/hash.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(const std::string& source) {
  auto unit = Parser::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(*unit);
}

/// `e(c0, c1). ... e(c{n-2}, c{n-1}).`
std::string ChainFacts(int n) {
  std::string out;
  for (int i = 0; i + 1 < n; ++i) {
    out += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) + ").\n";
  }
  return out;
}

/// Order-sensitive hash of the model's ForEach sequence: equal only when
/// every cell holds the same rows in the same order.
std::size_t OrderHash(const Interpretation& model) {
  std::size_t seed = 0;
  model.ForEach([&](PredicateId pred, int64_t time, const Tuple& args) {
    HashCombine(seed, pred);
    HashCombine(seed, static_cast<std::size_t>(time));
    HashCombine(seed, HashRange(args.data(), args.size(), args.size()));
  });
  return seed;
}

struct Pinned {
  uint64_t iterations;
  uint64_t derived;
  uint64_t match_steps;
  uint64_t inserted;
  std::size_t order_hash;
};

/// Runs the semi-naive fixpoint at `max_time`, checks it against the naive
/// reference when `check_naive`, and compares its counters and row order
/// with `pinned`.
void ExpectPinned(const std::string& source, int64_t max_time,
                  const Pinned& pinned, bool check_naive = true) {
  ParsedUnit unit = MustParse(source);
  FixpointOptions options;
  options.max_time = max_time;
  EvalStats stats;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options, &stats);
  ASSERT_TRUE(model.ok()) << model.status();
  if (check_naive) {
    auto naive = NaiveFixpoint(unit.program, unit.database, options);
    ASSERT_TRUE(naive.ok()) << naive.status();
    EXPECT_TRUE(*model == *naive);
  }
  EXPECT_EQ(stats.iterations, pinned.iterations);
  EXPECT_EQ(stats.derived, pinned.derived);
  EXPECT_EQ(stats.match_steps, pinned.match_steps);
  EXPECT_EQ(stats.inserted, pinned.inserted);
  EXPECT_EQ(stats.inserted, model->size());
  EXPECT_EQ(OrderHash(*model), pinned.order_hash);
}

// Non-temporal transitive closure over a 24-chain. From round two on, the
// linear rule's pair inserts into `tc` before the non-linear rule's pairs
// read `tc` at their non-delta position.
TEST(RoundDisciplineTest, TransitiveClosureChain) {
  ExpectPinned(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- tc(X, Y), e(Y, Z).\n"
      "tc(X, Z) :- tc(X, Y), tc(Y, Z).\n" +
          ChainFacts(24),
      /*max_time=*/0,
      {/*iterations=*/7, /*derived=*/2642, /*match_steps=*/3470, /*inserted=*/299,
       /*order_hash=*/10241685596846654029u});
}

// The first rule appends to the very cell `q(T)` its own delta scan and its
// full-side position read in the same round; the copy rule opens the next
// cell, which the first rule's pairs then read.
TEST(RoundDisciplineTest, TemporalSameCellFeedback) {
  ExpectPinned(
      "q(T, Y) :- q(T, X), e(X, Y).\n"
      "q(T+1, X) :- q(T, X).\n"
      "q(0, c0).\n" +
          ChainFacts(16),
      /*max_time=*/12,
      {/*iterations=*/28, /*derived=*/404, /*match_steps=*/613, /*inserted=*/223,
       /*order_hash=*/14855379306822378330u});
}

// BT's path/256 job (perfbench `materialize`): 128 nodes, 256 random
// edges from the fixed seed 12345, at the bound max(c, h) + range =
// 8 + 130 = 138. The naive reference takes tens of seconds here, so the
// model is checked through its pinned row-order hash alone.
TEST(RoundDisciplineTest, BtPath256) {
  std::mt19937 rng(12345);
  ExpectPinned(workload::PathProgramSource() +
                   workload::RandomGraphFactsSource(128, 256, &rng),
               /*max_time=*/138,
               {/*iterations=*/140, /*derived=*/4186213, /*match_steps=*/5596729,
                /*inserted=*/1410897, /*order_hash=*/13033038605148532892u},
               /*check_naive=*/false);
}

// A resumed fixpoint seeds its delta with whole frontier cells; extending
// must give the from-scratch model and the counters recorded for it.
TEST(RoundDisciplineTest, ExtendFromFrontierCells) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({2, 3, 5}) +
                              "seen(X) :- tok(T, X).\n");
  FixpointOptions narrow;
  narrow.max_time = 20;
  auto prior = SemiNaiveFixpoint(unit.program, unit.database, narrow);
  ASSERT_TRUE(prior.ok()) << prior.status();
  FixpointOptions wide;
  wide.max_time = 45;
  EvalStats stats;
  auto extended = ExtendFixpoint(unit.program, unit.database,
                                 std::move(*prior), narrow.max_time, wide,
                                 &stats);
  ASSERT_TRUE(extended.ok()) << extended.status();
  auto scratch = SemiNaiveFixpoint(unit.program, unit.database, wide);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  EXPECT_TRUE(*extended == *scratch);
  EXPECT_EQ(stats.iterations, 26u);
  EXPECT_EQ(stats.derived, 156u);
  EXPECT_EQ(stats.match_steps, 234u);
  EXPECT_EQ(stats.inserted, 75u);
  EXPECT_EQ(stats.min_new_time, 21);
  EXPECT_EQ(OrderHash(*extended), 51724581201387207u);
}

}  // namespace
}  // namespace chronolog
