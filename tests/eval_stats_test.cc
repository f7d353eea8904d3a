// Regression tests for the EvalStats contract and the fact cap:
//
//  * ApplyTp / NaiveFixpoint used to skip `min_new_time` entirely and never
//    counted database-fact inserts, so naive and semi-naive runs of the
//    same program disagreed on `inserted` and `min_new_time`. Both now
//    count every fact exactly once (in the pass that first derives it), so
//    the totals match the semi-naive evaluator's and equal the model size.
//
//  * One wide round that derives past `max_facts` must fail with
//    kResourceExhausted, on both evaluators.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

struct Workload {
  std::string name;
  std::string source;
};

std::vector<Workload> StatsWorkloads() {
  std::mt19937 rng(77);
  std::vector<Workload> out = {
      {"path_cycle",
       workload::PathProgramSource() + workload::CycleGraphFactsSource(8)},
      {"ski", workload::SkiScheduleSource(3, /*year_len=*/28,
                                          /*winter_len=*/8, /*holidays=*/2)},
      {"coprime_rings", workload::TokenRingSource({2, 3, 5})},
      {"binary_counter", workload::BinaryCounterSource(4)},
      {"even", workload::EvenSource()},
  };
  workload::RandomProgramOptions options;
  options.progressive_only = false;
  options.max_offset = 2;
  options.num_rules = 5;
  options.num_facts = 8;
  for (uint32_t seed = 0; seed < 6; ++seed) {
    out.push_back({"random_" + std::to_string(seed),
                   workload::RandomProgramSource(options, &rng)});
  }
  return out;
}

ParsedUnit MustParse(const std::string& source) {
  auto unit = Parser::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(*unit);
}

// The headline parity contract: both evaluators report each fact of the
// truncated least model exactly once, so `inserted` equals the model size
// and `min_new_time` is the earliest temporal fact — for both.
TEST(EvalStatsTest, NaiveAndSemiNaiveReportIdenticalStats) {
  for (const Workload& w : StatsWorkloads()) {
    SCOPED_TRACE(w.name);
    ParsedUnit unit = MustParse(w.source);
    FixpointOptions fp;
    fp.max_time = 48;

    EvalStats naive_stats;
    auto naive = NaiveFixpoint(unit.program, unit.database, fp, &naive_stats);
    ASSERT_TRUE(naive.ok()) << naive.status();

    EvalStats semi_stats;
    auto semi =
        SemiNaiveFixpoint(unit.program, unit.database, fp, &semi_stats);
    ASSERT_TRUE(semi.ok()) << semi.status();

    EXPECT_EQ(naive_stats.inserted, semi_stats.inserted);
    EXPECT_EQ(naive_stats.min_new_time, semi_stats.min_new_time);
    EXPECT_EQ(naive_stats.inserted, naive->size());
    EXPECT_EQ(semi_stats.inserted, semi->size());
  }
}

TEST(EvalStatsTest, MinNewTimeIsEarliestTemporalFact) {
  // p holds from 5 on; the earliest temporal fact either evaluator adds is
  // the database seed at 5.
  ParsedUnit unit = MustParse("p(5). p(T+1) :- p(T).");
  FixpointOptions fp;
  fp.max_time = 20;

  EvalStats naive_stats;
  ASSERT_TRUE(NaiveFixpoint(unit.program, unit.database, fp, &naive_stats)
                  .ok());
  EXPECT_EQ(naive_stats.min_new_time, 5);

  EvalStats semi_stats;
  ASSERT_TRUE(SemiNaiveFixpoint(unit.program, unit.database, fp, &semi_stats)
                  .ok());
  EXPECT_EQ(semi_stats.min_new_time, 5);
}

TEST(EvalStatsTest, MinNewTimeUntouchedWithoutTemporalFacts) {
  ParsedUnit unit = MustParse("n(a). n(b). e(X, Y) :- n(X), n(Y).");
  FixpointOptions fp;
  fp.max_time = 4;

  EvalStats naive_stats;
  ASSERT_TRUE(NaiveFixpoint(unit.program, unit.database, fp, &naive_stats)
                  .ok());
  EXPECT_EQ(naive_stats.min_new_time, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(naive_stats.inserted, 6u);  // 2 seeds + 4 pairs

  EvalStats semi_stats;
  ASSERT_TRUE(SemiNaiveFixpoint(unit.program, unit.database, fp, &semi_stats)
                  .ok());
  EXPECT_EQ(semi_stats.min_new_time, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(semi_stats.inserted, 6u);
}

// Database facts beyond the truncation bound are not admitted and must not
// be counted either.
TEST(EvalStatsTest, TruncatedDatabaseFactsAreNotCounted) {
  ParsedUnit unit = MustParse("q(100). q(2).");
  FixpointOptions fp;
  fp.max_time = 10;

  EvalStats naive_stats;
  auto naive = NaiveFixpoint(unit.program, unit.database, fp, &naive_stats);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->size(), 1u);
  EXPECT_EQ(naive_stats.inserted, 1u);
  EXPECT_EQ(naive_stats.min_new_time, 2);

  EvalStats semi_stats;
  auto semi = SemiNaiveFixpoint(unit.program, unit.database, fp, &semi_stats);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(semi_stats.inserted, 1u);
  EXPECT_EQ(semi_stats.min_new_time, 2);
}

// Repeated Tp applications partition the model: each pass reports only what
// it adds over its input, so the per-pass contributions sum to the
// from-scratch totals.
TEST(EvalStatsTest, ApplyTpPassesSumToFixpointTotals) {
  ParsedUnit unit = MustParse("p(0). p(T+1) :- p(T).");
  FixpointOptions fp;
  fp.max_time = 6;

  Interpretation current(unit.program.vocab_ptr());
  EvalStats accumulated;
  for (int pass = 0; pass < 10; ++pass) {
    EvalStats pass_stats;
    auto next =
        ApplyTp(unit.program, unit.database, current, fp, &pass_stats);
    ASSERT_TRUE(next.ok()) << next.status();
    accumulated.Add(pass_stats);
    if (*next == current) break;
    current = std::move(*next);
  }
  EXPECT_EQ(accumulated.inserted, current.size());
  EXPECT_EQ(accumulated.min_new_time, 0);
}

// A single wide round (40 delta facts -> 1600 derivations) against a small
// cap.
TEST(EvalStatsTest, WideRoundOverflowIsResourceExhausted) {
  std::string src;
  for (int i = 0; i < 40; ++i) {
    src += "n(c" + std::to_string(i) + ").\n";
  }
  src += "p(X, Y) :- n(X), n(Y).\n";
  ParsedUnit unit = MustParse(src);

  FixpointOptions fp;
  fp.max_time = 4;
  fp.max_facts = 500;
  auto result = SemiNaiveFixpoint(unit.program, unit.database, fp);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();

  auto naive = NaiveFixpoint(unit.program, unit.database, fp);
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(naive.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace chronolog
