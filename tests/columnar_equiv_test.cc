// Equivalence suite for the columnar storage + join-planner rewrite: the
// semi-naive evaluator (columnar relations, selectivity-ordered joins) must
// agree with the NaiveFixpoint reference oracle — the auditable Figure 1
// transcription — on the least model, the EvalStats contract
// (inserted / min_new_time), and both snapshot-hash families, across every
// workload family the repo generates.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

// Runs both evaluators at the given truncation bound and checks full
// agreement: model equality (Relation set-equality per cell), stats parity,
// and snapshot-hash parity at every time point of the segment.
void ExpectNaiveSemiNaiveAgree(std::string_view src, int64_t max_time) {
  ParsedUnit unit = MustParse(src);
  FixpointOptions options;
  options.max_time = max_time;

  EvalStats naive_stats;
  auto naive = NaiveFixpoint(unit.program, unit.database, options,
                             &naive_stats);
  ASSERT_TRUE(naive.ok()) << naive.status();

  EvalStats semi_stats;
  auto semi = SemiNaiveFixpoint(unit.program, unit.database, options,
                                &semi_stats);
  ASSERT_TRUE(semi.ok()) << semi.status();

  EXPECT_TRUE(*naive == *semi);
  EXPECT_EQ(naive->size(), semi->size());
  EXPECT_EQ(naive_stats.inserted, semi_stats.inserted);
  EXPECT_EQ(naive_stats.min_new_time, semi_stats.min_new_time);
  for (int64_t t = 0; t <= max_time; ++t) {
    EXPECT_EQ(naive->SnapshotHash(t), semi->SnapshotHash(t)) << "t=" << t;
  }
}

TEST(ColumnarEquivTest, Even) {
  ExpectNaiveSemiNaiveAgree(workload::EvenSource(), 24);
}

TEST(ColumnarEquivTest, TokenRing) {
  ExpectNaiveSemiNaiveAgree(workload::TokenRingSource({3, 5}), 20);
}

TEST(ColumnarEquivTest, BinaryCounter) {
  ExpectNaiveSemiNaiveAgree(workload::BinaryCounterSource(4), 18);
}

TEST(ColumnarEquivTest, SkiSchedule) {
  ExpectNaiveSemiNaiveAgree(workload::SkiScheduleSource(3, 14, 6, 2), 30);
}

TEST(ColumnarEquivTest, PathOnRandomGraph) {
  std::mt19937 rng(42);
  ExpectNaiveSemiNaiveAgree(workload::PathProgramSource() +
                                workload::RandomGraphFactsSource(6, 12, &rng),
                            8);
}

TEST(ColumnarEquivTest, SkewedJoin) {
  ExpectNaiveSemiNaiveAgree(workload::SkewedJoinSource(32), 12);
}

TEST(ColumnarEquivTest, DelayChain) {
  ExpectNaiveSemiNaiveAgree(workload::DelayChainSource({2, 3, 4}), 16);
}

TEST(ColumnarEquivTest, RandomProgramSweep) {
  std::mt19937 rng(2026);
  workload::RandomProgramOptions options;
  for (int i = 0; i < 12; ++i) {
    // Alternate progressive-only and general programs so backward rules
    // (body atoms ahead of the head) go through the planner too.
    options.progressive_only = (i % 2 == 0);
    std::string src = workload::RandomProgramSource(options, &rng);
    SCOPED_TRACE("seed 2026 iteration " + std::to_string(i) + "\n" + src);
    ExpectNaiveSemiNaiveAgree(src, 8);
  }
}

TEST(ColumnarEquivTest, RandomTimeOnlySweep) {
  std::mt19937 rng(7);
  for (int i = 0; i < 6; ++i) {
    std::string src = workload::RandomTimeOnlySource(3, 5, 3, &rng);
    SCOPED_TRACE("seed 7 iteration " + std::to_string(i) + "\n" + src);
    ExpectNaiveSemiNaiveAgree(src, 12);
  }
}

TEST(ColumnarEquivTest, PathOnDenserRandomGraph) {
  std::mt19937 rng(11);
  ExpectNaiveSemiNaiveAgree(workload::PathProgramSource() +
                                workload::RandomGraphFactsSource(8, 20, &rng),
                            8);
}

}  // namespace
}  // namespace chronolog
