#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/bt.h"
#include "query/query_parser.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

GroundAtom MustGround(const ParsedUnit& unit, std::string_view text) {
  auto atom = ParseGroundAtom(text, unit.program.vocab());
  EXPECT_TRUE(atom.ok()) << atom.status();
  return std::move(atom).value();
}

TEST(BtTest, EvenQueries) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  BtOptions options;
  options.range = 2;  // range(Z ∧ D) for `even`: two distinct states
  for (int64_t h = 0; h <= 20; ++h) {
    auto result = RunBt(unit.program, unit.database,
                        MustGround(unit, "even(" + std::to_string(h) + ")"),
                        options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->answer, h % 2 == 0) << "h=" << h;
    // m = max(c, h) + range as in Theorem 4.1.
    EXPECT_EQ(result->m, std::max<int64_t>(0, h) + 2);
  }
}

TEST(BtTest, HorizonOverrideIsUsed) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  BtOptions options;
  options.horizon = 50;
  auto result =
      RunBt(unit.program, unit.database, MustGround(unit, "even(40)"), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->answer);
  EXPECT_EQ(result->m, 50);
}

TEST(BtTest, ExactlyOneOfRangeHorizonRequired) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  GroundAtom q = MustGround(unit, "even(0)");
  BtOptions neither;
  EXPECT_EQ(RunBt(unit.program, unit.database, q, neither).status().code(),
            StatusCode::kFailedPrecondition);
  BtOptions both;
  both.range = 2;
  both.horizon = 10;
  EXPECT_EQ(RunBt(unit.program, unit.database, q, both).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BtTest, SemiNaiveAndNaiveAgree) {
  // RunBt evaluates semi-naively; the reference oracle is the naive
  // transcription of Figure 1's loop at the same bound.
  std::mt19937 rng(99);
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::RandomGraphFactsSource(5, 8, &rng));
  GroundAtom q = MustGround(unit, "path(4, n0, n1)");
  BtOptions options;
  options.range = 10;
  auto result = RunBt(unit.program, unit.database, q, options);
  ASSERT_TRUE(result.ok()) << result.status();
  FixpointOptions fp;
  fp.max_time = result->m;
  auto naive = NaiveFixpoint(unit.program, unit.database, fp);
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_EQ(result->answer, naive->Contains(q));
  EXPECT_TRUE(result->model == *naive);
}

TEST(BtTest, BoundOverflowIsAnError) {
  // max(c, h) + range past INT64_MAX must not wrap into a bound below h.
  ParsedUnit unit = MustParse(workload::EvenSource());
  BtOptions options;
  options.range = 2;
  auto result = RunBt(unit.program, unit.database,
                      MustGround(unit, "even(9223372036854775806)"), options);
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(BtTest, PathReachabilityOnCycle) {
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::CycleGraphFactsSource(4));
  BtOptions options;
  options.range = 8;  // inflationary: states saturate after ~4 steps
  // n0 -> n1 -> n2 -> n3 -> n0; "path of length at most K".
  EXPECT_TRUE(
      RunBt(unit.program, unit.database, MustGround(unit, "path(1, n0, n1)"),
            options)
          ->answer);
  EXPECT_FALSE(
      RunBt(unit.program, unit.database, MustGround(unit, "path(1, n0, n2)"),
            options)
          ->answer);
  EXPECT_TRUE(
      RunBt(unit.program, unit.database, MustGround(unit, "path(2, n0, n2)"),
            options)
          ->answer);
  EXPECT_TRUE(
      RunBt(unit.program, unit.database, MustGround(unit, "path(3, n0, n3)"),
            options)
          ->answer);
  // Inflationary: once true, stays true at deeper K.
  EXPECT_TRUE(
      RunBt(unit.program, unit.database, MustGround(unit, "path(30, n0, n3)"),
            options)
          ->answer);
  // Self-paths of length 0 exist.
  EXPECT_TRUE(
      RunBt(unit.program, unit.database, MustGround(unit, "path(0, n2, n2)"),
            options)
          ->answer);
}

TEST(BtTest, NonTemporalQueriesWork) {
  ParsedUnit unit = MustParse(workload::TransitiveClosureDatalogSource() +
                              "edge(a, b). edge(b, c).");
  BtOptions options;
  options.range = 1;
  auto yes = RunBt(unit.program, unit.database, MustGround(unit, "tc(a, c)"),
                   options);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes->answer);
  auto no = RunBt(unit.program, unit.database, MustGround(unit, "tc(c, a)"),
                  options);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no->answer);
}

TEST(BtTest, UnknownPredicateInQueryFails) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  GroundAtom bogus;
  bogus.pred = 999;
  BtOptions options;
  options.range = 2;
  EXPECT_EQ(
      RunBt(unit.program, unit.database, bogus, options).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(BtTest, ModelIsReusableForFurtherQueries) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  BtOptions options;
  options.range = 2;
  auto result =
      RunBt(unit.program, unit.database, MustGround(unit, "even(10)"), options);
  ASSERT_TRUE(result.ok());
  // Any query of depth <= m can be answered from the same model.
  for (int64_t h = 0; h <= result->m; ++h) {
    EXPECT_EQ(result->model.Contains(
                  MustGround(unit, "even(" + std::to_string(h) + ")")),
              h % 2 == 0);
  }
}

}  // namespace
}  // namespace chronolog
