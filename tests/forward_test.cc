#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <string>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "eval/forward.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

// --------------------------------------------------------------------------
// Progressivity
// --------------------------------------------------------------------------

TEST(ProgressivityTest, PaperExamplesAreProgressive) {
  EXPECT_TRUE(CheckProgressive(
                  MustParse(workload::EvenSource()).program)
                  .progressive);
  EXPECT_TRUE(CheckProgressive(MustParse(workload::SkiScheduleSource(
                                             2, 12, 4, 1))
                                   .program)
                  .progressive);
  EXPECT_TRUE(CheckProgressive(MustParse(workload::PathProgramSource() +
                                         workload::CycleGraphFactsSource(3))
                                   .program)
                  .progressive);
  EXPECT_TRUE(CheckProgressive(
                  MustParse(workload::BinaryCounterSource(3)).program)
                  .progressive);
}

TEST(ProgressivityTest, BackwardRuleIsNotProgressive) {
  ParsedUnit unit = MustParse("p(T) :- p(T+1).\np(0).");
  ProgressivityReport report = CheckProgressive(unit.program);
  EXPECT_FALSE(report.progressive);
  EXPECT_TRUE(report.reads_future);
  EXPECT_NE(report.reason.find("future"), std::string::npos);
}

TEST(ProgressivityTest, TemporalToNonTemporalFeedbackIsNotProgressive) {
  ParsedUnit unit = MustParse("ever(X) :- p(T, X).\np(0, a).");
  ProgressivityReport report = CheckProgressive(unit.program);
  EXPECT_FALSE(report.progressive);
  EXPECT_FALSE(report.reads_future);
}

TEST(ProgressivityTest, GroundTemporalTermIsNotProgressive) {
  ParsedUnit unit = MustParse("q(T) :- p(T), p(3).\np(0). p(3). q(0).");
  EXPECT_FALSE(CheckProgressive(unit.program).progressive);
  EXPECT_FALSE(CheckProgressive(unit.program).reads_future);
  EXPECT_TRUE(CheckProgressive(MustParse("q(5) :- p(T).\np(0).").program)
                  .reads_future);
}

TEST(ProgressivityTest, TwoTemporalVariablesAreNotProgressive) {
  ParsedUnit unit = MustParse("r(0). s(0). p(0).\np(T) :- r(T), s(S).");
  EXPECT_FALSE(CheckProgressive(unit.program).progressive);
  EXPECT_TRUE(CheckProgressive(unit.program).reads_future);
}

TEST(ProgressivityTest, EveryRuleIsCheckedAndTheFirstViolationIsTheReason) {
  // The first rule makes the program non-progressive; only the second
  // reads the future.
  ParsedUnit unit =
      MustParse("ever(X) :- p(T, X).\np(T, X) :- p(T+1, X).\np(0, a).");
  ProgressivityReport report = CheckProgressive(unit.program);
  EXPECT_FALSE(report.progressive);
  EXPECT_TRUE(report.reads_future);
  EXPECT_NE(report.reason.find("non-temporal"), std::string::npos);
}

// --------------------------------------------------------------------------
// Forward simulation: exact periods of known workloads
// --------------------------------------------------------------------------

TEST(ForwardTest, EvenHasPeriodTwo) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->period.p, 2);
  EXPECT_EQ(result->period.b, 0);
  EXPECT_EQ(result->c, 0);
}

TEST(ForwardTest, DyingPredicateHasPeriodOne) {
  // No recursion: everything stops after the database horizon.
  ParsedUnit unit = MustParse("q(T+1) :- p(T).\np(0). p(2). q(0).");
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->period.p, 1);
  // All states past c+1 are empty.
  EXPECT_TRUE(State::FromInterpretation(result->model, result->horizon)
                  .empty());
}

TEST(ForwardTest, TokenRingPeriodIsLcm) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({3, 4, 5}));
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->period.p, 60);  // lcm(3, 4, 5)
  EXPECT_EQ(result->period.b, 0);
}

TEST(ForwardTest, SingleRingPeriodIsLength) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({7}));
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->period.p, 7);
}

TEST(ForwardTest, BinaryCounterPeriodIsPowerOfTwo) {
  for (int bits = 1; bits <= 5; ++bits) {
    ParsedUnit unit = MustParse(workload::BinaryCounterSource(bits));
    auto result = ForwardSimulate(unit.program, unit.database);
    ASSERT_TRUE(result.ok()) << "bits=" << bits << ": " << result.status();
    EXPECT_EQ(result->period.p, int64_t{1} << bits) << "bits=" << bits;
  }
}

TEST(ForwardTest, DelayChainPeriodIsLcmOfDelays) {
  ParsedUnit unit = MustParse(workload::DelayChainSource({4, 6}));
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->period.p, 12);  // lcm(4, 6)
}

TEST(ForwardTest, InflationaryPathHasPeriodOne) {
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::CycleGraphFactsSource(5));
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->period.p, 1);
  // The path relation saturates after ~diameter steps: b is small but
  // positive.
  EXPECT_GT(result->period.b, 0);
  EXPECT_LE(result->period.b, 6);
}

TEST(ForwardTest, SkiScheduleHasYearPeriod) {
  ParsedUnit unit =
      MustParse(workload::SkiScheduleSource(/*resorts=*/2, /*year_len=*/12,
                                            /*winter_len=*/4, /*holidays=*/1));
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok()) << result.status();
  // Seasons repeat yearly; the plane schedule locks onto some divisor
  // multiple — the minimal period must divide the year length... it must at
  // least be a multiple of 1 and divide lcm(12, steps); assert the sharp
  // property: states repeat with the detected period.
  EXPECT_GT(result->period.p, 0);
  EXPECT_EQ(result->period.p % 1, 0);
  std::vector<State> states = ExtractStates(result->model, 0, result->horizon);
  int64_t start = result->period.b + result->c;
  for (int64_t t = start;
       t + result->period.p < static_cast<int64_t>(states.size()); ++t) {
    EXPECT_EQ(states[t], states[t + result->period.p]) << "t=" << t;
  }
  // And 12 | some small multiple: seasons alone have period 12.
  EXPECT_EQ(result->period.p % 12, 0);
}

// --------------------------------------------------------------------------
// Detected periods are *minimal* and *valid*
// --------------------------------------------------------------------------

TEST(ForwardTest, DetectedPeriodIsValidOnLongerWindow) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({2, 3}));
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok());
  // Re-materialise a much longer segment with the generic fixpoint engine
  // and check periodicity directly.
  FixpointOptions options;
  options.max_time = 40;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  int64_t start = result->period.b + result->c;
  for (int64_t t = start; t + result->period.p <= 40 - result->period.p;
       ++t) {
    EXPECT_EQ(State::FromInterpretation(*model, t),
              State::FromInterpretation(*model, t + result->period.p))
        << "t=" << t;
  }
}

TEST(ForwardTest, MinimalityNoSmallerPeriodWorks) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({6}));
  auto result = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->period.p, 6);
  std::vector<State> states = ExtractStates(result->model, 0, result->horizon);
  int64_t start = result->period.b + result->c;
  for (int64_t p = 1; p < 6; ++p) {
    bool ok_everywhere = true;
    for (int64_t t = start;
         t + p < static_cast<int64_t>(states.size()); ++t) {
      if (!(states[t] == states[t + p])) {
        ok_everywhere = false;
        break;
      }
    }
    EXPECT_FALSE(ok_everywhere) << "period " << p << " should not validate";
  }
}

TEST(ForwardTest, ForwardModelMatchesFixpointOnSegment) {
  std::mt19937 rng(1234);
  // The chain program closes a 200-node chain both within one timestep
  // (`reach`) and in the non-temporal part (`tc`): the forward closures
  // insert into the very cells and column indexes they are scanning.
  std::string chain = R"(
    @temporal reach/2.
    reach(0, n0).
    reach(T, Y) :- reach(T, X), link(X, Y).
    reach(T+1, X) :- reach(T, X).
    tc(X, Y) :- link(X, Y).
    tc(X, Z) :- link(X, Y), tc(Y, Z).
  )";
  constexpr int kChain = 200;
  for (int i = 0; i + 1 < kChain; ++i) {
    chain += "link(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
             ").\n";
  }
  for (const std::string& source :
       {workload::PathProgramSource() +
            workload::RandomGraphFactsSource(6, 9, &rng),
        chain}) {
    ParsedUnit unit = MustParse(source);
    auto result = ForwardSimulate(unit.program, unit.database);
    ASSERT_TRUE(result.ok()) << result.status();
    FixpointOptions options;
    options.max_time = result->horizon;
    auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
    ASSERT_TRUE(model.ok());
    EXPECT_TRUE(result->model.SegmentEquals(*model, result->horizon))
        << source.substr(0, 120);
  }
}

TEST(ForwardTest, NonProgressiveProgramIsRejected) {
  ParsedUnit unit = MustParse("p(T) :- p(T+1).\np(0).");
  auto result = ForwardSimulate(unit.program, unit.database);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ForwardTest, StepBudgetIsEnforced) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({97, 89}));
  PeriodDetectionOptions options;
  options.max_horizon = 100;  // far below lcm(97, 89) = 8633
  auto result = ForwardSimulate(unit.program, unit.database, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ForwardTest, FactBudgetIsEnforced) {
  ParsedUnit unit = MustParse(
      "p(T+1, X) :- p(T, X).\np(T, Y) :- p(T, X), e(X, Y).\n"
      "p(0, a). e(a, b). e(b, c). e(c, d).");
  PeriodDetectionOptions options;
  options.max_facts = 5;
  auto result = ForwardSimulate(unit.program, unit.database, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The error names the budget that ran out.
  EXPECT_NE(result.status().ToString().find("max_facts = 5"),
            std::string::npos)
      << result.status();
}

TEST(ForwardTest, DatabaseHorizonShiftsB) {
  // Same program, facts injected later: b stays relative to c.
  ParsedUnit unit1 = MustParse("even(0). even(T+2) :- even(T).");
  ParsedUnit unit2 = MustParse("even(10). even(T+2) :- even(T).");
  auto r1 = ForwardSimulate(unit1.program, unit1.database);
  auto r2 = ForwardSimulate(unit2.program, unit2.database);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->period.p, 2);
  EXPECT_EQ(r2->period.p, 2);
  EXPECT_EQ(r2->c, 10);
}

}  // namespace
}  // namespace chronolog
