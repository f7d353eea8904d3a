#include <gtest/gtest.h>

#include "analysis/iperiod.h"
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

/// Checks that (b0, p0) is a valid period of the least model of
/// `program ∧ db`: materialises well past b0 + c and verifies
/// M[t] = M[t+p0] for all t >= b0 + c.
void ExpectValidPeriod(const Program& program, const Database& db,
                       const Period& iperiod, int64_t margin = 3) {
  PeriodDetectionOptions options;
  options.max_horizon = 1 << 20;
  auto run = ForwardSimulate(program, db, options);
  ASSERT_TRUE(run.ok()) << run.status();
  // Minimal period must divide the I-period, and the I-period's onset must
  // not precede what the minimal detection found impossible.
  EXPECT_EQ(iperiod.p % run->period.p, 0)
      << "minimal p=" << run->period.p << " does not divide I-period p="
      << iperiod.p;
  EXPECT_GE(iperiod.b, run->period.b);
  // Direct check on materialised states.
  const int64_t c = db.MaxTemporalDepth();
  const int64_t start = iperiod.b + c;
  const int64_t horizon = start + margin * iperiod.p;
  FixpointOptions fp;
  fp.max_time = horizon;
  auto model = SemiNaiveFixpoint(program, db, fp);
  ASSERT_TRUE(model.ok());
  for (int64_t t = start; t + iperiod.p <= horizon; ++t) {
    EXPECT_EQ(State::FromInterpretation(*model, t),
              State::FromInterpretation(*model, t + iperiod.p))
        << "t=" << t;
  }
}

// --------------------------------------------------------------------------
// Exact enumeration (Theorem 6.3 construction)
// --------------------------------------------------------------------------

TEST(IPeriodTest, EvenProgram) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  auto result = ComputeIPeriod(unit.program);
  ASSERT_TRUE(result.ok()) << result.status();
  // Look-back 2 for one predicate: 4 initial windows.
  EXPECT_EQ(result->simulations, 4u);
  EXPECT_EQ(result->period.p % 2, 0);  // the even cycle must divide p0
  ExpectValidPeriod(unit.program, unit.database, result->period);
}

TEST(IPeriodTest, DelayChains) {
  ParsedUnit unit = MustParse(workload::DelayChainSource({3, 4}));
  auto result = ComputeIPeriod(unit.program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->period.p % 12, 0);  // lcm(3,4) divides p0
  ExpectValidPeriod(unit.program, unit.database, result->period);
}

TEST(IPeriodTest, IPeriodIsDatabaseIndependent) {
  // Same program, several different databases: the single I-period must be
  // a valid period for each (the defining property of I-periodicity).
  std::string rules = "p(T+3, X) :- p(T, X).\nq(T+2, X) :- q(T, X), p(T, X).\n";
  ParsedUnit reference = MustParse(rules + "p(0, a).");
  auto iperiod = ComputeIPeriod(reference.program);
  ASSERT_TRUE(iperiod.ok()) << iperiod.status();
  for (const std::string& facts :
       {std::string("p(0, a)."), std::string("p(1, a). q(0, a)."),
        std::string("p(0, a). p(2, b). q(1, b)."),
        std::string("q(5, z).")}) {
    ParsedUnit unit = MustParse(rules + facts);
    ExpectValidPeriod(unit.program, unit.database, iperiod->period);
  }
}

TEST(IPeriodTest, RandomTimeOnlyProgramsAreCovered) {
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    std::string src = workload::RandomTimeOnlySource(
        /*num_preds=*/2, /*num_rules=*/3, /*max_delay=*/3, &rng);
    ParsedUnit unit = MustParse(src);
    auto result = ComputeIPeriod(unit.program, {});
    if (!result.ok()) {
      // Over budget is acceptable; unsoundness is not.
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << src << result.status();
      continue;
    }
    SCOPED_TRACE("source:\n" + src);
    ExpectValidPeriod(unit.program, unit.database, result->period);
  }
}

// --------------------------------------------------------------------------
// Preconditions
// --------------------------------------------------------------------------

TEST(IPeriodTest, NonMultiSeparableIsRejected) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({3}));
  auto result = ComputeIPeriod(unit.program);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IPeriodTest, WideArityIsRejected) {
  ParsedUnit unit = MustParse(
      "@temporal near/3.\nnear(T+1, X, Y) :- near(T, X, Y).");
  auto result = ComputeIPeriod(unit.program);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IPeriodTest, EntityEscapeIsRejected) {
  // q's rule reads p of a different entity: entities interact.
  ParsedUnit unit = MustParse(
      "@temporal p/2. @temporal q/2.\n"
      "q(T+1, X) :- q(T, X), p(T, Y).");
  auto result = ComputeIPeriod(unit.program);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IPeriodTest, BudgetIsEnforced) {
  ParsedUnit unit = MustParse(workload::DelayChainSource({5, 6, 7}));
  IPeriodOptions options;
  options.max_bits = 4;  // 3 predicates x look-back 7 = 21 bits needed
  auto result = ComputeIPeriod(unit.program, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// --------------------------------------------------------------------------
// Static upper bound (Theorem 6.5 composition)
// --------------------------------------------------------------------------

TEST(IPeriodBoundTest, SingleDelayIsExactOnP) {
  ParsedUnit unit = MustParse("d(T+5) :- d(T).\nd(0).");
  auto bound = IPeriodUpperBound(unit.program);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_FALSE(bound->saturated);
  EXPECT_EQ(bound->p, 5u);
}

TEST(IPeriodBoundTest, DelayChainsLcm) {
  ParsedUnit unit = MustParse(workload::DelayChainSource({4, 6}));
  auto bound = IPeriodUpperBound(unit.program);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->p, 12u);  // lcm(4, 6)
  // Observed minimal period divides the bound.
  auto run = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(bound->p % run->period.p, 0u);
}

TEST(IPeriodBoundTest, SkiScheduleSaturates) {
  // The driven `plane` stratum (look-back 7, inputs period 12) exceeds any
  // practical lcm bound: the Theorem 6.5 bound is finite but astronomical.
  ParsedUnit unit = MustParse(workload::SkiScheduleSource(2, 12, 4, 1));
  auto bound = IPeriodUpperBound(unit.program);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_TRUE(bound->saturated);
}

TEST(IPeriodBoundTest, NonMultiSeparableIsRejected) {
  ParsedUnit unit = MustParse(workload::BinaryCounterSource(3));
  EXPECT_EQ(IPeriodUpperBound(unit.program).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(IPeriodBoundTest, DataOnlyStratumPassesInputsThrough) {
  ParsedUnit unit = MustParse(R"(
    @temporal season/1. @temporal busy/2.
    season(T+4) :- season(T).
    busy(T, X) :- busy(T, Y), link(X, Y).
    season(0). busy(0, a). link(b, a).
  )");
  auto bound = IPeriodUpperBound(unit.program);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_FALSE(bound->saturated);
  EXPECT_EQ(bound->p % 4, 0u);
}

}  // namespace
}  // namespace chronolog
