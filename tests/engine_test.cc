#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/answers.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

TemporalDatabase MustEngine(std::string_view src) {
  auto tdd = TemporalDatabase::FromSource(src);
  EXPECT_TRUE(tdd.ok()) << tdd.status();
  return std::move(tdd).value();
}

TEST(EngineTest, ParseErrorsPropagate) {
  auto tdd = TemporalDatabase::FromSource("p(X).");
  EXPECT_EQ(tdd.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, EvenEndToEnd) {
  TemporalDatabase tdd = MustEngine(workload::EvenSource());
  EXPECT_TRUE(*tdd.Ask("even(0)"));
  EXPECT_FALSE(*tdd.Ask("even(7)"));
  EXPECT_TRUE(*tdd.Ask("even(100000000)"));
  auto spec = tdd.specification();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ((*spec)->period().p, 2);
}

TEST(EngineTest, SkiScheduleFromThePaper) {
  // The paper's motivating scenario: "to verify whether a plane leaves to
  // Hunter on a given day t0, check whether plane(t0, hunter) is implied".
  TemporalDatabase tdd = MustEngine(workload::SkiScheduleSource(
      /*resorts=*/2, /*year_len=*/12, /*winter_len=*/4, /*holidays=*/1));
  // Day 0 is a holiday: planes everywhere, and daily flights follow.
  EXPECT_TRUE(*tdd.Ask("plane(0, resort0)"));
  EXPECT_TRUE(*tdd.Ask("plane(1, resort0)"));
  // Classification matches the paper's Section 2 remarks.
  EXPECT_TRUE(tdd.classification().multi_separable);
  EXPECT_FALSE(tdd.classification().separable);
  auto inflat = tdd.inflationary();
  ASSERT_TRUE(inflat.ok());
  EXPECT_FALSE(inflat->inflationary);
  // The same infinite query through the FO interface.
  auto answer = tdd.Query("exists T (plane(T, resort1))");
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->boolean);
}

TEST(EngineTest, PathExampleQueries) {
  TemporalDatabase tdd = MustEngine(workload::PathProgramSource() +
                                    workload::CycleGraphFactsSource(4));
  EXPECT_TRUE(*tdd.Ask("path(3, n0, n3)"));
  EXPECT_FALSE(*tdd.Ask("path(2, n0, n3)"));
  EXPECT_TRUE(*tdd.Ask("path(1000000, n3, n0)"));
  auto inflat = tdd.inflationary();
  ASSERT_TRUE(inflat.ok());
  EXPECT_TRUE(inflat->inflationary);
}

TEST(EngineTest, AskBtAgreesWithSpecAsk) {
  TemporalDatabase tdd = MustEngine(workload::TokenRingSource({2, 3}));
  for (int64_t t : {0, 1, 5, 6, 17, 100}) {
    std::string q = "tok(" + std::to_string(t) + ", r0_0)";
    auto via_spec = tdd.Ask(q);
    auto via_bt = tdd.AskBt(q);
    ASSERT_TRUE(via_spec.ok()) << via_spec.status();
    ASSERT_TRUE(via_bt.ok()) << via_bt.status();
    EXPECT_EQ(*via_spec, *via_bt) << q;
  }
}

TEST(EngineTest, AskBtWithExplicitRange) {
  TemporalDatabase tdd = MustEngine(workload::EvenSource());
  auto answer = tdd.AskBt("even(10)", /*range=*/2);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(*answer);
}

TEST(EngineTest, AskBtFailsWhenTheBoundOverflows) {
  // Ask rewrites the deep atom through the specification; AskBt's bound
  // max(c, h) + range does not fit int64_t and must fail, not answer no.
  TemporalDatabase tdd = MustEngine(workload::EvenSource());
  auto via_spec = tdd.Ask("even(9223372036854775806)");
  ASSERT_TRUE(via_spec.ok()) << via_spec.status();
  EXPECT_TRUE(*via_spec);
  EXPECT_EQ(tdd.AskBt("even(9223372036854775806)").status().code(),
            StatusCode::kOutOfRange);
}

TEST(EngineTest, DoublingStartWindowOverflowIsExhaustion) {
  // Non-progressive (backward rule) with c near INT64_MAX: the doubling
  // detector's first window c + 4g + 4 overflows. A wrapped window would
  // truncate the database fact away and answer p(3) "no".
  auto tdd = TemporalDatabase::FromSource(
      "p(9223372036854775805).\np(T) :- p(T+1).\n");
  ASSERT_TRUE(tdd.ok()) << tdd.status();
  EXPECT_EQ(tdd->Ask("p(3)").status().code(),
            StatusCode::kResourceExhausted);
}

TEST(EngineTest, QueryLimitsFlowThroughTheFacade) {
  TemporalDatabase tdd = MustEngine(R"(
    tick(0).
    tick(T+128) :- tick(T).
  )");
  QueryLimits limits;
  limits.max_rows = 3;
  auto answer = tdd.Query("tick(T) | ~tick(T)", limits);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->truncated);
  EXPECT_EQ(answer->rows.size(), 3u);
  // Default limits stay unlimited.
  auto full = tdd.Query("tick(T) | ~tick(T)");
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_GT(full->rows.size(), 3u);
}

// A timeout near the top of the millisecond range must saturate, not wrap
// into a deadline in the past that cuts the evaluation short.
TEST(EngineTest, HugeQueryTimeoutSaturates) {
  TemporalDatabase tdd = MustEngine(R"(
    p(0).
    p(T+200) :- p(T).
  )");
  QueryLimits limits;
  limits.timeout = std::chrono::milliseconds(int64_t{1} << 62);
  auto answer = tdd.Query("forall T (p(T) or not p(T))", limits);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_FALSE(answer->partial);
  EXPECT_TRUE(answer->boolean);
}

TEST(EngineTest, QueryOnUnknownPredicateFails) {
  TemporalDatabase tdd = MustEngine(workload::EvenSource());
  EXPECT_EQ(tdd.Ask("odd(1)").status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, UnknownConstantIsSimplyFalse) {
  TemporalDatabase tdd = MustEngine(workload::SkiScheduleSource(1, 12, 4, 1));
  auto answer = tdd.Ask("plane(0, atlantis)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_FALSE(*answer);
}

TEST(EngineTest, UnknownConstantsAreQueryLocal) {
  TemporalDatabase tdd = MustEngine(workload::SkiScheduleSource(1, 12, 4, 1));
  const std::size_t before = tdd.vocab().num_constants();
  auto negated = tdd.Query("~plane(3, zz)");
  ASSERT_TRUE(negated.ok()) << negated.status();
  EXPECT_EQ(negated->ToString(tdd.vocab()), "yes");
  // A local constant joins the open query's constant domain and is
  // rendered by name.
  auto open = tdd.Query("~plane(3, X) & ~plane(4, zz)");
  ASSERT_TRUE(open.ok()) << open.status();
  EXPECT_NE(open->ToString(tdd.vocab()).find("X = zz\n"), std::string::npos);
  auto explain = tdd.Explain("plane(3, zz)");
  EXPECT_EQ(explain.status().code(), StatusCode::kNotFound);
  EXPECT_NE(explain.status().ToString().find(
                "no proof: plane(3, zz) is not in the least model"),
            std::string::npos)
      << explain.status();
  EXPECT_EQ(tdd.vocab().num_constants(), before);
}

TEST(EngineTest, UnfoldedLocalConstantsKeepTheirNames) {
  TemporalDatabase tdd = MustEngine(workload::SkiScheduleSource(1, 12, 4, 1));
  auto open = tdd.Query("~plane(3, X) & ~plane(4, zz)");
  ASSERT_TRUE(open.ok()) << open.status();
  auto rows = UnfoldAnswers(*open, 10);
  ASSERT_TRUE(rows.ok()) << rows.status();
  std::vector<std::string> names;
  for (const auto& row : *rows) {
    ASSERT_EQ(row.size(), 1u);
    names.push_back(
        tdd.vocab().ConstantName(row[0].constant, open->local_constants));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "zz"), names.end());
  // Without the query's local names a local id has no name; it must not be
  // read out of the vocabulary's table.
  const SymbolId zz = kFirstLocalConstant;
  EXPECT_EQ(tdd.vocab().ConstantName(zz, open->local_constants), "zz");
  EXPECT_THROW(tdd.vocab().ConstantName(zz), std::out_of_range);
}

TEST(EngineTest, DescribeSummarises) {
  TemporalDatabase tdd = MustEngine(workload::EvenSource());
  std::string text = tdd.Describe();
  EXPECT_NE(text.find("period:           (b=0, p=2)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("[exact]"), std::string::npos);
  EXPECT_NE(text.find("not inflationary"), std::string::npos);
}

TEST(EngineTest, SpecificationBudgetErrorSurfaces) {
  EngineOptions options;
  options.period.max_horizon = 64;
  auto tdd = TemporalDatabase::FromSource(
      workload::TokenRingSource({31, 37}), options);
  ASSERT_TRUE(tdd.ok());
  EXPECT_EQ(tdd->Ask("tok(5, r0_0)").status().code(),
            StatusCode::kResourceExhausted);
}

TEST(EngineTest, FromParsedUnitWorks) {
  auto unit = Parser::Parse(workload::EvenSource());
  ASSERT_TRUE(unit.ok());
  auto tdd = TemporalDatabase::FromParsedUnit(std::move(unit).value());
  ASSERT_TRUE(tdd.ok());
  EXPECT_TRUE(*tdd->Ask("even(42)"));
}

TEST(EngineTest, BinaryCounterEngine) {
  TemporalDatabase tdd = MustEngine(workload::BinaryCounterSource(3));
  auto spec = tdd.specification();
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ((*spec)->period().p, 8);  // 2^3
  // bit0 of the counter toggles every step: at t=0 all bits are 0.
  EXPECT_TRUE(*tdd.Ask("bit0(0, b0)"));
  EXPECT_TRUE(*tdd.Ask("bit1(1, b0)"));
  EXPECT_TRUE(*tdd.Ask("bit0(2, b0)"));
  // Counter value at t=5 is 101: bits 0 and 2 set.
  EXPECT_TRUE(*tdd.Ask("bit1(5, b0)"));
  EXPECT_TRUE(*tdd.Ask("bit0(5, b1)"));
  EXPECT_TRUE(*tdd.Ask("bit1(5, b2)"));
  // And 8 steps later the same pattern repeats.
  EXPECT_TRUE(*tdd.Ask("bit1(13, b0)"));
  EXPECT_TRUE(*tdd.Ask("bit0(13, b1)"));
  EXPECT_TRUE(*tdd.Ask("bit1(13, b2)"));
}

TEST(EngineTest, SpecInfoCarriesJoinPlansAfterBuild) {
  TemporalDatabase tdd = MustEngine(workload::EvenSource());
  ASSERT_TRUE(tdd.specification().ok());
  // The spec build exported its per-rule plan report (fed to EXPLAIN):
  // one report per rule, and the recursive even rule planned at least one
  // slot whose join order covers its single body atom.
  const RulePlanReport& plans = tdd.spec_info().plans;
  ASSERT_EQ(plans.size(), tdd.program().rules().size());
  bool any_slot = false;
  for (const auto& rule_slots : plans) {
    for (const PlanSlotReport& slot : rule_slots) {
      any_slot = true;
      EXPECT_EQ(slot.order.size(), 1u);
    }
  }
  EXPECT_TRUE(any_slot);
}

TEST(EngineTest, TraceCapacityOptionBoundsTheBuffer) {
  EngineOptions options;
  options.collect_metrics = true;
  options.trace_capacity = 8;
  auto tdd = TemporalDatabase::FromSource(workload::EvenSource(), options);
  ASSERT_TRUE(tdd.ok()) << tdd.status();
  ASSERT_NE(tdd->trace(), nullptr);
  EXPECT_EQ(tdd->trace()->capacity(), 8u);
  // The spec build alone records more than 8 spans, so the bounded buffer
  // must have wrapped — capacity admission, not silent growth.
  ASSERT_TRUE(tdd->specification().ok());
  EXPECT_LE(tdd->trace()->size(), 8u);
  EXPECT_GT(tdd->trace()->dropped(), 0u);
}

}  // namespace
}  // namespace chronolog
