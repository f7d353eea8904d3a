// chronolog_flow tests: the SCC-ordered dataflow framework, its two
// analyses (temporal offsets, polynomial degree) and the A-series
// diagnostics.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/depgraph.h"
#include "ast/parser.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

FlowAnalysis Analyze(const ParsedUnit& unit, FlowOptions options = {}) {
  return AnalyzeProgram(unit.program, unit.database, options);
}

bool HasCode(const FlowAnalysis& analysis, std::string_view code) {
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

PredicateId Pred(const ParsedUnit& unit, std::string_view name) {
  const PredicateId p = unit.program.vocab().FindPredicate(name);
  EXPECT_NE(p, kInvalidPredicate) << name;
  return p;
}

// --------------------------------------------------------------------------
// Temporal-offset analysis
// --------------------------------------------------------------------------

TEST(FlowOffsetTest, BoundedChainGetsFiniteHorizonAndHint) {
  ParsedUnit unit = MustParse(R"(
    seed(0).
    stage(T+3) :- seed(T).
    done(T+2) :- stage(T).
  )");
  FlowAnalysis analysis = Analyze(unit);
  EXPECT_TRUE(analysis.offsets.bounded);
  EXPECT_EQ(analysis.offsets.static_horizon, 5);
  EXPECT_EQ(analysis.offsets.last_time[Pred(unit, "seed")], 0);
  EXPECT_EQ(analysis.offsets.last_time[Pred(unit, "stage")], 3);
  EXPECT_EQ(analysis.offsets.last_time[Pred(unit, "done")], 5);
  EXPECT_EQ(analysis.offsets.period_divisor, 1);
  EXPECT_TRUE(HasCode(analysis, flow_code::kStaticHorizon));
  EXPECT_FALSE(HasCode(analysis, flow_code::kUnboundedGrowth));
}

TEST(FlowOffsetTest, PredicateWithNoFactsAndNoFiringRuleStaysEmpty) {
  ParsedUnit unit = MustParse(R"(
    ghost(T+1) :- ghost(T).
    real(0).
  )");
  FlowAnalysis analysis = Analyze(unit);
  // `ghost` has no EDB seed: the recursion never fires and the analysis
  // proves it derivably empty (lattice bottom) rather than unbounded.
  EXPECT_EQ(analysis.offsets.last_time[Pred(unit, "ghost")], kTimeBottom);
  EXPECT_TRUE(analysis.offsets.bounded);
}

TEST(FlowOffsetTest, EvenProgramClaimsSelfDelayPeriodTwo) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  FlowAnalysis analysis = Analyze(unit);
  EXPECT_FALSE(analysis.offsets.bounded);
  EXPECT_EQ(analysis.offsets.period_divisor, 2);
  const PredicateId even = Pred(unit, "even");
  bool found = false;
  for (const SccOffsetInfo& scc : analysis.offsets.sccs) {
    if (scc.predicates == std::vector<PredicateId>{even}) {
      found = true;
      EXPECT_EQ(scc.cycle_gcd, 2);
      EXPECT_FALSE(scc.bounded);
      EXPECT_EQ(scc.self_delay_period, 2);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(HasCode(analysis, flow_code::kOffsetCycle));
  EXPECT_TRUE(HasCode(analysis, flow_code::kPeriodDivisor));
  // A certified periodic SCC is not flagged as structureless growth.
  EXPECT_FALSE(HasCode(analysis, flow_code::kUnboundedGrowth));
}

TEST(FlowOffsetTest, BothParitySeedsCollapseTheDivisorToOne) {
  // Seeds at every residue mod 2: the eventual pattern repeats with period
  // 1, so claiming divisor 2 would be unsound — the residue-invariance scan
  // must find q = 1.
  ParsedUnit unit = MustParse(R"(
    even(0).
    even(1).
    even(T+2) :- even(T).
  )");
  FlowAnalysis analysis = Analyze(unit);
  EXPECT_EQ(analysis.offsets.period_divisor, 1);
  EXPECT_FALSE(HasCode(analysis, flow_code::kPeriodDivisor));
}

TEST(FlowOffsetTest, BackwardDelayIsBoundedNotPeriodic) {
  // p(T) :- p(T+5) only derives *earlier* facts from later ones: the model
  // is finite. The offset lattice must prove boundedness (no divisor claim,
  // no unbounded warning).
  ParsedUnit unit = MustParse(R"(
    p(0).
    p(100).
    p(T) :- p(T+5).
  )");
  FlowAnalysis analysis = Analyze(unit);
  EXPECT_TRUE(analysis.offsets.bounded);
  EXPECT_EQ(analysis.offsets.static_horizon, 100);
  EXPECT_EQ(analysis.offsets.period_divisor, 1);
  EXPECT_FALSE(HasCode(analysis, flow_code::kUnboundedGrowth));
}

TEST(FlowOffsetTest, MultiPredicateRingWarnsWithoutPeriodClaim) {
  ParsedUnit unit = MustParse(R"(
    tok(0, a).
    next(a, b).
    next(b, a).
    tok(T+1, Y) :- tok(T, X), next(X, Y).
  )");
  FlowAnalysis analysis = Analyze(unit);
  EXPECT_FALSE(analysis.offsets.bounded);
  // The join with `next` disqualifies the self-delay claim, but the uniform
  // +1 edge still yields the cycle gcd.
  const PredicateId tok = Pred(unit, "tok");
  for (const SccOffsetInfo& scc : analysis.offsets.sccs) {
    if (scc.predicates == std::vector<PredicateId>{tok}) {
      EXPECT_EQ(scc.cycle_gcd, 1);
      EXPECT_EQ(scc.self_delay_period, 0);
    }
  }
  EXPECT_EQ(analysis.offsets.period_divisor, 1);
  EXPECT_TRUE(HasCode(analysis, flow_code::kUnboundedGrowth));
}

TEST(FlowOffsetTest, DelayChainDivisorIsTheDelayGcd) {
  ParsedUnit unit = MustParse(R"(
    tick(0).
    tick(T+6) :- tick(T).
    tick(T+10) :- tick(T).
  )");
  FlowAnalysis analysis = Analyze(unit);
  // gcd(6, 10) = 2, single seed residue {0}: divisor 2.
  EXPECT_EQ(analysis.offsets.period_divisor, 2);
}

TEST(FlowOffsetTest, UnboundedSccIsWidenedByTheFramework) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  FlowAnalysis analysis = Analyze(unit);
  EXPECT_GE(analysis.stats.widened_sccs, 1);
  EXPECT_GT(analysis.stats.rounds, 0);
}

// --------------------------------------------------------------------------
// Degree analysis
// --------------------------------------------------------------------------

TEST(FlowDegreeTest, TransitiveClosureIsQuadratic) {
  ParsedUnit unit = MustParse(R"(
    e(a, b).
    e(b, c).
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
  )");
  FlowAnalysis analysis = Analyze(unit);
  EXPECT_EQ(analysis.degrees.degree[Pred(unit, "e")], 1);
  EXPECT_EQ(analysis.degrees.degree[Pred(unit, "tc")], 2);
  EXPECT_EQ(analysis.degrees.program_degree, 2);
  EXPECT_TRUE(HasCode(analysis, flow_code::kProgramDegree));
  EXPECT_FALSE(HasCode(analysis, flow_code::kDegreeBudget));

  FlowOptions tight;
  tight.degree_budget = 1;
  FlowAnalysis warned = Analyze(unit, tight);
  EXPECT_TRUE(HasCode(warned, flow_code::kDegreeBudget));
}

TEST(FlowDegreeTest, DegreeIsCappedByTheHeadArity) {
  // The body product would be n^2, but the head can only hold n distinct
  // tuples per timestep (one non-temporal argument).
  ParsedUnit unit = MustParse(R"(
    obs(0, x).
    pick(T, A) :- obs(T, A), obs(T, B).
  )");
  FlowAnalysis analysis = Analyze(unit);
  EXPECT_EQ(analysis.degrees.degree[Pred(unit, "pick")], 1);
}

// --------------------------------------------------------------------------
// Report surfaces
// --------------------------------------------------------------------------

TEST(FlowReportTest, SummaryAndJsonNameEveryPredicate) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  FlowAnalysis analysis = Analyze(unit);
  const std::string summary = analysis.Summary(unit.program);
  EXPECT_NE(summary.find("bounded: no"), std::string::npos) << summary;
  EXPECT_NE(summary.find("period divisor: 2"), std::string::npos) << summary;
  EXPECT_NE(summary.find("even"), std::string::npos) << summary;

  const std::string json = analysis.ToJson(unit.program);
  EXPECT_NE(json.find("\"period_divisor\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"self_delay_period\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"even\""), std::string::npos) << json;
}

TEST(FlowReportTest, PassRegistryCoversEveryACode) {
  std::string all_codes;
  for (const LintPassInfo& pass : FlowPassRegistry()) {
    all_codes += std::string(pass.codes) + ",";
  }
  for (const char* code :
       {flow_code::kOffsetCycle, flow_code::kUnboundedGrowth,
        flow_code::kStaticHorizon, flow_code::kPeriodDivisor,
        flow_code::kDegreeBudget, flow_code::kProgramDegree}) {
    EXPECT_NE(all_codes.find(code), std::string::npos) << code;
  }
}

}  // namespace
}  // namespace chronolog
