#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "query/query_parser.h"
#include "spec/period.h"
#include "spec/specification.h"
#include "workload/generators.h"
#include "period_reference.h"

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

// --------------------------------------------------------------------------
// FindMinimalPeriodInWindow
// --------------------------------------------------------------------------

std::vector<State> StatesOf(std::string_view src, int64_t horizon) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok());
  FixpointOptions options;
  options.max_time = horizon;
  auto model = SemiNaiveFixpoint(unit->program, unit->database, options);
  EXPECT_TRUE(model.ok());
  std::vector<State> states;
  for (int64_t t = 0; t <= horizon; ++t) {
    states.push_back(State::FromInterpretation(*model, t));
  }
  return states;
}

TEST(PeriodWindowTest, FindsEvenPeriod) {
  std::vector<State> states = StatesOf(workload::EvenSource(), 20);
  int64_t k = -1;
  int64_t p = -1;
  ASSERT_TRUE(FindMinimalPeriodInWindow(states, /*min_cycles=*/3, &k, &p));
  EXPECT_EQ(p, 2);
  EXPECT_EQ(k, 0);
}

TEST(PeriodWindowTest, InsufficientEvidenceReturnsFalse) {
  std::vector<State> states = StatesOf(workload::EvenSource(), 3);
  int64_t k = -1;
  int64_t p = -1;
  EXPECT_FALSE(FindMinimalPeriodInWindow(states, /*min_cycles=*/3, &k, &p));
}

TEST(PeriodWindowTest, ConstantSequenceHasPeriodOne) {
  std::vector<State> states = StatesOf("p(0). p(T+1) :- p(T).", 12);
  int64_t k = -1;
  int64_t p = -1;
  ASSERT_TRUE(FindMinimalPeriodInWindow(states, 3, &k, &p));
  EXPECT_EQ(p, 1);
  EXPECT_EQ(k, 0);
}

// --------------------------------------------------------------------------
// DetectPeriod: exact (forward) and verified-doubling paths
// --------------------------------------------------------------------------

TEST(DetectPeriodTest, ProgressiveUsesExactDetector) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  auto detection = DetectPeriod(unit.program, unit.database);
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_TRUE(detection->exact);
  EXPECT_EQ(detection->period.p, 2);
}

TEST(DetectPeriodTest, NonProgressiveFallsBackToDoubling) {
  // Backward rule: p spreads downward from 6 in steps of 2.
  ParsedUnit unit = MustParse("p(T) :- p(T+2).\np(6).");
  auto detection = DetectPeriod(unit.program, unit.database);
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_FALSE(detection->exact);
  // Model: p at 6, 4, 2, 0 and nothing else -> eventually empty states,
  // period (0, 1) relative to c = 6.
  EXPECT_EQ(detection->period.p, 1);
  EXPECT_TRUE(detection->model.Contains(MustGround(unit, "p(0)")));
  EXPECT_TRUE(detection->model.Contains(MustGround(unit, "p(4)")));
  EXPECT_FALSE(detection->model.Contains(MustGround(unit, "p(1)")));
  EXPECT_FALSE(detection->model.Contains(MustGround(unit, "p(8)")));
}

TEST(DetectPeriodTest, DoublingMatchesForwardOnProgressivePrograms) {
  for (const std::string& src :
       {workload::EvenSource(), workload::TokenRingSource({2, 3}),
        workload::DelayChainSource({3, 5})}) {
    ParsedUnit unit = MustParse(src);
    PeriodDetectionOptions forced;
    auto exact = DetectPeriod(unit.program, unit.database, forced);
    ASSERT_TRUE(exact.ok());
    // Force the doubling path by evaluating a logically equal program that
    // only differs by a harmless backward rule on a scratch predicate.
    ParsedUnit tweaked = MustParse(
        src + "\nscratch(T) :- scratch(T+1).\nscratch(0).");
    auto doubled = DetectPeriod(tweaked.program, tweaked.database, forced);
    ASSERT_TRUE(doubled.ok()) << doubled.status();
    EXPECT_FALSE(doubled->exact);
    EXPECT_EQ(doubled->period.p, exact->period.p) << src;
  }
}

TEST(DetectPeriodTest, HorizonBudgetIsEnforced) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({101, 103}));
  PeriodDetectionOptions options;
  options.max_horizon = 512;  // lcm = 10403
  auto detection = DetectPeriod(unit.program, unit.database, options);
  EXPECT_EQ(detection.status().code(), StatusCode::kResourceExhausted);
}

// --------------------------------------------------------------------------
// RelationalSpecification: the paper's `even` example, literally
// --------------------------------------------------------------------------

TEST(SpecificationTest, EvenMatchesPaperSection33) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok()) << spec.status();
  // T = {0, 1}; B = {even(0)}; W = {2 -> 0}.
  EXPECT_EQ(spec->num_representatives(), 2);
  EXPECT_EQ(spec->rewrite_lhs(), 2);
  EXPECT_EQ(spec->period().p, 2);
  EXPECT_EQ(spec->SizeInFacts(), 1u);
  EXPECT_TRUE(spec->primary().Contains(MustGround(unit, "even(0)")));
  // Paper: even(4) rewrites to even(2) then even(0): yes.
  EXPECT_TRUE(spec->Ask(MustGround(unit, "even(4)")));
  // Paper: even(3) rewrites to even(1), not in B: no.
  EXPECT_FALSE(spec->Ask(MustGround(unit, "even(3)")));
  EXPECT_EQ(spec->Canonicalize(4), 0);
  EXPECT_EQ(spec->Canonicalize(3), 1);
  EXPECT_EQ(spec->Canonicalize(1), 1);
  EXPECT_EQ(spec->Canonicalize(0), 0);
}

TEST(SpecificationTest, CanonicalizeIsIdempotentOnRepresentatives) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({3, 4}));
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok());
  for (int64_t t = 0; t < spec->num_representatives(); ++t) {
    EXPECT_TRUE(spec->IsRepresentative(t));
    EXPECT_EQ(spec->Canonicalize(t), t);
  }
  for (int64_t t = spec->num_representatives(); t < 200; ++t) {
    int64_t canonical = spec->Canonicalize(t);
    EXPECT_TRUE(spec->IsRepresentative(canonical)) << t;
    // Rewriting is compatible with stepping by p.
    EXPECT_EQ(spec->Canonicalize(t + spec->period().p), canonical);
  }
}

TEST(SpecificationTest, AskAgreesWithDeepMaterialisation) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({2, 5}));
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok());
  const int64_t horizon = 60;
  FixpointOptions options;
  options.max_time = horizon;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  // Every temporal fact up to the horizon must agree between spec-based
  // lookup and explicit materialisation.
  const Vocabulary& vocab = unit.program.vocab();
  PredicateId tok = vocab.FindPredicate("tok");
  for (int64_t t = 0; t <= horizon; ++t) {
    const Relation& rel = model->Snapshot(tok, t);
    for (uint32_t row = 0; row < rel.size(); ++row) {
      EXPECT_TRUE(spec->Ask(GroundAtom(tok, t, rel.Row(row)))) << t;
    }
  }
  // Spot-check negatives: a token can never be at two ring positions at the
  // same time.
  SymbolId r0_0 = vocab.FindConstant("r0_0");
  SymbolId r0_1 = vocab.FindConstant("r0_1");
  ASSERT_NE(r0_0, kInvalidSymbol);
  for (int64_t t = 0; t <= horizon; ++t) {
    EXPECT_NE(spec->Ask(GroundAtom(tok, t, {r0_0})) &&
                  spec->Ask(GroundAtom(tok, t, {r0_1})),
              true)
        << t;
  }
}

TEST(SpecificationTest, NonTemporalFactsLiveInPrimary) {
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::CycleGraphFactsSource(3));
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->Ask(MustGround(unit, "node(n0)")));
  EXPECT_TRUE(spec->Ask(MustGround(unit, "edge(n0, n1)")));
  EXPECT_FALSE(spec->Ask(MustGround(unit, "edge(n1, n0)")));
}

TEST(SpecificationTest, InflationaryPathSpecAnswersDeepQueries) {
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::CycleGraphFactsSource(4));
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->period().p, 1);
  // Once reachable, reachable at every deeper K — including K far beyond
  // the representatives.
  EXPECT_TRUE(spec->Ask(MustGround(unit, "path(1000000, n0, n3)")));
  EXPECT_FALSE(spec->Ask(MustGround(unit, "path(0, n0, n3)")));
}

TEST(SpecificationTest, NegativeTimeAsksAreFalse) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok());
  GroundAtom atom = MustGround(unit, "even(0)");
  atom.time = -5;
  EXPECT_FALSE(spec->Ask(atom));
}

TEST(SpecificationTest, ToStringMentionsAllComponents) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok());
  std::string text = spec->ToString();
  EXPECT_NE(text.find("T = {0, ..., 1}"), std::string::npos) << text;
  EXPECT_NE(text.find("W = {2 -> 0}"), std::string::npos) << text;
  EXPECT_NE(text.find("even(0)"), std::string::npos) << text;
}

// Freezing keeps exactly the facts of the model truncated to the
// representative segment, sorted by (pred, time, args), with the constant
// domain they span.
TEST(SpecificationTest, FrozenPrimaryHoldsExactlyTheTruncatedModel) {
  std::mt19937 rng(3);
  for (const std::string& source :
       {workload::TokenRingSource({3, 5, 7}),
        workload::SkiScheduleSource(3, 20, 6, 2),
        workload::PathProgramSource() +
            workload::RandomGraphFactsSource(64, 160, &rng)}) {
    ParsedUnit unit = MustParse(source);
    auto detection = DetectPeriod(unit.program, unit.database);
    ASSERT_TRUE(detection.ok()) << detection.status();
    // The freeze itself drops the cells after the representative segment.
    const int64_t last =
        detection->period.b + detection->c + detection->period.p - 1;
    Interpretation model = std::move(detection->model);
    Interpretation expected = model;
    expected.TruncateInPlace(last);
    ASSERT_GT(model.MaxTime(), last);
    const PrimaryDatabase frozen(std::move(model), last);
    EXPECT_EQ(frozen.size(), expected.size());

    std::set<SymbolId> constants;
    std::vector<std::tuple<PredicateId, int64_t, Tuple>> facts;
    frozen.ForEach([&](PredicateId pred, int64_t time, const Tuple& args) {
      facts.emplace_back(pred, time, args);
      constants.insert(args.begin(), args.end());
      EXPECT_TRUE(expected.Contains(pred, time, args));
      EXPECT_TRUE(frozen.Contains(pred, time, args.data(), args.size()));
      if (!args.empty()) {
        // A row that differs in its last argument is absent unless the
        // model holds it too.
        Tuple other = args;
        other.back() += 100000;
        EXPECT_FALSE(frozen.Contains(pred, time, other.data(), other.size()));
      }
    });
    EXPECT_EQ(facts.size(), expected.size());
    EXPECT_TRUE(std::is_sorted(facts.begin(), facts.end()));
    EXPECT_TRUE(std::adjacent_find(facts.begin(), facts.end()) ==
                facts.end());
    EXPECT_EQ(frozen.constants(),
              std::vector<SymbolId>(constants.begin(), constants.end()));
    for (PredicateId pred : frozen.vocab().AllPredicates()) {
      frozen.ForEachCell(pred, [&](int64_t time, std::size_t size) {
        const std::size_t want =
            frozen.IsTemporal(pred) ? expected.Snapshot(pred, time).size()
                                    : expected.NonTemporal(pred).size();
        EXPECT_EQ(size, want);
        EXPECT_EQ(frozen.CellSize(pred, time), want);
      });
    }
  }
}

// Cells inserted in descending order come out sorted: a small cell (index
// sort) and a large cell of dense values (radix). A cell after the last
// frozen time is dropped.
TEST(SpecificationTest, FreezeSortsUnsortedCells) {
  ParsedUnit unit = MustParse("@temporal q/3.\n");
  const PredicateId q = unit.program.vocab().FindPredicate("q");
  Interpretation model(unit.program.vocab_ptr());
  const std::vector<std::pair<int64_t, SymbolId>> cells = {{0, 5}, {1, 1000}};
  for (const auto& [time, n] : cells) {
    for (SymbolId i = n; i-- > 0;) model.Insert(q, time, Tuple{i % 7, i});
  }
  const Interpretation expected = model;
  model.Insert(q, 2, Tuple{0, 0});
  const PrimaryDatabase frozen(std::move(model), /*last_time=*/1);
  std::vector<std::pair<int64_t, Tuple>> facts;
  frozen.ForEach([&](PredicateId, int64_t time, const Tuple& args) {
    facts.emplace_back(time, args);
    EXPECT_TRUE(expected.Contains(q, time, args));
    EXPECT_TRUE(frozen.Contains(q, time, args.data(), args.size()));
  });
  EXPECT_EQ(facts.size(), expected.size());
  EXPECT_EQ(frozen.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(facts.begin(), facts.end()));
  for (const auto& [time, n] : cells) EXPECT_EQ(frozen.CellSize(q, time), n);
  EXPECT_EQ(frozen.CellSize(q, 2), 0u);
}

TEST(SpecificationTest, BuildInfoReportsDetector) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  SpecificationBuildInfo info;
  auto spec =
      BuildSpecification(unit.program, unit.database, {}, &info);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(info.exact_period);
  EXPECT_GT(info.detection_horizon, 0);
}

}  // namespace
}  // namespace chronolog
