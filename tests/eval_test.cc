#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "eval/rule_eval.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

GroundAtom MustAtom(const ParsedUnit& unit, std::string_view pred, int64_t t,
                    std::vector<std::string> args) {
  GroundAtom atom;
  atom.pred = unit.program.vocab().FindPredicate(pred);
  EXPECT_NE(atom.pred, kInvalidPredicate);
  atom.time = t;
  for (const auto& a : args) {
    SymbolId c = unit.program.vocab().FindConstant(a);
    EXPECT_NE(c, kInvalidSymbol) << a;
    atom.args.push_back(c);
  }
  return atom;
}

// --------------------------------------------------------------------------
// RuleEvaluator
// --------------------------------------------------------------------------

TEST(RuleEvalTest, SimpleJoin) {
  ParsedUnit unit = MustParse(R"(
    r(X, Z) :- e(X, Y), e(Y, Z).
    e(a, b). e(b, c).
  )");
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  RuleEvaluator evaluator(unit.program.rules()[0], unit.program.vocab());
  std::vector<GroundAtom> derived;
  evaluator.Evaluate(interp, nullptr, -1, std::nullopt, nullptr,
                     [&](GroundAtom&& f) { derived.push_back(std::move(f)); });
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0], MustAtom(unit, "r", 0, {"a", "c"}));
}

TEST(RuleEvalTest, TemporalOffsetShiftsHeadTime) {
  ParsedUnit unit = MustParse("p(T+2, X) :- p(T, X).\np(3, a).");
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  RuleEvaluator evaluator(unit.program.rules()[0], unit.program.vocab());
  std::vector<GroundAtom> derived;
  evaluator.Evaluate(interp, nullptr, -1, std::nullopt, nullptr,
                     [&](GroundAtom&& f) { derived.push_back(std::move(f)); });
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].time, 5);
}

TEST(RuleEvalTest, BodyOffsetShiftsLookupBackwards) {
  // Body q(T+1): matching q at time 4 binds T = 3, head p(3).
  ParsedUnit unit = MustParse("p(T) :- q(T+1).\nq(4). p(0).");
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  RuleEvaluator evaluator(unit.program.rules()[0], unit.program.vocab());
  std::vector<GroundAtom> derived;
  evaluator.Evaluate(interp, nullptr, -1, std::nullopt, nullptr,
                     [&](GroundAtom&& f) { derived.push_back(std::move(f)); });
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].time, 3);
}

TEST(RuleEvalTest, NegativeTimesAreNotGenerated) {
  // q only at time 0: T = -1 would be needed, which is not a ground
  // temporal term.
  ParsedUnit unit = MustParse("p(T) :- q(T+1).\nq(0). p(0).");
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  RuleEvaluator evaluator(unit.program.rules()[0], unit.program.vocab());
  int count = 0;
  evaluator.Evaluate(interp, nullptr, -1, std::nullopt, nullptr,
                     [&](GroundAtom&&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(RuleEvalTest, RepeatedVariableMustMatch) {
  ParsedUnit unit = MustParse("loop(X) :- e(X, X).\ne(a, a). e(a, b).");
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  RuleEvaluator evaluator(unit.program.rules()[0], unit.program.vocab());
  std::vector<GroundAtom> derived;
  evaluator.Evaluate(interp, nullptr, -1, std::nullopt, nullptr,
                     [&](GroundAtom&& f) { derived.push_back(std::move(f)); });
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0], MustAtom(unit, "loop", 0, {"a"}));
}

TEST(RuleEvalTest, ConstantInBodyFilters) {
  ParsedUnit unit = MustParse("picked(X) :- e(a, X).\ne(a, b). e(c, d).");
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  RuleEvaluator evaluator(unit.program.rules()[0], unit.program.vocab());
  std::vector<GroundAtom> derived;
  evaluator.Evaluate(interp, nullptr, -1, std::nullopt, nullptr,
                     [&](GroundAtom&& f) { derived.push_back(std::move(f)); });
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0], MustAtom(unit, "picked", 0, {"b"}));
}

TEST(RuleEvalTest, DeltaPositionRestrictsMatching) {
  ParsedUnit unit = MustParse("r(X, Z) :- e(X, Y), e(Y, Z).\ne(a, b). e(b, c).");
  Interpretation full(unit.program.vocab_ptr());
  full.InsertDatabase(unit.database);
  // Delta contains only e(a, b), the first row of `e`: with delta at
  // position 0 we derive r(a, c); with delta at position 1 nothing (no fact
  // e(Y=?, ...) matching e(a,b) as the second atom yields r only if first
  // matches e(X, a)... none).
  const PredicateId e = unit.program.vocab().FindPredicate("e");
  ASSERT_EQ(full.NonTemporal(e).Row(0),
            MustAtom(unit, "e", 0, {"a", "b"}).args);
  Delta delta;
  delta.Add({e, /*begin=*/0, /*end=*/1, /*time=*/0, &full.NonTemporal(e)});
  delta.Index(unit.program.vocab().num_predicates());
  RuleEvaluator evaluator(unit.program.rules()[0], unit.program.vocab());

  std::vector<GroundAtom> at0;
  evaluator.Evaluate(full, &delta, 0, std::nullopt, nullptr,
                     [&](GroundAtom&& f) { at0.push_back(std::move(f)); });
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], MustAtom(unit, "r", 0, {"a", "c"}));

  std::vector<GroundAtom> at1;
  evaluator.Evaluate(full, &delta, 1, std::nullopt, nullptr,
                     [&](GroundAtom&& f) { at1.push_back(std::move(f)); });
  EXPECT_TRUE(at1.empty());
}

TEST(RuleEvalTest, TimeBindingPinsTemporalVariable) {
  ParsedUnit unit = MustParse("p(T+1, X) :- p(T, X).\np(0, a). p(5, a).");
  const Rule& rule = unit.program.rules()[0];
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  RuleEvaluator evaluator(rule, unit.program.vocab());
  VarId tvar = rule.head.time->var;
  std::vector<GroundAtom> derived;
  evaluator.Evaluate(interp, nullptr, -1, std::make_pair(tvar, int64_t{5}),
                     nullptr,
                     [&](GroundAtom&& f) { derived.push_back(std::move(f)); });
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].time, 6);
}

TEST(RuleEvalTest, StatsAreCounted) {
  ParsedUnit unit = MustParse("r(X) :- e(X, Y).\ne(a, b). e(a, c).");
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  RuleEvaluator evaluator(unit.program.rules()[0], unit.program.vocab());
  EvalStats stats;
  evaluator.Evaluate(interp, nullptr, -1, std::nullopt, &stats,
                     [](GroundAtom&&) {});
  EXPECT_EQ(stats.derived, 2u);
  EXPECT_GE(stats.match_steps, 2u);
}

// --------------------------------------------------------------------------
// ApplyTp and fixpoints
// --------------------------------------------------------------------------

TEST(FixpointTest, ApplyTpIncludesDatabase) {
  ParsedUnit unit = MustParse("q(T) :- p(T).\np(0). p(4).");
  Interpretation empty(unit.program.vocab_ptr());
  FixpointOptions options;
  options.max_time = 10;
  auto out = ApplyTp(unit.program, unit.database, empty, options);
  ASSERT_TRUE(out.ok()) << out.status();
  // T(∅) = D: rule consequences need p in the *input* interpretation.
  EXPECT_EQ(out->size(), 2u);
  EXPECT_TRUE(out->Contains(MustAtom(unit, "p", 0, {})));
  EXPECT_FALSE(out->Contains(MustAtom(unit, "q", 0, {})));
}

TEST(FixpointTest, ApplyTpTruncates) {
  ParsedUnit unit = MustParse("p(T+1) :- p(T).\np(0).");
  Interpretation interp(unit.program.vocab_ptr());
  interp.InsertDatabase(unit.database);
  FixpointOptions options;
  options.max_time = 0;
  auto out = ApplyTp(unit.program, unit.database, interp, options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);  // p(1) discarded
}

TEST(FixpointTest, NaiveComputesTruncatedLeastModel) {
  ParsedUnit unit = MustParse("even(0). even(T+2) :- even(T).");
  FixpointOptions options;
  options.max_time = 9;
  auto model = NaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok()) << model.status();
  for (int64_t t = 0; t <= 9; ++t) {
    EXPECT_EQ(model->Contains(MustAtom(unit, "even", t, {})), t % 2 == 0)
        << "t=" << t;
  }
  EXPECT_EQ(model->size(), 5u);
}

TEST(FixpointTest, SemiNaiveMatchesNaive) {
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::CycleGraphFactsSource(4));
  FixpointOptions options;
  options.max_time = 12;
  auto naive = NaiveFixpoint(unit.program, unit.database, options);
  auto semi = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(semi.ok()) << semi.status();
  EXPECT_TRUE(*naive == *semi);
}

TEST(FixpointTest, SemiNaiveDerivesLessThanNaive) {
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::CycleGraphFactsSource(5));
  FixpointOptions options;
  options.max_time = 16;
  EvalStats naive_stats;
  EvalStats semi_stats;
  ASSERT_TRUE(
      NaiveFixpoint(unit.program, unit.database, options, &naive_stats).ok());
  ASSERT_TRUE(
      SemiNaiveFixpoint(unit.program, unit.database, options, &semi_stats)
          .ok());
  // The ablation claim of experiment E8: semi-naive avoids re-derivation.
  EXPECT_LT(semi_stats.derived, naive_stats.derived);
}

TEST(FixpointTest, NonTemporalDatalogWorks) {
  ParsedUnit unit = MustParse(workload::TransitiveClosureDatalogSource() +
                              "edge(a, b). edge(b, c). edge(c, d).");
  FixpointOptions options;
  options.max_time = 0;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Contains(MustAtom(unit, "tc", 0, {"a", "d"})));
  EXPECT_FALSE(model->Contains(MustAtom(unit, "tc", 0, {"d", "a"})));
  // |tc| = 3+2+1 = 6 plus 3 edges.
  EXPECT_EQ(model->size(), 9u);
}

TEST(FixpointTest, MaxFactsGuardFires) {
  ParsedUnit unit = MustParse("p(T+1) :- p(T).\np(0).");
  FixpointOptions options;
  options.max_time = 1000;
  options.max_facts = 10;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  EXPECT_EQ(model.status().code(), StatusCode::kResourceExhausted);
  auto naive = NaiveFixpoint(unit.program, unit.database, options);
  EXPECT_EQ(naive.status().code(), StatusCode::kResourceExhausted);
}

TEST(FixpointTest, DataOnlyRecursionWithinTimestep) {
  ParsedUnit unit = MustParse(R"(
    @temporal happy/2.
    happy(T, X) :- happy(T, Y), friend(X, Y).
    happy(0, anna).
    friend(bob, anna). friend(carl, bob).
  )");
  FixpointOptions options;
  options.max_time = 2;
  auto model = NaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Contains(MustAtom(unit, "happy", 0, {"bob"})));
  EXPECT_TRUE(model->Contains(MustAtom(unit, "happy", 0, {"carl"})));
  EXPECT_FALSE(model->Contains(MustAtom(unit, "happy", 1, {"anna"})));
}

TEST(FixpointTest, BackwardRulesConverge) {
  // p flows backwards from q(5).
  ParsedUnit unit = MustParse("p(T) :- p(T+1).\np(5). p(0).");
  FixpointOptions options;
  options.max_time = 8;
  auto model = NaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  for (int64_t t = 0; t <= 5; ++t) {
    EXPECT_TRUE(model->Contains(MustAtom(unit, "p", t, {}))) << t;
  }
  EXPECT_FALSE(model->Contains(MustAtom(unit, "p", 6, {})));
}

TEST(FixpointTest, GroundTimeRuleBody) {
  ParsedUnit unit = MustParse(R"(
    alarm(T) :- tick(T), tick(3).
    tick(0). tick(3).
  )");
  FixpointOptions options;
  options.max_time = 5;
  auto model = NaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Contains(MustAtom(unit, "alarm", 0, {})));
  EXPECT_TRUE(model->Contains(MustAtom(unit, "alarm", 3, {})));
  EXPECT_FALSE(model->Contains(MustAtom(unit, "alarm", 1, {})));
}

}  // namespace
}  // namespace chronolog
