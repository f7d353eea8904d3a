#include <gtest/gtest.h>

#include <unordered_set>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "core/engine.h"
#include "eval/fixpoint.h"
#include "eval/provenance.h"
#include "query/query_parser.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

ProofForest MustForest(const ParsedUnit& unit, int64_t max_time) {
  FixpointOptions options;
  options.max_time = max_time;
  auto forest = MaterializeWithProvenance(unit.program, unit.database,
                                          options);
  EXPECT_TRUE(forest.ok()) << forest.status();
  return std::move(forest).value();
}

GroundAtom MustGround(const ParsedUnit& unit, std::string_view text) {
  auto atom = ParseGroundAtom(text, unit.program.vocab());
  EXPECT_TRUE(atom.ok()) << atom.status();
  return std::move(atom).value();
}

TEST(ProvenanceTest, ForestMatchesFixpoint) {
  std::mt19937 rng(3);
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::RandomGraphFactsSource(5, 9, &rng));
  FixpointOptions options;
  options.max_time = 10;
  EvalStats forest_stats;
  auto forest = MaterializeWithProvenance(unit.program, unit.database,
                                          options, &forest_stats);
  ASSERT_TRUE(forest.ok()) << forest.status();
  EvalStats model_stats;
  auto model =
      SemiNaiveFixpoint(unit.program, unit.database, options, &model_stats);
  ASSERT_TRUE(model.ok());
  // Same set of facts in both directions.
  EXPECT_EQ(forest->size(), model->size());
  model->ForEach([&](PredicateId pred, int64_t t, const Tuple& args) {
    EXPECT_TRUE(forest->Contains(GroundAtom(pred, t, args)));
  });
  // Same work: provenance runs the one semi-naive loop.
  EXPECT_EQ(forest_stats.derived, model_stats.derived);
  EXPECT_EQ(forest_stats.inserted, model_stats.inserted);
  EXPECT_EQ(forest_stats.match_steps, model_stats.match_steps);
  EXPECT_GT(forest_stats.inserted, 0u);
}

// The derivation hook fires exactly once per derived fact, also when a
// round inserts into a cell that a later (rule, position) pair of the same
// round reads: the forest holds one node per model fact.
TEST(ProvenanceTest, OneProofNodePerModelFact) {
  std::string chain;
  for (int i = 0; i + 1 < 12; ++i) {
    chain += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
             ").\n";
  }
  for (const std::string& source :
       {"tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n"
        "tc(X, Z) :- tc(X, Y), tc(Y, Z).\n" + chain,
        "q(T, Y) :- q(T, X), e(X, Y).\nq(T+1, X) :- q(T, X).\nq(0, c0).\n" +
            chain}) {
    ParsedUnit unit = MustParse(source);
    FixpointOptions options;
    options.max_time = 6;
    std::unordered_set<GroundAtom, GroundAtomHash> seen;
    uint64_t calls = 0;
    EvalStats stats;
    auto model = SemiNaiveFixpoint(
        unit.program, unit.database, options, &stats,
        [&](std::size_t, const GroundAtom& fact,
            const std::vector<GroundAtom>&) {
          ++calls;
          EXPECT_TRUE(seen.insert(fact).second) << "fact reported twice";
        });
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(calls + unit.database.facts().size(), model->size());
    EXPECT_EQ(stats.inserted, model->size());
    ProofForest forest = MustForest(unit, options.max_time);
    EXPECT_EQ(forest.nodes().size(), model->size());
    model->ForEach([&](PredicateId pred, int64_t t, const Tuple& args) {
      EXPECT_TRUE(forest.Contains(GroundAtom(pred, t, args)));
    });
  }
}

TEST(ProvenanceTest, ProofsAreWellFormed) {
  std::mt19937 rng(4);
  ParsedUnit unit = MustParse(workload::PathProgramSource() +
                              workload::RandomGraphFactsSource(5, 9, &rng));
  ProofForest forest = MustForest(unit, 8);
  for (std::size_t id = 0; id < forest.nodes().size(); ++id) {
    const ProofNode& node = forest.nodes()[id];
    if (node.rule_index < 0) {
      EXPECT_TRUE(node.premises.empty());
      continue;
    }
    const Rule& rule =
        unit.program.rules()[static_cast<std::size_t>(node.rule_index)];
    // The head predicate matches the rule, one premise per body atom, and
    // premises strictly precede the node (well-foundedness).
    EXPECT_EQ(node.fact.pred, rule.head.pred);
    ASSERT_EQ(node.premises.size(), rule.body.size());
    for (std::size_t b = 0; b < node.premises.size(); ++b) {
      ASSERT_LT(node.premises[b], id);
      EXPECT_EQ(forest.nodes()[node.premises[b]].fact.pred,
                rule.body[b].pred);
    }
  }
}

TEST(ProvenanceTest, DatabaseFactsAreLeaves) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  ProofForest forest = MustForest(unit, 6);
  std::size_t id = forest.Find(MustGround(unit, "even(0)"));
  ASSERT_NE(id, ProofForest::kNotFound);
  EXPECT_EQ(forest.nodes()[id].rule_index, -1);
}

TEST(ProvenanceTest, ExplainRendersChain) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  ProofForest forest = MustForest(unit, 6);
  auto proof = forest.Explain(MustGround(unit, "even(4)"), unit.program);
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_NE(proof->find("even(4)"), std::string::npos) << *proof;
  EXPECT_NE(proof->find("even(2)"), std::string::npos);
  EXPECT_NE(proof->find("even(0)   [database]"), std::string::npos);
  EXPECT_NE(proof->find("by rule: even(T+2) :- even(T)."), std::string::npos);
}

TEST(ProvenanceTest, ExplainUnprovableFactFails) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  ProofForest forest = MustForest(unit, 6);
  auto proof = forest.Explain(MustGround(unit, "even(3)"), unit.program);
  EXPECT_EQ(proof.status().code(), StatusCode::kNotFound);
}

TEST(ProvenanceTest, MaxDepthTruncates) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  ProofForest forest = MustForest(unit, 20);
  auto proof = forest.Explain(MustGround(unit, "even(20)"), unit.program,
                              /*max_depth=*/3);
  ASSERT_TRUE(proof.ok());
  EXPECT_NE(proof->find("..."), std::string::npos);
  EXPECT_EQ(proof->find("even(0)"), std::string::npos);
}

TEST(ProvenanceTest, DataOnlyRulesGetProofsWithinTimestep) {
  ParsedUnit unit = MustParse(R"(
    @temporal happy/2.
    happy(T, X) :- happy(T, Y), friend(X, Y).
    happy(0, anna). friend(bob, anna). friend(carl, bob).
  )");
  ProofForest forest = MustForest(unit, 2);
  auto proof =
      forest.Explain(MustGround(unit, "happy(0, carl)"), unit.program);
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_NE(proof->find("happy(0, bob)"), std::string::npos) << *proof;
  EXPECT_NE(proof->find("happy(0, anna)   [database]"), std::string::npos);
}

TEST(ProvenanceTest, MaxFactsGuard) {
  ParsedUnit unit = MustParse("p(T+1) :- p(T).\np(0).");
  FixpointOptions options;
  options.max_time = 1000;
  options.max_facts = 10;
  auto forest =
      MaterializeWithProvenance(unit.program, unit.database, options);
  EXPECT_EQ(forest.status().code(), StatusCode::kResourceExhausted);
}

// --------------------------------------------------------------------------
// Engine-level Explain
// --------------------------------------------------------------------------

TEST(ExplainTest, EngineExplainsRepresentativeAtom) {
  auto tdd = TemporalDatabase::FromSource(workload::EvenSource());
  ASSERT_TRUE(tdd.ok());
  auto proof = tdd->Explain("even(0)");
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_NE(proof->find("[database]"), std::string::npos);
}

TEST(ExplainTest, EngineRewritesDeepAtomsFirst) {
  auto tdd = TemporalDatabase::FromSource(workload::EvenSource());
  ASSERT_TRUE(tdd.ok());
  auto proof = tdd->Explain("even(1000000)");
  ASSERT_TRUE(proof.ok()) << proof.status();
  EXPECT_NE(proof->find("rewrites (W) to its representative"),
            std::string::npos)
      << *proof;
  EXPECT_NE(proof->find("even(0)"), std::string::npos);
}

TEST(ExplainTest, ExplainLeavesSpecPlansAlone) {
  auto tdd = TemporalDatabase::FromSource(
      workload::SkiScheduleSource(1, 12, 4, 1));
  ASSERT_TRUE(tdd.ok());
  ASSERT_TRUE(tdd->Ask("plane(3, resort0)").ok());
  const RulePlanReport before = tdd->spec_info().plans;
  ASSERT_FALSE(before.empty());
  ASSERT_TRUE(tdd->Explain("plane(3, resort0)").ok());
  ASSERT_TRUE(tdd->Explain("plane(400, resort0)").ok());
  const RulePlanReport& after = tdd->spec_info().plans;
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(after[i].size(), before[i].size()) << "rule " << i;
    for (std::size_t j = 0; j < before[i].size(); ++j) {
      EXPECT_EQ(after[i][j].order, before[i][j].order);
      EXPECT_EQ(after[i][j].probe_cols, before[i][j].probe_cols);
      EXPECT_EQ(after[i][j].observed_steps, before[i][j].observed_steps);
      EXPECT_EQ(after[i][j].observed_emits, before[i][j].observed_emits);
    }
  }
}

TEST(ExplainTest, EngineExplainFailsForFalseAtoms) {
  auto tdd = TemporalDatabase::FromSource(workload::EvenSource());
  ASSERT_TRUE(tdd.ok());
  EXPECT_EQ(tdd->Explain("even(3)").status().code(), StatusCode::kNotFound);
}

TEST(ExplainTest, SkiScheduleProofMentionsSeasons) {
  auto tdd = TemporalDatabase::FromSource(
      workload::SkiScheduleSource(1, 12, 4, 1));
  ASSERT_TRUE(tdd.ok());
  ASSERT_TRUE(tdd->Ask("plane(3, resort0)").ok());
  auto proof = tdd->Explain("plane(3, resort0)");
  ASSERT_TRUE(proof.ok()) << proof.status();
  // plane(3) comes from plane(1) via the winter rule; plane(1) from the
  // holiday rule.
  EXPECT_NE(proof->find("winter"), std::string::npos) << *proof;
}

}  // namespace
}  // namespace chronolog
