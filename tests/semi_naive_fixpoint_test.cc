// Correctness and resumability of the semi-naive fixpoint engine:
//
//  * SemiNaiveFixpoint must produce the SAME model (operator==) as the
//    reference NaiveFixpoint.
//  * ExtendFixpoint(prior at m, 2m) must equal a from-scratch fixpoint at
//    2m — the frontier delta (last g time slices + newly admitted database
//    facts + re-fired ground-temporal-head rules) is a complete seed, and
//    the end of an extension chain must agree with NaiveFixpoint too.
//
// The sweep includes the coprime token rings — the exponential-period
// witness of Theorem 3.1 — and random non-progressive programs whose
// backward rules rewrite history when the horizon widens.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "query/query_parser.h"
#include "spec/specification.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

struct Workload {
  std::string name;
  std::string source;
};

std::vector<Workload> FixedWorkloads() {
  std::mt19937 rng(4242);
  return {
      {"path_cycle",
       workload::PathProgramSource() + workload::CycleGraphFactsSource(8)},
      {"path_random",
       workload::PathProgramSource() +
           workload::RandomGraphFactsSource(10, 20, &rng)},
      {"ski", workload::SkiScheduleSource(3, /*year_len=*/28,
                                          /*winter_len=*/8, /*holidays=*/2)},
      // Coprime ring lengths: minimal period lcm(2,3,5) = 30 from 10 facts —
      // the Theorem 3.1 exponential-period construction in miniature.
      {"coprime_rings", workload::TokenRingSource({2, 3, 5})},
      {"binary_counter", workload::BinaryCounterSource(4)},
      {"even", workload::EvenSource()},
  };
}

std::string NonProgressiveSource(uint32_t seed) {
  std::mt19937 rng(seed);
  workload::RandomProgramOptions options;
  options.progressive_only = false;
  options.max_offset = 2;
  options.num_rules = 5;
  options.num_facts = 8;
  return workload::RandomProgramSource(options, &rng);
}

Interpretation MustFixpoint(const ParsedUnit& unit, int64_t max_time) {
  FixpointOptions fp;
  fp.max_time = max_time;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, fp);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(*model);
}

TEST(SemiNaiveFixpointTest, MatchesNaiveOnFixedWorkloads) {
  for (const Workload& w : FixedWorkloads()) {
    SCOPED_TRACE(w.name);
    auto unit = Parser::Parse(w.source);
    ASSERT_TRUE(unit.ok()) << unit.status();

    FixpointOptions fp;
    fp.max_time = 64;
    auto reference = NaiveFixpoint(unit->program, unit->database, fp);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_TRUE(MustFixpoint(*unit, 64) == *reference);
  }
}

TEST(SemiNaiveFixpointTest, MatchesNaiveOnRandomNonProgressivePrograms) {
  for (uint32_t seed = 0; seed < 12; ++seed) {
    std::string src = NonProgressiveSource(seed);
    SCOPED_TRACE(src);
    auto unit = Parser::Parse(src);
    ASSERT_TRUE(unit.ok()) << unit.status();
    FixpointOptions fp;
    fp.max_time = 48;
    auto reference = NaiveFixpoint(unit->program, unit->database, fp);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_TRUE(MustFixpoint(*unit, 48) == *reference);
  }
}

// The doubling chain m -> 2m -> 4m, re-using the previous model each step,
// must land on exactly the model a from-scratch evaluation computes.
TEST(SemiNaiveFixpointTest, ExtendChainMatchesFromScratch) {
  for (const Workload& w : FixedWorkloads()) {
    SCOPED_TRACE(w.name);
    auto unit = Parser::Parse(w.source);
    ASSERT_TRUE(unit.ok()) << unit.status();

    FixpointOptions fp;
    fp.max_time = 16;
    auto model = SemiNaiveFixpoint(unit->program, unit->database, fp);
    ASSERT_TRUE(model.ok()) << model.status();

    int64_t prior_m = 16;
    for (int64_t m : {32, 64}) {
      fp.max_time = m;
      auto extended = ExtendFixpoint(unit->program, unit->database,
                                     std::move(*model), prior_m, fp);
      ASSERT_TRUE(extended.ok()) << extended.status();
      Interpretation scratch = MustFixpoint(*unit, m);
      EXPECT_TRUE(*extended == scratch) << "m=" << m;
      model = std::move(extended);
      prior_m = m;
    }

    // The end of the chain must also agree with the naive reference.
    FixpointOptions naive_fp;
    naive_fp.max_time = prior_m;
    auto reference = NaiveFixpoint(unit->program, unit->database, naive_fp);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_TRUE(*model == *reference);
  }
}

TEST(SemiNaiveFixpointTest, ExtendMatchesOnRandomNonProgressivePrograms) {
  for (uint32_t seed = 100; seed < 112; ++seed) {
    std::string src = NonProgressiveSource(seed);
    SCOPED_TRACE(src);
    auto unit = Parser::Parse(src);
    ASSERT_TRUE(unit.ok()) << unit.status();
    FixpointOptions fp;
    fp.max_time = 20;
    auto model = SemiNaiveFixpoint(unit->program, unit->database, fp);
    ASSERT_TRUE(model.ok()) << model.status();
    fp.max_time = 40;
    auto extended = ExtendFixpoint(unit->program, unit->database,
                                   std::move(*model), 20, fp);
    ASSERT_TRUE(extended.ok()) << extended.status();
    Interpretation scratch = MustFixpoint(*unit, 40);
    EXPECT_TRUE(*extended == scratch);
  }
}

// A database fact beyond the old bound is admitted by the wider bound, and a
// backward rule rewrites history all the way down from it. ExtendFixpoint
// must derive the rewritten prefix and report it through min_new_time so
// callers know their cached state suffix is stale.
TEST(SemiNaiveFixpointTest, ExtendAdmitsLateFactAndRewritesHistory) {
  auto unit = Parser::Parse(R"(
    q(100).
    p(T) :- q(T+1).
    p(T) :- p(T+1).
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();

  FixpointOptions fp;
  fp.max_time = 50;
  auto model = SemiNaiveFixpoint(unit->program, unit->database, fp);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->size(), 0u);  // q(100) is beyond the bound; nothing holds

  fp.max_time = 120;
  EvalStats stats;
  auto extended = ExtendFixpoint(unit->program, unit->database,
                                 std::move(*model), 50, fp, &stats);
  ASSERT_TRUE(extended.ok()) << extended.status();

  Interpretation scratch = MustFixpoint(*unit, 120);
  EXPECT_TRUE(*extended == scratch);
  const Vocabulary& vocab = unit->program.vocab();
  auto parse_atom = [&](const std::string& text) {
    auto atom = ParseGroundAtom(text, vocab);
    EXPECT_TRUE(atom.ok()) << atom.status();
    return *atom;
  };
  EXPECT_TRUE(extended->Contains(parse_atom("q(100)")));
  EXPECT_TRUE(extended->Contains(parse_atom("p(99)")));
  EXPECT_TRUE(extended->Contains(parse_atom("p(0)")));
  EXPECT_FALSE(extended->Contains(parse_atom("p(100)")));
  // History was rewritten down to time 0: no state below that may be reused.
  EXPECT_EQ(stats.min_new_time, 0);
}

// A rule with a ground temporal head beyond the old bound fires during the
// extension, and its consequences propagate through ordinary rules.
TEST(SemiNaiveFixpointTest, ExtendFiresGroundTemporalHeadRules) {
  auto unit = Parser::Parse(R"(
    s(0).
    s(T+1) :- s(T).
    r(75) :- s(0).
    w(T+1) :- r(T).
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();

  FixpointOptions fp;
  fp.max_time = 50;
  auto model = SemiNaiveFixpoint(unit->program, unit->database, fp);
  ASSERT_TRUE(model.ok()) << model.status();

  fp.max_time = 100;
  auto extended = ExtendFixpoint(unit->program, unit->database,
                                 std::move(*model), 50, fp);
  ASSERT_TRUE(extended.ok()) << extended.status();

  Interpretation scratch = MustFixpoint(*unit, 100);
  EXPECT_TRUE(*extended == scratch);
  const Vocabulary& vocab = unit->program.vocab();
  auto parse_atom = [&](const std::string& text) {
    auto atom = ParseGroundAtom(text, vocab);
    EXPECT_TRUE(atom.ok()) << atom.status();
    return *atom;
  };
  EXPECT_TRUE(extended->Contains(parse_atom("r(75)")));
  EXPECT_TRUE(extended->Contains(parse_atom("w(76)")));
}

// End-to-end: the verified-doubling detector (which now extends its model
// across doublings instead of recomputing) agrees with a deep from-scratch
// model. `seen` makes the ring program non-progressive, forcing the doubling
// path.
TEST(SemiNaiveFixpointTest, IncrementalDoublingSpecificationIsSound) {
  std::string src =
      workload::TokenRingSource({2, 3, 5}) + "seen(X) :- tok(T, X).\n";
  auto unit = Parser::Parse(src);
  ASSERT_TRUE(unit.ok()) << unit.status();

  auto spec = BuildSpecification(unit->program, unit->database);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->period().p, 30);

  const int64_t horizon = spec->num_representatives() + 3 * spec->period().p;
  Interpretation deep = MustFixpoint(*unit, horizon);
  deep.ForEach([&](PredicateId pred, int64_t t, const Tuple& args) {
    EXPECT_TRUE(spec->Ask(GroundAtom(pred, t, args))) << "t=" << t;
  });
}

}  // namespace
}  // namespace chronolog
