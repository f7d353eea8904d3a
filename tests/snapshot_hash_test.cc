// The on-demand snapshot hash Interpretation::SnapshotHash(t), summed from
// the cells at `t`, must equal the from-scratch state hash
// State::FromInterpretation(m, t).Hash() after every way a model can be
// produced or mutated: one-shot fixpoints, resumed extension chains
// (including the backward-rule history-rewrite path reported through
// EvalStats::min_new_time), truncation, and copies. The combine is
// order-independent by construction; that too is pinned down here.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "query/query_parser.h"
#include "storage/state.h"
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

ParsedUnit MustParse(const std::string& src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

/// Every snapshot hash on [0, horizon] equals the hash of the state
/// materialised from scratch (and, past the horizon, the empty-state hash).
void ExpectHashesMatchFromScratch(const Interpretation& model,
                                  int64_t horizon) {
  for (int64_t t = 0; t <= horizon; ++t) {
    const State state = State::FromInterpretation(model, t);
    EXPECT_EQ(model.SnapshotHash(t), state.Hash()) << "t=" << t;
  }
  EXPECT_EQ(model.SnapshotHash(horizon + 7), State().Hash());
}

TEST(SnapshotHashTest, FixpointHashesMatchFromScratch) {
  for (const Workload& w : FixedWorkloads()) {
    SCOPED_TRACE(w.name);
    ParsedUnit unit = MustParse(w.source);
    FixpointOptions fp;
    fp.max_time = 48;
    auto model = SemiNaiveFixpoint(unit.program, unit.database, fp);
    ASSERT_TRUE(model.ok()) << model.status();
    ExpectHashesMatchFromScratch(*model, 48);
  }
}

TEST(SnapshotHashTest, RandomNonProgressiveFixpointHashesMatch) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    std::string src = NonProgressiveSource(seed);
    SCOPED_TRACE(src);
    ParsedUnit unit = MustParse(src);
    FixpointOptions fp;
    fp.max_time = 40;
    auto model = SemiNaiveFixpoint(unit.program, unit.database, fp);
    ASSERT_TRUE(model.ok()) << model.status();
    ExpectHashesMatchFromScratch(*model, 40);
  }
}

TEST(SnapshotHashTest, ExtendChainMaintainsHashes) {
  for (const Workload& w : FixedWorkloads()) {
    SCOPED_TRACE(w.name);
    ParsedUnit unit = MustParse(w.source);
    FixpointOptions fp;
    fp.max_time = 16;
    auto model = SemiNaiveFixpoint(unit.program, unit.database, fp);
    ASSERT_TRUE(model.ok()) << model.status();

    int64_t prior_m = 16;
    for (int64_t m : {32, 64}) {
      fp.max_time = m;
      auto extended = ExtendFixpoint(unit.program, unit.database,
                                     std::move(*model), prior_m, fp);
      ASSERT_TRUE(extended.ok()) << extended.status();
      ExpectHashesMatchFromScratch(*extended, m);
      model = std::move(extended);
      prior_m = m;
    }
  }
}

// A database fact beyond the old bound feeds a backward rule: the extension
// rewrites history down to time 0 (min_new_time == 0) and every snapshot
// hash — including the rewritten prefix — must track the new states.
TEST(SnapshotHashTest, HistoryRewriteMaintainsHashes) {
  ParsedUnit unit = MustParse(R"(
    q(100).
    p(T) :- q(T+1).
    p(T) :- p(T+1).
  )");
  FixpointOptions fp;
  fp.max_time = 50;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, fp);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_EQ(model->size(), 0u);

  fp.max_time = 120;
  EvalStats stats;
  auto extended = ExtendFixpoint(unit.program, unit.database,
                                 std::move(*model), 50, fp, &stats);
  ASSERT_TRUE(extended.ok()) << extended.status();
  ASSERT_EQ(stats.min_new_time, 0);
  ExpectHashesMatchFromScratch(*extended, 120);
}

TEST(SnapshotHashTest, TruncationPrunesHashes) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({2, 3, 5}));
  FixpointOptions fp;
  fp.max_time = 40;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, fp);
  ASSERT_TRUE(model.ok()) << model.status();

  model->TruncateInPlace(17);
  ExpectHashesMatchFromScratch(*model, 17);
  // Truncated snapshots revert to the empty-state hash.
  EXPECT_EQ(model->SnapshotHash(18), State().Hash());
  EXPECT_EQ(model->SnapshotHash(40), State().Hash());
}

TEST(SnapshotHashTest, CopiesCarryHashes) {
  ParsedUnit unit = MustParse(workload::BinaryCounterSource(3));
  FixpointOptions fp;
  fp.max_time = 30;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, fp);
  ASSERT_TRUE(model.ok()) << model.status();

  Interpretation copy = *model;
  for (int64_t t = 0; t <= 30; ++t) {
    EXPECT_EQ(copy.SnapshotHash(t), model->SnapshotHash(t)) << "t=" << t;
  }
  ExpectHashesMatchFromScratch(copy, 30);
}

// The combine is a commutative sum: the hash of a snapshot must not depend
// on the order its facts were inserted in.
TEST(SnapshotHashTest, HashIsInsertionOrderIndependent) {
  ParsedUnit unit = MustParse(
      "tok(0, a). tok(0, b). tok(0, c). tok(1, a).\n"
      "tok(T+1, X) :- tok(T, X).");
  const Vocabulary& vocab = unit.program.vocab();
  std::vector<GroundAtom> facts;
  for (std::string_view text :
       {"tok(5, a)", "tok(5, b)", "tok(5, c)", "tok(6, a)", "tok(6, b)"}) {
    auto atom = ParseGroundAtom(text, vocab);
    ASSERT_TRUE(atom.ok()) << atom.status();
    facts.push_back(*atom);
  }

  Interpretation forward_order(unit.program.vocab_ptr());
  for (const GroundAtom& f : facts) forward_order.Insert(f);

  Interpretation reverse_order(unit.program.vocab_ptr());
  for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
    reverse_order.Insert(*it);
  }

  for (int64_t t = 0; t <= 6; ++t) {
    EXPECT_EQ(forward_order.SnapshotHash(t), reverse_order.SnapshotHash(t))
        << "t=" << t;
  }
  // Distinct states should (for these tiny sets) hash differently.
  EXPECT_NE(forward_order.SnapshotHash(5), forward_order.SnapshotHash(6));
  EXPECT_NE(forward_order.SnapshotHash(5), State().Hash());
}

TEST(SnapshotHashTest, SnapshotEqualsAgreesWithStateEquality) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({3, 4}));
  FixpointOptions fp;
  fp.max_time = 30;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, fp);
  ASSERT_TRUE(model.ok()) << model.status();
  for (int64_t t1 = 0; t1 <= 30; ++t1) {
    for (int64_t t2 = t1; t2 <= 30; ++t2) {
      EXPECT_EQ(model->SnapshotEquals(t1, t2),
                State::FromInterpretation(*model, t1) ==
                    State::FromInterpretation(*model, t2))
          << "t1=" << t1 << " t2=" << t2;
    }
  }
}

}  // namespace
}  // namespace chronolog
