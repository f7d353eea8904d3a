// Column-index probes of the relations of an Interpretation and their
// interaction with the rule evaluator (hash joins vs the nested-loop
// baseline).

#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "storage/interpretation.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = std::make_shared<Vocabulary>();
    auto e = vocab_->DeclarePredicate("e", 2);
    ASSERT_TRUE(e.ok());
    e_ = *e;
    auto p = vocab_->DeclarePredicate("p", 2);
    ASSERT_TRUE(p.ok());
    p_ = *p;
    vocab_->SetTemporal(p_);
    a_ = vocab_->InternConstant("a");
    b_ = vocab_->InternConstant("b");
    c_ = vocab_->InternConstant("c");
  }

  std::shared_ptr<Vocabulary> vocab_;
  PredicateId e_ = 0;
  PredicateId p_ = 0;
  SymbolId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(IndexTest, NonTemporalProbeFindsBuckets) {
  Interpretation interp(vocab_);
  interp.Insert(e_, 0, {a_, b_});
  interp.Insert(e_, 0, {a_, c_});
  interp.Insert(e_, 0, {b_, c_});
  const auto* bucket = interp.NonTemporal(e_).Probe(0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  const auto* col1 = interp.NonTemporal(e_).Probe(1, c_);
  ASSERT_NE(col1, nullptr);
  EXPECT_EQ(col1->size(), 2u);
  EXPECT_EQ(interp.NonTemporal(e_).Probe(0, c_), nullptr);
}

TEST_F(IndexTest, IndexIsMaintainedAcrossInserts) {
  Interpretation interp(vocab_);
  interp.Insert(e_, 0, {a_, b_});
  // Build the index first...
  ASSERT_NE(interp.NonTemporal(e_).Probe(0, a_), nullptr);
  // ...then keep inserting: the bucket must grow.
  interp.Insert(e_, 0, {a_, c_});
  interp.Insert(e_, 0, {b_, b_});
  const auto* bucket = interp.NonTemporal(e_).Probe(0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  EXPECT_EQ(interp.NonTemporal(e_).Probe(0, b_)->size(), 1u);
}

TEST_F(IndexTest, SnapshotProbe) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 3, {a_});
  interp.Insert(p_, 3, {b_});
  interp.Insert(p_, 5, {a_});
  const auto* bucket = interp.Snapshot(p_, 3).Probe(0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u);
  // Buckets hold row ids into the probed snapshot's relation.
  EXPECT_EQ(interp.Snapshot(p_, 3).at((*bucket)[0], 0), a_);
  EXPECT_EQ(interp.Snapshot(p_, 4).Probe(0, a_), nullptr);  // empty snapshot
  EXPECT_EQ(interp.Snapshot(p_, 3).Probe(0, c_), nullptr);  // empty bucket
}

TEST_F(IndexTest, SnapshotIndexMaintainedAcrossInserts) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 1, {a_});
  ASSERT_NE(interp.Snapshot(p_, 1).Probe(0, a_), nullptr);
  interp.Insert(p_, 1, {a_});  // duplicate: no growth
  EXPECT_EQ(interp.Snapshot(p_, 1).Probe(0, a_)->size(), 1u);
  interp.Insert(p_, 1, {b_});
  EXPECT_EQ(interp.Snapshot(p_, 1).Probe(0, b_)->size(), 1u);
}

TEST_F(IndexTest, CopyCarriesAnIndependentIndex) {
  Interpretation interp(vocab_);
  interp.Insert(e_, 0, {a_, b_});
  ASSERT_NE(interp.NonTemporal(e_).Probe(0, a_), nullptr);
  Interpretation copy = interp;
  // The copy carries its own index and sees the same facts.
  const auto* bucket = copy.NonTemporal(e_).Probe(0, a_);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u);
  // Inserting into the copy must not disturb the original.
  copy.Insert(e_, 0, {a_, c_});
  EXPECT_EQ(interp.NonTemporal(e_).Probe(0, a_)->size(), 1u);
  EXPECT_EQ(copy.NonTemporal(e_).Probe(0, a_)->size(), 2u);
}

TEST_F(IndexTest, TruncateInvalidatesSnapshotIndex) {
  Interpretation interp(vocab_);
  interp.Insert(p_, 1, {a_});
  interp.Insert(p_, 9, {a_});
  ASSERT_NE(interp.Snapshot(p_, 9).Probe(0, a_), nullptr);
  interp.TruncateInPlace(5);
  EXPECT_EQ(interp.Snapshot(p_, 9).Probe(0, a_), nullptr);
  ASSERT_NE(interp.Snapshot(p_, 1).Probe(0, a_), nullptr);
}

// The ablation invariant: fixpoints with and without the index produce the
// identical least model on random programs.
class IndexAblation : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IndexAblation, IndexedAndUnindexedFixpointsAgree) {
  std::mt19937 rng(GetParam());
  workload::RandomProgramOptions options;
  options.progressive_only = (GetParam() % 2 == 0);
  std::string src = workload::RandomProgramSource(options, &rng);
  SCOPED_TRACE(src);
  auto unit = Parser::Parse(src);
  ASSERT_TRUE(unit.ok()) << unit.status();
  FixpointOptions with_index;
  with_index.max_time = 12;
  FixpointOptions without_index = with_index;
  without_index.use_index = false;
  auto indexed =
      SemiNaiveFixpoint(unit->program, unit->database, with_index);
  auto scanned =
      SemiNaiveFixpoint(unit->program, unit->database, without_index);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(*indexed == *scanned);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexAblation, ::testing::Range(0u, 20u));

}  // namespace
}  // namespace chronolog
