#include <gtest/gtest.h>

#include <memory>

#include "ast/parser.h"
#include "storage/interpretation.h"
#include "storage/state.h"

namespace chronolog {
namespace {

/// Small fixture: vocabulary with one temporal predicate p/2 (arity 1) and
/// one non-temporal predicate e/2.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = std::make_shared<Vocabulary>();
    auto p = vocab_->DeclarePredicate("p", 2);
    ASSERT_TRUE(p.ok());
    p_ = *p;
    vocab_->SetTemporal(p_);
    auto e = vocab_->DeclarePredicate("e", 2);
    ASSERT_TRUE(e.ok());
    e_ = *e;
    a_ = vocab_->InternConstant("a");
    b_ = vocab_->InternConstant("b");
  }

  GroundAtom P(int64_t t, SymbolId x) { return GroundAtom(p_, t, {x}); }
  GroundAtom E(SymbolId x, SymbolId y) { return GroundAtom(e_, 0, {x, y}); }

  std::shared_ptr<Vocabulary> vocab_;
  PredicateId p_ = 0;
  PredicateId e_ = 0;
  SymbolId a_ = 0;
  SymbolId b_ = 0;
};

TEST_F(StorageTest, InsertAndContains) {
  Interpretation interp(vocab_);
  EXPECT_TRUE(interp.Insert(P(3, a_)));
  EXPECT_FALSE(interp.Insert(P(3, a_)));  // duplicate
  EXPECT_TRUE(interp.Insert(E(a_, b_)));
  EXPECT_EQ(interp.size(), 2u);
  EXPECT_TRUE(interp.Contains(P(3, a_)));
  EXPECT_FALSE(interp.Contains(P(2, a_)));
  EXPECT_FALSE(interp.Contains(P(3, b_)));
  EXPECT_TRUE(interp.Contains(E(a_, b_)));
  EXPECT_FALSE(interp.Contains(E(b_, a_)));
}

TEST_F(StorageTest, SnapshotAndTimeline) {
  Interpretation interp(vocab_);
  interp.Insert(P(0, a_));
  interp.Insert(P(0, b_));
  interp.Insert(P(5, a_));
  EXPECT_EQ(interp.Snapshot(p_, 0).size(), 2u);
  EXPECT_EQ(interp.Snapshot(p_, 5).size(), 1u);
  EXPECT_EQ(interp.Snapshot(p_, 1).size(), 0u);
  EXPECT_EQ(interp.Timeline(p_).size(), 2u);
  EXPECT_EQ(interp.MaxTime(), 5);
}

TEST_F(StorageTest, MaxTimeEmptyIsMinusOne) {
  Interpretation interp(vocab_);
  EXPECT_EQ(interp.MaxTime(), -1);
  interp.Insert(E(a_, b_));
  EXPECT_EQ(interp.MaxTime(), -1);  // non-temporal facts carry no time
}

TEST_F(StorageTest, TruncateDropsBeyondBound) {
  Interpretation interp(vocab_);
  interp.Insert(P(0, a_));
  interp.Insert(P(7, a_));
  interp.Insert(E(a_, b_));
  Interpretation cut = interp;
  cut.TruncateInPlace(3);
  EXPECT_TRUE(cut.Contains(P(0, a_)));
  EXPECT_FALSE(cut.Contains(P(7, a_)));
  EXPECT_TRUE(cut.Contains(E(a_, b_)));  // non-temporal part survives
  EXPECT_EQ(cut.size(), 2u);
  // Original untouched.
  EXPECT_TRUE(interp.Contains(P(7, a_)));
}

TEST_F(StorageTest, SegmentEquals) {
  Interpretation x(vocab_);
  Interpretation y(vocab_);
  x.Insert(P(1, a_));
  y.Insert(P(1, a_));
  x.Insert(P(9, b_));  // beyond the compared segment
  EXPECT_TRUE(x.SegmentEquals(y, 5));
  EXPECT_FALSE(x.SegmentEquals(y, 9));
  y.Insert(P(2, b_));
  EXPECT_FALSE(x.SegmentEquals(y, 5));
}

TEST_F(StorageTest, SegmentEqualsChecksNonTemporalPart) {
  Interpretation x(vocab_);
  Interpretation y(vocab_);
  x.Insert(E(a_, b_));
  EXPECT_FALSE(x.SegmentEquals(y, 10, /*and_non_temporal=*/true));
  EXPECT_TRUE(x.SegmentEquals(y, 10, /*and_non_temporal=*/false));
  y.Insert(E(a_, b_));
  EXPECT_TRUE(x.SegmentEquals(y, 10));
}

TEST_F(StorageTest, EqualityOperator) {
  Interpretation x(vocab_);
  Interpretation y(vocab_);
  EXPECT_TRUE(x == y);
  x.Insert(P(4, a_));
  EXPECT_FALSE(x == y);
  y.Insert(P(4, a_));
  EXPECT_TRUE(x == y);
}

TEST_F(StorageTest, ForEachVisitsEverything) {
  Interpretation interp(vocab_);
  interp.Insert(P(1, a_));
  interp.Insert(P(2, b_));
  interp.Insert(E(a_, a_));
  int count = 0;
  interp.ForEach([&](PredicateId, int64_t, const Tuple&) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST_F(StorageTest, InsertDatabase) {
  auto unit = Parser::Parse("p(2, x). q(y).");
  ASSERT_TRUE(unit.ok());
  Interpretation interp(unit->database.vocab_ptr());
  interp.InsertDatabase(unit->database);
  EXPECT_EQ(interp.size(), 2u);
}

TEST_F(StorageTest, VocabularyGrowthIsTolerated) {
  Interpretation interp(vocab_);
  // Declare a new predicate after the interpretation exists.
  auto q = vocab_->DeclarePredicate("q", 1);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(interp.Contains(GroundAtom(*q, 0, {a_})));
  EXPECT_TRUE(interp.Insert(GroundAtom(*q, 0, {a_})));
  EXPECT_TRUE(interp.Contains(GroundAtom(*q, 0, {a_})));
}

// --------------------------------------------------------------------------
// States and windows
// --------------------------------------------------------------------------

TEST_F(StorageTest, StateProjectsOutTime) {
  Interpretation interp(vocab_);
  interp.Insert(P(3, a_));
  interp.Insert(P(3, b_));
  interp.Insert(P(8, a_));
  State s3 = State::FromInterpretation(interp, 3);
  State s8 = State::FromInterpretation(interp, 8);
  State s9 = State::FromInterpretation(interp, 9);
  EXPECT_EQ(s3.size(), 2u);
  EXPECT_EQ(s8.size(), 1u);
  EXPECT_TRUE(s9.empty());
  EXPECT_NE(s3, s8);
  // The paper's periodicity comparisons: M[3] vs a time with the same
  // projected tuples.
  interp.Insert(P(11, a_));
  interp.Insert(P(11, b_));
  EXPECT_EQ(s3, State::FromInterpretation(interp, 11));
}

TEST_F(StorageTest, StateHashIsOrderIndependent) {
  Interpretation x(vocab_);
  Interpretation y(vocab_);
  x.Insert(P(0, a_));
  x.Insert(P(0, b_));
  y.Insert(P(0, b_));
  y.Insert(P(0, a_));
  State sx = State::FromInterpretation(x, 0);
  State sy = State::FromInterpretation(y, 0);
  EXPECT_EQ(sx, sy);
  EXPECT_EQ(sx.Hash(), sy.Hash());
}

TEST_F(StorageTest, StateIgnoresNonTemporalFacts) {
  Interpretation interp(vocab_);
  interp.Insert(E(a_, b_));
  EXPECT_TRUE(State::FromInterpretation(interp, 0).empty());
}

}  // namespace
}  // namespace chronolog
