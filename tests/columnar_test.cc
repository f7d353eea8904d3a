// Unit tests of the columnar Relation (storage/relation.h): dedup table
// behaviour against a reference std::set, row-id stability, arity handling
// (including nullary tuples), set equality, and the sampled distinct-count
// estimator feeding the join planner.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "storage/interpretation.h"
#include "storage/relation.h"

namespace chronolog {
namespace {

TEST(ColumnarRelationTest, InsertDedupAndContains) {
  Relation rel;
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.Insert({1, 2}));
  EXPECT_TRUE(rel.Insert({1, 3}));
  EXPECT_FALSE(rel.Insert({1, 2}));  // duplicate
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.arity(), 2u);
  EXPECT_TRUE(rel.Contains({1, 2}));
  EXPECT_TRUE(rel.Contains({1, 3}));
  EXPECT_FALSE(rel.Contains({2, 1}));
}

TEST(ColumnarRelationTest, RowIdsAreAppendOrder) {
  Relation rel;
  rel.Insert({7, 8});
  rel.Insert({9, 10});
  EXPECT_EQ(rel.at(0, 0), 7u);
  EXPECT_EQ(rel.at(0, 1), 8u);
  EXPECT_EQ(rel.at(1, 0), 9u);
  EXPECT_EQ(rel.Row(1), (Tuple{9, 10}));
  Tuple scratch{99};
  rel.CopyRow(0, &scratch);
  EXPECT_EQ(scratch, (Tuple{7, 8}));
}

TEST(ColumnarRelationTest, NullaryTuples) {
  // Arity-0 relations back nullary predicates like `even(T)`, whose
  // non-temporal argument tuple is empty: one row at most.
  Relation rel;
  EXPECT_FALSE(rel.Contains(Tuple{}));
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.arity(), 0u);
  EXPECT_TRUE(rel.Contains(Tuple{}));
  EXPECT_EQ(rel.Row(0), Tuple{});
}

TEST(ColumnarRelationTest, MatchesReferenceSetAcrossGrowth) {
  // Drive the swiss table through many grows and verify every Insert
  // return value and final membership against std::set.
  std::mt19937 rng(7);
  std::uniform_int_distribution<SymbolId> value(0, 99);
  Relation rel;
  std::set<Tuple> reference;
  for (int i = 0; i < 20000; ++i) {
    Tuple t{value(rng), value(rng), value(rng)};
    const bool fresh = reference.insert(t).second;
    EXPECT_EQ(rel.Insert(t), fresh);
  }
  EXPECT_EQ(rel.size(), reference.size());
  for (const Tuple& t : reference) EXPECT_TRUE(rel.Contains(t));
  for (uint32_t row = 0; row < rel.size(); ++row) {
    EXPECT_EQ(reference.count(rel.Row(row)), 1u);
  }
}

TEST(ColumnarRelationTest, SetEqualityIgnoresInsertionOrder) {
  Relation a;
  Relation b;
  a.Insert({1, 2});
  a.Insert({3, 4});
  a.Insert({5, 6});
  b.Insert({5, 6});
  b.Insert({1, 2});
  b.Insert({3, 4});
  EXPECT_TRUE(a == b);
  b.Insert({7, 8});
  EXPECT_TRUE(a != b);
  Relation empty1;
  Relation empty2;
  EXPECT_TRUE(empty1 == empty2);
  EXPECT_TRUE(empty1 != a);
}

TEST(ColumnarRelationTest, DistinctInColumnExactWhenSmall) {
  Relation rel;
  for (SymbolId x = 0; x < 10; ++x) {
    rel.Insert({x, x % 3});
  }
  // Fewer rows than the sample budget: the estimate is exact.
  EXPECT_EQ(rel.DistinctInColumn(0), 10u);
  EXPECT_EQ(rel.DistinctInColumn(1), 3u);
  EXPECT_EQ(rel.DistinctInColumn(7), 1u);  // out of range => neutral
}

TEST(ColumnarRelationTest, DistinctInColumnRefreshesAfterDoubling) {
  Relation rel;
  for (SymbolId x = 0; x < 100; ++x) rel.Insert({x % 2, x});
  EXPECT_EQ(rel.DistinctInColumn(0), 2u);
  // Grow the relation well past 2x; the cached estimate must refresh and
  // see the now-unique column.
  for (SymbolId x = 100; x < 400; ++x) rel.Insert({x, x});
  const std::size_t estimate = rel.DistinctInColumn(0);
  EXPECT_GT(estimate, 100u);
  EXPECT_LE(estimate, rel.size());
}

// Copies and moves are member-wise: the sampled statistics cache travels
// with the rows, and a copy taken between samples answers like its source.
TEST(ColumnarRelationTest, CopyCarriesSampledStatistics) {
  Relation rel;
  for (SymbolId x = 0; x < 2000; ++x) rel.Insert({x, x % 3});
  const std::size_t d0 = rel.DistinctInColumn(0);
  const std::size_t d1 = rel.DistinctInColumn(1);

  Relation copy = rel;
  EXPECT_EQ(copy.size(), rel.size());
  EXPECT_TRUE(copy.Contains({5, 5 % 3}));
  EXPECT_EQ(copy.DistinctInColumn(0), d0);
  EXPECT_EQ(copy.DistinctInColumn(1), d1);

  Relation moved = std::move(copy);
  EXPECT_EQ(moved.size(), rel.size());
  EXPECT_EQ(moved.DistinctInColumn(0), d0);
  EXPECT_EQ(moved.DistinctInColumn(1), d1);
}

TEST(ColumnarInterpretationTest, ProbeBucketsHoldRowIds) {
  auto vocab = std::make_shared<Vocabulary>();
  auto e = vocab->DeclarePredicate("e", 2);
  ASSERT_TRUE(e.ok());
  const SymbolId a = vocab->InternConstant("a");
  const SymbolId b = vocab->InternConstant("b");
  const SymbolId c = vocab->InternConstant("c");
  Interpretation interp(vocab);
  interp.Insert(*e, 0, {a, b});
  interp.Insert(*e, 0, {a, c});
  interp.Insert(*e, 0, {b, c});
  const std::vector<uint32_t>* bucket = interp.NonTemporal(*e).Probe(0, a);
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->size(), 2u);
  const Relation& rel = interp.NonTemporal(*e);
  for (uint32_t row : *bucket) {
    ASSERT_LT(row, rel.size());
    EXPECT_EQ(rel.at(row, 0), a);
  }
  // Row ids survive further inserts (positional, append-only).
  interp.Insert(*e, 0, {a, a});
  EXPECT_EQ(interp.NonTemporal(*e).Probe(0, a)->size(), 3u);
  EXPECT_EQ(rel.at((*bucket)[0], 0), a);
}

// Inserts at the newest time, at a later one and at earlier ones (between
// cells and before the first) each land in their own cell.
TEST(ColumnarInterpretationTest, InsertsInAnyTimeOrderLandInTheirCells) {
  auto vocab = std::make_shared<Vocabulary>();
  auto p = vocab->DeclarePredicate("p", 1);
  ASSERT_TRUE(p.ok());
  vocab->SetTemporal(*p);
  const SymbolId a = vocab->InternConstant("a");
  const SymbolId b = vocab->InternConstant("b");
  Interpretation interp(vocab);
  EXPECT_TRUE(interp.Insert(*p, 4, {a}));
  EXPECT_TRUE(interp.Insert(*p, 4, {b}));
  EXPECT_FALSE(interp.Insert(*p, 4, {a}));
  EXPECT_TRUE(interp.Insert(*p, 9, {a}));
  EXPECT_TRUE(interp.Insert(*p, 6, {b}));
  EXPECT_TRUE(interp.Insert(*p, 1, {a}));
  EXPECT_FALSE(interp.Insert(*p, 6, {b}));
  EXPECT_EQ(interp.size(), 5u);
  std::vector<std::pair<int64_t, std::size_t>> cells;
  for (const auto& [time, rel] : interp.Timeline(*p)) {
    cells.emplace_back(time, rel.size());
  }
  EXPECT_EQ(cells, (std::vector<std::pair<int64_t, std::size_t>>{
                       {1, 1}, {4, 2}, {6, 1}, {9, 1}}));
  EXPECT_TRUE(interp.Contains(*p, 6, {b}));
  EXPECT_FALSE(interp.Contains(*p, 6, {a}));
}

TEST(ColumnarInterpretationTest, ForEachEnumeratesEveryFact) {
  auto vocab = std::make_shared<Vocabulary>();
  auto e = vocab->DeclarePredicate("e", 1);
  auto p = vocab->DeclarePredicate("p", 1);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(p.ok());
  vocab->SetTemporal(*p);
  const SymbolId a = vocab->InternConstant("a");
  const SymbolId b = vocab->InternConstant("b");
  Interpretation interp(vocab);
  interp.Insert(*e, 0, {a});
  interp.Insert(*p, 3, {a});
  interp.Insert(*p, 3, {b});
  interp.Insert(*p, 5, {a});
  std::set<std::tuple<PredicateId, int64_t, Tuple>> seen;
  interp.ForEach([&](PredicateId pred, int64_t time, const Tuple& args) {
    // The tuple reference is scratch storage: copy, as the contract says.
    seen.insert({pred, time, args});
  });
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.count({*p, 3, Tuple{b}}), 1u);
  EXPECT_EQ(seen.count({*e, 0, Tuple{a}}), 1u);
}

}  // namespace
}  // namespace chronolog
