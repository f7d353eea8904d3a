// Cost of a served query against the size of `B` (Prop. 3.1): a ground atom
// is one canonicalisation plus one lookup, so neither its oracle lookups
// nor its heap allocations may grow with the specification. Allocations
// are counted by replacing the global operator new in this executable
// only.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "query/query_eval.h"
#include "query/query_parser.h"
#include "spec/specification.h"
#include "workload/generators.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace chronolog {
namespace {

struct Cost {
  QueryAnswer answer;
  uint64_t allocations = 0;
};

/// Evaluates `text` over `spec` and counts the evaluation's allocations
/// (parsing excluded).
Cost Evaluate(const RelationalSpecification& spec, const std::string& text) {
  auto query = ParseQuery(text, spec.primary().vocab());
  EXPECT_TRUE(query.ok()) << query.status();
  const uint64_t before = g_allocations.load();
  Result<QueryAnswer> answer = EvaluateQueryOverSpec(*query, spec);
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(answer.ok()) << answer.status();
  return {std::move(answer).value(), allocations};
}

// One ring of n nodes has period n and |B| = 2n (n ring edges, one token
// per representative time): n = 64, 128, 256 doubles |B| twice. 10^12 is a
// multiple of 256, so the token sits on r0_0 at that depth for every n.
TEST(QueryCostTest, GroundQueryCostIsIndependentOfB) {
  std::vector<uint64_t> allocations;
  for (int n : {64, 128, 256}) {
    auto unit = Parser::Parse(workload::TokenRingSource({n}));
    ASSERT_TRUE(unit.ok()) << unit.status();
    auto spec = BuildSpecification(unit->program, unit->database);
    ASSERT_TRUE(spec.ok()) << spec.status();
    ASSERT_EQ(spec->SizeInFacts(), 2u * static_cast<std::size_t>(n));

    Evaluate(*spec, "tok(1000000000000, r0_0)");  // warm-up
    const Cost yes = Evaluate(*spec, "tok(1000000000000, r0_0)");
    const Cost no = Evaluate(*spec, "tok(1000000000000, r0_1)");
    EXPECT_TRUE(yes.answer.boolean) << n;
    EXPECT_FALSE(no.answer.boolean) << n;
    EXPECT_EQ(yes.answer.oracle_lookups, 1u) << n;
    EXPECT_EQ(no.answer.oracle_lookups, 1u) << n;
    EXPECT_EQ(yes.allocations, no.allocations) << n;
    allocations.push_back(yes.allocations);
  }
  EXPECT_EQ(allocations[1], allocations[0]);
  EXPECT_EQ(allocations[2], allocations[0]);
}

// An open query that mentions a constant absent from `B` ranges over the
// spec's cached domain plus that query-local constant, and names it when
// rendering (rows as the uncached evaluator gave them).
TEST(QueryCostTest, OpenQueryWithConstantOutsideB) {
  auto unit = Parser::Parse(workload::SkiScheduleSource(2, 12, 4, 1));
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto spec = BuildSpecification(unit->program, unit->database);
  ASSERT_TRUE(spec.ok()) << spec.status();
  const Vocabulary& vocab = spec->primary().vocab();
  const SymbolId r0 = vocab.FindConstant("resort0");
  const SymbolId r1 = vocab.FindConstant("resort1");
  EXPECT_EQ(spec->primary().constants(), (std::vector<SymbolId>{r0, r1}));

  const Cost both = Evaluate(*spec, "~plane(T, zz) & plane(T, X)");
  EXPECT_EQ(both.answer.local_constants, std::vector<std::string>{"zz"});
  std::vector<std::vector<QueryValue>> rows;
  for (int64_t t : {0, 1, 2, 3, 4, 5, 11, 12, 13, 14, 15, 16, 17, 18}) {
    for (SymbolId c : {r0, r1}) {
      rows.push_back({QueryValue{true, t, 0}, QueryValue{false, 0, c}});
    }
  }
  EXPECT_EQ(both.answer.rows, rows);
  EXPECT_EQ(both.answer.oracle_lookups, 138u);

  // The local constant is itself an answer, rendered by name.
  const Cost local = Evaluate(*spec, "~plane(3, X) & ~plane(4, zz)");
  EXPECT_EQ(local.answer.ToString(vocab),
            "X = zz\n(with rewrite rule 23 -> 11: temporal answer t >= 11 "
            "also stands for t + 12k)\n");
  EXPECT_EQ(local.answer.oracle_lookups, 4u);
}

}  // namespace
}  // namespace chronolog
