// Robustness sweeps: malformed and adversarial input must produce Status
// errors, never crashes — the engine is a library, not a REPL toy.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <random>
#include <string>

#include "ast/parser.h"
#include "core/engine.h"
#include "query/query_parser.h"
#include "spec/serialize.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

// --------------------------------------------------------------------------
// Random token soup: the parser must always return (not crash, not hang).
// --------------------------------------------------------------------------

class TokenSoup : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TokenSoup, ParserNeverCrashes) {
  std::mt19937 rng(GetParam());
  static const char* kPieces[] = {
      "p",  "q",  "foo", "X",  "T",  "0",   "7",  "(",  ")",   ",",
      ".",  ":-", "+",   "@",  "/",  "&",   "|",  "~",  "=",   "'a b'",
      "%c", "\n", " ",   "p(", ")(", "T+2", "@t", "exists", "forall"};
  std::uniform_int_distribution<std::size_t> pick(
      0, sizeof(kPieces) / sizeof(kPieces[0]) - 1);
  std::uniform_int_distribution<int> len(1, 60);
  std::string soup;
  int n = len(rng);
  for (int i = 0; i < n; ++i) {
    soup += kPieces[pick(rng)];
    soup += " ";
  }
  // Must return a Status (either way), never crash.
  auto unit = Parser::Parse(soup);
  (void)unit.ok();
}

TEST_P(TokenSoup, QueryParserNeverCrashes) {
  auto base = Parser::Parse(workload::EvenSource());
  ASSERT_TRUE(base.ok());
  std::mt19937 rng(GetParam() + 500);
  static const char* kPieces[] = {"even", "(",  ")",      "0",  "T",  "+",
                                  "1",    "&",  "|",      "~",  "=",  ",",
                                  "exists", "forall", "X", "and", "or"};
  std::uniform_int_distribution<std::size_t> pick(
      0, sizeof(kPieces) / sizeof(kPieces[0]) - 1);
  std::uniform_int_distribution<int> len(1, 30);
  std::string soup;
  int n = len(rng);
  for (int i = 0; i < n; ++i) {
    soup += kPieces[pick(rng)];
    soup += " ";
  }
  auto query = ParseQuery(soup, base->program.vocab());
  (void)query.ok();
}

TEST_P(TokenSoup, DeserializeNeverCrashes) {
  std::mt19937 rng(GetParam() + 900);
  static const char* kPieces[] = {
      "%!chronolog-spec 1\n", "%!period b=0 p=2 c=0\n", "%!period b=x\n",
      "@temporal p/2.\n",     "@predicate q/1.\n",      "p(0, a).\n",
      "garbage",              "%!chronolog-spec 9\n",   "p(T) :- p(T).\n"};
  std::uniform_int_distribution<std::size_t> pick(
      0, sizeof(kPieces) / sizeof(kPieces[0]) - 1);
  std::uniform_int_distribution<int> len(0, 8);
  std::string soup;
  int n = len(rng);
  for (int i = 0; i < n; ++i) soup += kPieces[pick(rng)];
  auto spec = DeserializeSpecification(soup);
  (void)spec.ok();
}

INSTANTIATE_TEST_SUITE_P(Sweep, TokenSoup, ::testing::Range(0u, 50u));

// --------------------------------------------------------------------------
// Deep and degenerate but well-formed inputs.
// --------------------------------------------------------------------------

TEST(RobustnessTest, VeryDeepFactTime) {
  auto tdd = TemporalDatabase::FromSource(
      "even(0). even(T+2) :- even(T).");
  ASSERT_TRUE(tdd.ok());
  // Depth near int64 range: canonicalisation must not overflow en route.
  auto answer = tdd->Ask("even(4611686018427387904)");  // 2^62
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(*answer);
}

TEST(RobustnessTest, EmptySource) {
  auto unit = Parser::Parse("");
  ASSERT_TRUE(unit.ok());
  EXPECT_TRUE(unit->program.rules().empty());
  EXPECT_EQ(unit->database.size(), 0u);
}

TEST(RobustnessTest, CommentsOnly) {
  auto unit = Parser::Parse("% nothing\n// here\n");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit->database.size(), 0u);
}

TEST(RobustnessTest, EmptyProgramSpecification) {
  // No rules at all: the least model is the database; period (0, 1).
  auto tdd = TemporalDatabase::FromSource("p(3, a). q(b).");
  ASSERT_TRUE(tdd.ok());
  auto spec = tdd->specification();
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ((*spec)->period().p, 1);
  EXPECT_TRUE(*tdd->Ask("p(3, a)"));
  EXPECT_FALSE(*tdd->Ask("p(4, a)"));
  EXPECT_TRUE(*tdd->Ask("q(b)"));
}

TEST(RobustnessTest, EmptyDatabaseSpecification) {
  auto tdd = TemporalDatabase::FromSource("p(T+1, X) :- p(T, X), e(X, X).");
  ASSERT_TRUE(tdd.ok());
  auto spec = tdd->specification();
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_FALSE(*tdd->Ask("p(0, z)"));
}

TEST(RobustnessTest, DuplicateFactsAreDeduplicated) {
  auto tdd = TemporalDatabase::FromSource(
      "p(0, a). p(0, a). p(0, a). p(T+1, X) :- p(T, X).");
  ASSERT_TRUE(tdd.ok());
  auto spec = tdd->specification();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ((*spec)->primary().CellSize(tdd->vocab().FindPredicate("p"), 0),
            1u);
}

// A serialised specification is untrusted input: its header may declare a
// period of 10^12 representative terms with only two facts. `B` must cost
// memory for the facts, not for |T|, and deep lookups must still fold to
// the right representative.
TEST(RobustnessTest, HugePeriodHeaderLoadsInBoundedMemory) {
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  auto spec = DeserializeSpecification(
      "%!chronolog-spec 1\n%!period b=0 p=1000000000000 c=0\n"
      "p(0, a).\np(999999999999, b).\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  // ru_maxrss is in kilobytes; anything sized by |T| would need terabytes.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);
  EXPECT_EQ(spec->num_representatives(), 1000000000000);
  EXPECT_EQ(spec->SizeInFacts(), 2u);
  const Vocabulary& vocab = spec->primary().vocab();
  std::size_t cells = 0;
  spec->primary().ForEachCell(vocab.FindPredicate("p"),
                              [&](int64_t, std::size_t) { ++cells; });
  EXPECT_EQ(cells, 2u);
  auto ask = [&](const std::string& text) {
    auto atom = ParseGroundAtom(text, vocab);
    EXPECT_TRUE(atom.ok()) << atom.status();
    return atom.ok() && spec->Ask(*atom);
  };
  // 10^15 = 1000 * 10^12 folds to 0; 10^15 - 1 folds to 10^12 - 1.
  EXPECT_TRUE(ask("p(1000000000000000, a)"));
  EXPECT_FALSE(ask("p(1000000000000000, b)"));
  EXPECT_TRUE(ask("p(999999999999999, b)"));
  EXPECT_FALSE(ask("p(999999999999999, a)"));
  EXPECT_FALSE(ask("p(500000000000001, a)"));
  // A fact at a time >= |T| is still rejected.
  auto beyond = DeserializeSpecification(
      "%!chronolog-spec 1\n%!period b=0 p=1000000000000 c=0\n"
      "p(0, a).\np(1000000000000, b).\n");
  EXPECT_EQ(beyond.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, SelfSatisfyingRule) {
  // p(T) :- p(T). derives nothing new and must terminate.
  auto tdd = TemporalDatabase::FromSource("p(T) :- p(T).\np(0).");
  ASSERT_TRUE(tdd.ok());
  EXPECT_TRUE(*tdd->Ask("p(0)"));
  EXPECT_FALSE(*tdd->Ask("p(1)"));
}

TEST(RobustnessTest, LongChainOfRules) {
  // 200 stacked predicates: stresses SCC, classification and evaluation.
  std::string src = "p0(0).\np0(T+1) :- p0(T).\n";
  for (int i = 1; i < 200; ++i) {
    src += "p" + std::to_string(i) + "(T) :- p" + std::to_string(i - 1) +
           "(T).\n";
  }
  auto tdd = TemporalDatabase::FromSource(src);
  ASSERT_TRUE(tdd.ok()) << tdd.status();
  EXPECT_TRUE(*tdd->Ask("p199(5)"));
  EXPECT_TRUE(tdd->classification().multi_separable);
}

TEST(RobustnessTest, WideFacts) {
  // 2000 facts across 40 time points parse and compile fine.
  std::string src = "p(T+40, X) :- p(T, X).\n";
  for (int i = 0; i < 2000; ++i) {
    src += "p(" + std::to_string(i % 40) + ", c" + std::to_string(i % 50) +
           ").\n";
  }
  auto tdd = TemporalDatabase::FromSource(src);
  ASSERT_TRUE(tdd.ok());
  auto spec = tdd->specification();
  ASSERT_TRUE(spec.ok()) << spec.status();
  // The copy rule's period is 40; the minimal period divides it (the fact
  // pattern is 10-periodic in time).
  EXPECT_EQ(40 % (*spec)->period().p, 0);
}

}  // namespace
}  // namespace chronolog
