#include <gtest/gtest.h>

#include <chrono>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "query/query_eval.h"
#include "util/metrics.h"
#include "query/query_parser.h"
#include "spec/specification.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

// --------------------------------------------------------------------------
// Query parser
// --------------------------------------------------------------------------

class QueryParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unit_ = MustParse(workload::SkiScheduleSource(2, 12, 4, 1));
  }
  Query MustQuery(std::string_view text) {
    auto q = ParseQuery(text, unit_.program.vocab());
    EXPECT_TRUE(q.ok()) << q.status();
    return std::move(q).value();
  }
  ParsedUnit unit_{Program(nullptr), Database(nullptr)};
};

TEST_F(QueryParserTest, GroundAtomQuery) {
  Query q = MustQuery("plane(5, resort0)");
  EXPECT_EQ(q.root->kind, QueryKind::kAtom);
  EXPECT_TRUE(q.closed());
  EXPECT_TRUE(q.root->atom.time->ground());
  EXPECT_EQ(q.root->atom.time->offset, 5);
}

TEST_F(QueryParserTest, FreeVariablesAreCollected) {
  Query q = MustQuery("plane(T, X)");
  ASSERT_EQ(q.free_vars.size(), 2u);
  EXPECT_EQ(q.var_names[q.free_vars[0]], "T");
  EXPECT_EQ(q.var_names[q.free_vars[1]], "X");
  EXPECT_TRUE(q.temporal_vars[q.free_vars[0]]);
  EXPECT_FALSE(q.temporal_vars[q.free_vars[1]]);
}

TEST_F(QueryParserTest, QuantifiersBindInnermost) {
  Query q = MustQuery("exists T (plane(T, resort0) & winter(T))");
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.root->kind, QueryKind::kExists);
  EXPECT_EQ(q.root->left->kind, QueryKind::kAnd);
}

TEST_F(QueryParserTest, MultiVariableQuantifier) {
  Query q = MustQuery("exists T, X (plane(T, X))");
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.root->kind, QueryKind::kExists);
  EXPECT_EQ(q.root->left->kind, QueryKind::kExists);
  EXPECT_EQ(q.root->left->left->kind, QueryKind::kAtom);
}

TEST_F(QueryParserTest, ShadowingCreatesDistinctVariables) {
  Query q = MustQuery("exists T (plane(T, resort0) & exists T (winter(T)))");
  EXPECT_TRUE(q.closed());
  // Three variables: outer T, inner T.
  EXPECT_EQ(q.var_names.size(), 2u);
  EXPECT_NE(q.root->var, q.root->left->right->var);
}

TEST_F(QueryParserTest, KeywordAndSymbolConnectives) {
  Query a = MustQuery("winter(0) and not holiday(3) or offseason(5)");
  Query b = MustQuery("winter(0) & ~holiday(3) | offseason(5)");
  EXPECT_EQ(a.root->kind, QueryKind::kOr);
  EXPECT_EQ(b.root->kind, QueryKind::kOr);
  EXPECT_EQ(a.root->left->kind, QueryKind::kAnd);
  EXPECT_EQ(a.root->left->right->kind, QueryKind::kNot);
}

TEST_F(QueryParserTest, OffsetInQueryAtom) {
  Query q = MustQuery("forall T (winter(T) | ~winter(T+12))");
  EXPECT_EQ(q.root->kind, QueryKind::kForall);
}

TEST_F(QueryParserTest, UnknownPredicateFails) {
  auto q = ParseQuery("ghost(0)", unit_.program.vocab());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST_F(QueryParserTest, ArityMismatchFails) {
  auto q = ParseQuery("plane(0)", unit_.program.vocab());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryParserTest, MixedSortVariableFails) {
  auto q = ParseQuery("exists T (plane(T, T))", unit_.program.vocab());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryParserTest, ConstantInTemporalPositionFails) {
  auto q = ParseQuery("plane(resort0, resort0)", unit_.program.vocab());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryParserTest, TrailingGarbageFails) {
  auto q = ParseQuery("winter(0) winter(1)", unit_.program.vocab());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryParserTest, ParseGroundAtomAcceptsOnlyGroundAtoms) {
  EXPECT_TRUE(ParseGroundAtom("plane(3, resort1)", unit_.program.vocab()).ok());
  EXPECT_FALSE(ParseGroundAtom("plane(T, resort1)", unit_.program.vocab()).ok());
  EXPECT_FALSE(
      ParseGroundAtom("plane(3, resort1) & winter(3)", unit_.program.vocab())
          .ok());
}

TEST_F(QueryParserTest, UnknownConstantsLeaveTheVocabularyAlone) {
  // Served databases parse every request against one shared vocabulary, so
  // parsing must only read it.
  const Vocabulary& vocab = unit_.program.vocab();
  const std::size_t before = vocab.num_constants();
  MustQuery("plane(3, zz) & ~plane(4, yy) & exists X (plane(5, zz))");
  ASSERT_TRUE(ParseGroundAtom("plane(3, atlantis)", vocab).ok());
  EXPECT_EQ(vocab.num_constants(), before);
  EXPECT_EQ(vocab.FindConstant("zz"), kInvalidSymbol);
  EXPECT_EQ(vocab.FindConstant("atlantis"), kInvalidSymbol);
}

TEST_F(QueryParserTest, UnknownConstantsAreQueryLocal) {
  const Vocabulary& vocab = unit_.program.vocab();
  Query q = MustQuery("plane(3, zz) & ~plane(4, yy) & plane(5, zz)");
  EXPECT_EQ(q.local_constants, (std::vector<std::string>{"zz", "yy"}));
  const Atom& first = q.root->left->left->atom;
  EXPECT_EQ(first.args[0].id, kFirstLocalConstant);
  EXPECT_EQ(vocab.ConstantName(first.args[0].id, q.local_constants), "zz");
  std::vector<std::string> local;
  auto known = ParseGroundAtom("plane(3, resort0)", vocab, &local);
  ASSERT_TRUE(known.ok());
  EXPECT_TRUE(local.empty());
  EXPECT_EQ(known->args[0], vocab.FindConstant("resort0"));
  auto unknown = ParseGroundAtom("plane(3, atlantis)", vocab, &local);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(local, std::vector<std::string>{"atlantis"});
  EXPECT_EQ(unknown->args[0], kFirstLocalConstant);
}

// --------------------------------------------------------------------------
// Evaluation over specifications (Proposition 3.1 semantics)
// --------------------------------------------------------------------------

class QueryEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unit_ = MustParse(workload::EvenSource());
    auto spec = BuildSpecification(unit_.program, unit_.database);
    ASSERT_TRUE(spec.ok()) << spec.status();
    spec_.emplace(std::move(spec).value());
  }
  QueryAnswer MustEval(std::string_view text) {
    auto q = ParseQuery(text, unit_.program.vocab());
    EXPECT_TRUE(q.ok()) << q.status();
    auto a = EvaluateQueryOverSpec(*q, *spec_);
    EXPECT_TRUE(a.ok()) << a.status();
    return std::move(a).value();
  }
  ParsedUnit unit_{Program(nullptr), Database(nullptr)};
  std::optional<RelationalSpecification> spec_;
};

TEST_F(QueryEvalTest, GroundAtoms) {
  EXPECT_TRUE(MustEval("even(0)").boolean);
  EXPECT_FALSE(MustEval("even(1)").boolean);
  EXPECT_TRUE(MustEval("even(123456)").boolean);
  EXPECT_FALSE(MustEval("even(123457)").boolean);
}

TEST_F(QueryEvalTest, CwaNegation) {
  EXPECT_TRUE(MustEval("~even(3)").boolean);
  EXPECT_FALSE(MustEval("~even(4)").boolean);
}

TEST_F(QueryEvalTest, ExistsOverRepresentatives) {
  EXPECT_TRUE(MustEval("exists T (even(T))").boolean);
  EXPECT_FALSE(MustEval("exists T (even(T) & even(T+1))").boolean);
  EXPECT_TRUE(MustEval("exists T (even(T) & even(T+2))").boolean);
}

TEST_F(QueryEvalTest, ForallOverRepresentatives) {
  EXPECT_TRUE(MustEval("forall T (even(T) | even(T+1))").boolean);
  EXPECT_FALSE(MustEval("forall T (even(T))").boolean);
}

TEST_F(QueryEvalTest, OpenQueryReturnsRepresentativesAndRewriteRule) {
  QueryAnswer answer = MustEval("even(X)");
  // The paper's Section 3.3 example: answer X=0 with rewrite rule 2 -> 0.
  ASSERT_EQ(answer.rows.size(), 1u);
  EXPECT_TRUE(answer.rows[0][0].temporal);
  EXPECT_EQ(answer.rows[0][0].time, 0);
  EXPECT_EQ(answer.rewrite_lhs, 2);
  EXPECT_EQ(answer.rewrite_p, 2);
}

TEST_F(QueryEvalTest, AnswerToStringMentionsRewrite) {
  QueryAnswer answer = MustEval("even(X)");
  std::string text = answer.ToString(unit_.program.vocab());
  EXPECT_NE(text.find("X = 0"), std::string::npos) << text;
  EXPECT_NE(text.find("2 -> 0"), std::string::npos) << text;
}

// --------------------------------------------------------------------------
// Per-query limits: deadlines and row caps (QueryEvalOptions)
// --------------------------------------------------------------------------

// A program whose period is large enough that evaluation performs well over
// 64 oracle lookups (the deadline is checked every 64), so an expired
// deadline reliably aborts mid-query.
constexpr char kWidePeriodSource[] = R"(
  tick(0).
  tick(T+128) :- tick(T).
)";

class QueryLimitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unit_ = MustParse(kWidePeriodSource);
    auto spec = BuildSpecification(unit_.program, unit_.database);
    ASSERT_TRUE(spec.ok()) << spec.status();
    spec_.emplace(std::move(spec).value());
  }
  QueryAnswer EvalWith(std::string_view text, QueryEvalOptions options) {
    auto q = ParseQuery(text, unit_.program.vocab());
    EXPECT_TRUE(q.ok()) << q.status();
    auto a = EvaluateQueryOverSpec(*q, *spec_, options);
    EXPECT_TRUE(a.ok()) << a.status();
    return std::move(a).value();
  }
  ParsedUnit unit_{Program(nullptr), Database(nullptr)};
  std::optional<RelationalSpecification> spec_;
};

TEST_F(QueryLimitsTest, NoLimitsMeansCompleteAnswers) {
  QueryAnswer answer = EvalWith("exists T (tick(T))", {});
  EXPECT_TRUE(answer.boolean);
  EXPECT_FALSE(answer.partial);
  EXPECT_FALSE(answer.truncated);
}

TEST_F(QueryLimitsTest, ExpiredDeadlineMarksClosedAnswerPartial) {
  QueryEvalOptions options;
  options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  // A forall over a tautology must visit every representative (no
  // short-circuit), so the 64-lookup deadline check fires mid-evaluation.
  // Without the deadline this is true; the aborted evaluation must not
  // claim a definite answer — `partial` says the boolean is unreliable.
  QueryAnswer answer = EvalWith("forall T (tick(T) | ~tick(T))", options);
  EXPECT_TRUE(answer.partial);
  EXPECT_FALSE(answer.boolean);
}

TEST_F(QueryLimitsTest, ExpiredDeadlineMarksOpenAnswerPartial) {
  QueryEvalOptions options;
  options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  QueryAnswer answer = EvalWith("tick(T) | ~tick(T)", options);
  EXPECT_TRUE(answer.partial);
  // Whatever rows were collected before the abort are a correct prefix of
  // the unlimited answer (every representative satisfies the tautology).
  QueryAnswer full = EvalWith("tick(T) | ~tick(T)", {});
  EXPECT_FALSE(full.partial);
  EXPECT_LT(answer.rows.size(), full.rows.size());
}

TEST_F(QueryLimitsTest, FutureDeadlineDoesNotFire) {
  QueryEvalOptions options;
  options.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  QueryAnswer answer = EvalWith("forall T (tick(T) | ~tick(T))", options);
  EXPECT_FALSE(answer.partial);
  EXPECT_TRUE(answer.boolean);
}

TEST_F(QueryLimitsTest, MaxRowsTruncatesOpenAnswers) {
  QueryEvalOptions options;
  options.max_rows = 5;
  // The tautology holds at every representative, so the row stream is long
  // enough to hit the cap.
  QueryAnswer answer = EvalWith("tick(T) | ~tick(T)", options);
  EXPECT_TRUE(answer.truncated);
  EXPECT_FALSE(answer.partial);
  EXPECT_EQ(answer.rows.size(), 5u);
  // The truncated rows are a prefix of the full answer.
  QueryAnswer full = EvalWith("tick(T) | ~tick(T)", {});
  ASSERT_GE(full.rows.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(answer.rows[i][0].time, full.rows[i][0].time);
  }
}

TEST_F(QueryLimitsTest, MaxRowsAboveAnswerSizeIsNotTruncation) {
  QueryEvalOptions options;
  options.max_rows = 100000;
  QueryAnswer answer = EvalWith("tick(T)", options);
  EXPECT_FALSE(answer.truncated);
}

TEST_F(QueryLimitsTest, LimitCountersAreRecorded) {
  MetricsRegistry metrics;
  QueryEvalOptions options;
  options.metrics = &metrics;
  options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  (void)EvalWith("forall T (tick(T) | ~tick(T))", options);
  EXPECT_EQ(metrics.counter("query.deadline_exceeded")->value(), 1u);
  options.deadline.reset();
  options.max_rows = 3;
  (void)EvalWith("tick(T) | ~tick(T)", options);
  EXPECT_EQ(metrics.counter("query.rows_truncated")->value(), 1u);
}

// --------------------------------------------------------------------------
// Invariance (Proposition 3.1): spec evaluation vs deep materialisation
// --------------------------------------------------------------------------

TEST(QueryInvarianceTest, SkiScheduleQueriesAgree) {
  ParsedUnit unit = MustParse(workload::SkiScheduleSource(2, 12, 4, 1));
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok()) << spec.status();
  // Materialise a segment covering several cycles beyond the
  // representatives.
  const int64_t horizon =
      spec->num_representatives() + 4 * spec->period().p;
  FixpointOptions options;
  options.max_time = horizon;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());

  const std::vector<std::string> queries = {
      "plane(25, resort0)",
      "plane(26, resort1)",
      "exists X (plane(30, X))",
      "exists T (plane(T, resort0) & winter(T))",
      "exists T (plane(T, resort0) & holiday(T))",
      "forall X (resort(X))",
      "exists T (offseason(T) & ~winter(T))",
      "resort(resort0) & exists T (plane(T, resort0))",
  };
  for (const std::string& text : queries) {
    auto q = ParseQuery(text, unit.program.vocab());
    ASSERT_TRUE(q.ok()) << q.status() << " " << text;
    auto via_spec = EvaluateQueryOverSpec(*q, *spec);
    auto via_model = EvaluateQueryOverModel(*q, *model, horizon);
    ASSERT_TRUE(via_spec.ok());
    ASSERT_TRUE(via_model.ok());
    EXPECT_EQ(via_spec->boolean, via_model->boolean) << text;
  }
}

TEST(QueryInvarianceTest, GroundAtomsAgreeEverywhere) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({2, 3}));
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok());
  const int64_t horizon = 30;
  FixpointOptions options;
  options.max_time = horizon;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  const Vocabulary& vocab = unit.program.vocab();
  PredicateId tok = vocab.FindPredicate("tok");
  for (int64_t t = 0; t <= horizon; ++t) {
    for (int ring = 0; ring < 2; ++ring) {
      int len = ring == 0 ? 2 : 3;
      for (int i = 0; i < len; ++i) {
        std::string name =
            "r" + std::to_string(ring) + "_" + std::to_string(i);
        GroundAtom atom(tok, t, {vocab.FindConstant(name)});
        EXPECT_EQ(spec->Ask(atom), model->Contains(atom))
            << name << "@" << t;
      }
    }
  }
}

TEST(QueryEvalModelTest, FreeVariablesOverModel) {
  ParsedUnit unit = MustParse("p(0, a). p(2, b). p(T+3, X) :- p(T, X).");
  FixpointOptions options;
  options.max_time = 10;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  auto q = ParseQuery("p(4, X)", unit.program.vocab());
  ASSERT_TRUE(q.ok());
  auto answer = EvaluateQueryOverModel(*q, *model, 10);
  ASSERT_TRUE(answer.ok());
  // p(4, ?) does not hold (p(0,a)->3,6,9; p(2,b)->5,8).
  EXPECT_TRUE(answer->rows.empty());
  auto q2 = ParseQuery("p(5, X)", unit.program.vocab());
  ASSERT_TRUE(q2.ok());
  auto answer2 = EvaluateQueryOverModel(*q2, *model, 10);
  ASSERT_TRUE(answer2.ok());
  ASSERT_EQ(answer2->rows.size(), 1u);
  EXPECT_EQ(unit.program.vocab().ConstantName(answer2->rows[0][0].constant),
            "b");
}

}  // namespace
}  // namespace chronolog
