#include <gtest/gtest.h>

#include <random>

#include "ast/parser.h"
#include "ast/printer.h"
#include "query/query_parser.h"
#include "spec/serialize.h"
#include "spec/specification.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

RelationalSpecification MustSpec(const ParsedUnit& unit) {
  auto spec = BuildSpecification(unit.program, unit.database);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return std::move(spec).value();
}

TEST(SerializeTest, EvenRoundTrip) {
  ParsedUnit unit = MustParse(workload::EvenSource());
  RelationalSpecification spec = MustSpec(unit);
  std::string text = SerializeSpecification(spec);
  EXPECT_NE(text.find("%!chronolog-spec 1"), std::string::npos) << text;
  EXPECT_NE(text.find("%!period b=0 p=2 c=0"), std::string::npos) << text;
  EXPECT_NE(text.find("@temporal even/1."), std::string::npos);
  EXPECT_NE(text.find("even(0)."), std::string::npos);

  auto loaded = DeserializeSpecification(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->period().p, 2);
  EXPECT_EQ(loaded->period().b, 0);
  EXPECT_EQ(loaded->c(), 0);
  EXPECT_EQ(loaded->num_representatives(), spec.num_representatives());
}

TEST(SerializeTest, LoadedSpecAnswersLikeOriginal) {
  ParsedUnit unit = MustParse(workload::SkiScheduleSource(2, 12, 4, 1));
  RelationalSpecification spec = MustSpec(unit);
  auto loaded = DeserializeSpecification(SerializeSpecification(spec));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // The loaded spec lives in its own vocabulary; compare through text
  // queries.
  for (int64_t t = 0; t < 80; ++t) {
    for (const char* resort : {"resort0", "resort1"}) {
      std::string q =
          "plane(" + std::to_string(t) + ", " + std::string(resort) + ")";
      auto original_atom = ParseGroundAtom(q, spec.primary().vocab());
      auto loaded_atom = ParseGroundAtom(q, loaded->primary().vocab());
      ASSERT_TRUE(original_atom.ok());
      ASSERT_TRUE(loaded_atom.ok());
      EXPECT_EQ(spec.Ask(*original_atom), loaded->Ask(*loaded_atom)) << q;
    }
  }
}

TEST(SerializeTest, EmptyRelationsKeepTheirSchema) {
  // `ghost` never holds but must survive the round trip as a known
  // predicate (queries return "no", not "unknown predicate").
  ParsedUnit unit = MustParse(
      "even(0). even(T+2) :- even(T).\n"
      "@temporal ghost/2.\n"
      "@predicate magic/1.\n");
  RelationalSpecification spec = MustSpec(unit);
  auto loaded = DeserializeSpecification(SerializeSpecification(spec));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Vocabulary& vocab = loaded->primary().vocab();
  EXPECT_NE(vocab.FindPredicate("ghost"), kInvalidPredicate);
  EXPECT_NE(vocab.FindPredicate("magic"), kInvalidPredicate);
  EXPECT_TRUE(vocab.predicate(vocab.FindPredicate("ghost")).is_temporal);
  EXPECT_FALSE(vocab.predicate(vocab.FindPredicate("magic")).is_temporal);
  auto atom = ParseGroundAtom("ghost(5, anything)", vocab);
  ASSERT_TRUE(atom.ok());
  EXPECT_FALSE(loaded->Ask(*atom));
}

TEST(SerializeTest, MissingHeaderFails) {
  auto loaded = DeserializeSpecification("even(0).");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("header"), std::string::npos);
}

TEST(SerializeTest, MissingPeriodFails) {
  auto loaded = DeserializeSpecification("%!chronolog-spec 1\neven(0).");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, WrongVersionFails) {
  auto loaded = DeserializeSpecification(
      "%!chronolog-spec 99\n%!period b=0 p=1 c=0\n");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RulesInBodyFail) {
  auto loaded = DeserializeSpecification(
      "%!chronolog-spec 1\n%!period b=0 p=2 c=0\n"
      "even(0).\neven(T+2) :- even(T).\n");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("rules"), std::string::npos);
}

TEST(SerializeTest, MalformedPeriodFails) {
  auto loaded = DeserializeSpecification(
      "%!chronolog-spec 1\n%!period b=0 p=0 c=0\neven(0).");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// b + c + p is |T|; a header whose sum does not fit in int64 would overflow
// every rewrite and lookup.
TEST(SerializeTest, OverflowingPeriodFails) {
  for (const char* header : {"%!period b=9223372036854775807 p=1 c=0\n",
                             "%!period b=0 p=1 c=9223372036854775807\n",
                             "%!period b=1 p=9223372036854775807 c=0\n"}) {
    auto loaded = DeserializeSpecification(
        std::string("%!chronolog-spec 1\n") + header + "even(0).\n");
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << header;
  }
}

// B holds facts at the representative times 0 .. b+c+p-1 only.
TEST(SerializeTest, FactBeyondRepresentativesFails) {
  auto loaded = DeserializeSpecification(
      "%!chronolog-spec 1\n%!period b=0 p=2 c=0\neven(0).\neven(2).\n");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("representative"),
            std::string::npos);
  EXPECT_TRUE(DeserializeSpecification(
                  "%!chronolog-spec 1\n%!period b=0 p=2 c=0\neven(0).\n"
                  "even(1).\n")
                  .ok());
}

TEST(SerializeTest, TokenRingRoundTripPreservesEverything) {
  ParsedUnit unit = MustParse(workload::TokenRingSource({3, 4}));
  RelationalSpecification spec = MustSpec(unit);
  auto loaded = DeserializeSpecification(SerializeSpecification(spec));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->period().p, spec.period().p);
  EXPECT_EQ(loaded->SizeInFacts(), spec.SizeInFacts());
  // Re-serialising the loaded spec is a fixpoint (stable text).
  EXPECT_EQ(SerializeSpecification(*loaded),
            SerializeSpecification(*loaded));
}

// The text form is canonical: a loaded specification numbers its constants
// in order of appearance, yet serialises to the same bytes, and it answers
// every fact of the original `B` — at its representative time and, in the
// periodic part, one period deeper — the way the original does.
TEST(SerializeTest, RoundTripIsByteIdenticalAndAnswersAlike) {
  std::mt19937 rng(7);
  for (const std::string& source :
       {workload::TokenRingSource({3, 4}),
        workload::SkiScheduleSource(2, 12, 4, 1),
        workload::PathProgramSource() +
            workload::RandomGraphFactsSource(12, 30, &rng)}) {
    ParsedUnit unit = MustParse(source);
    RelationalSpecification spec = MustSpec(unit);
    const std::string text = SerializeSpecification(spec);
    auto loaded = DeserializeSpecification(text);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(SerializeSpecification(*loaded), text);
    EXPECT_EQ(loaded->primary().constants().size(),
              spec.primary().constants().size());

    const Vocabulary& vocab = spec.primary().vocab();
    std::size_t facts = 0;
    spec.primary().ForEach([&](PredicateId pred, int64_t time,
                               const Tuple& args) {
      ++facts;
      std::vector<int64_t> times = {time};
      if (vocab.predicate(pred).is_temporal &&
          time >= spec.period().b + spec.c()) {
        times.push_back(time + spec.period().p);
      }
      for (int64_t t : times) {
        const GroundAtom atom(pred, t, args);
        auto moved = ParseGroundAtom(GroundAtomToString(atom, vocab),
                                     loaded->primary().vocab());
        ASSERT_TRUE(moved.ok()) << moved.status();
        EXPECT_EQ(loaded->Ask(*moved), spec.Ask(atom))
            << GroundAtomToString(atom, vocab);
        EXPECT_TRUE(spec.Ask(atom)) << GroundAtomToString(atom, vocab);
      }
    });
    EXPECT_EQ(facts, spec.SizeInFacts());
  }
}

}  // namespace
}  // namespace chronolog
