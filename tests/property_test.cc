// Property-based sweeps over randomly generated temporal programs: the
// invariants of DESIGN.md Section 4, each checked across many seeds.

#include <gtest/gtest.h>

#include <random>

#include "analysis/inflationary.h"
#include "analysis/normalize.h"
#include "ast/parser.h"
#include "ast/printer.h"
#include "eval/bt.h"
#include "eval/fixpoint.h"
#include "eval/forward.h"
#include "query/query_eval.h"
#include "query/query_parser.h"
#include "spec/specification.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(const std::string& src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status() << "\nsource:\n" << src;
  return std::move(unit).value();
}

std::string RandomSource(uint32_t seed, bool progressive) {
  std::mt19937 rng(seed);
  workload::RandomProgramOptions options;
  options.progressive_only = progressive;
  options.num_rules = 5;
  options.num_facts = 8;
  return workload::RandomProgramSource(options, &rng);
}

class SeededTest : public ::testing::TestWithParam<uint32_t> {};

// --------------------------------------------------------------------------
// Invariant 1: naive, semi-naive (and forward, when applicable) agree.
// --------------------------------------------------------------------------

using FixpointAgreement = SeededTest;

TEST_P(FixpointAgreement, NaiveEqualsSemiNaiveProgressive) {
  std::string src = RandomSource(GetParam(), /*progressive=*/true);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  FixpointOptions options;
  options.max_time = 14;
  auto naive = NaiveFixpoint(unit.program, unit.database, options);
  auto semi = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(semi.ok()) << semi.status();
  EXPECT_TRUE(*naive == *semi);
}

TEST_P(FixpointAgreement, NaiveEqualsSemiNaiveGeneral) {
  std::string src = RandomSource(GetParam() + 1000, /*progressive=*/false);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  FixpointOptions options;
  options.max_time = 12;
  auto naive = NaiveFixpoint(unit.program, unit.database, options);
  auto semi = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(semi.ok()) << semi.status();
  EXPECT_TRUE(*naive == *semi);
}

TEST_P(FixpointAgreement, ForwardMatchesFixpointOnSegment) {
  std::string src = RandomSource(GetParam() + 2000, /*progressive=*/true);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  auto forward = ForwardSimulate(unit.program, unit.database);
  ASSERT_TRUE(forward.ok()) << forward.status();
  FixpointOptions options;
  options.max_time = forward->horizon;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(forward->model.SegmentEquals(*model, forward->horizon));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FixpointAgreement, ::testing::Range(0u, 25u));

// --------------------------------------------------------------------------
// Invariant 2: detected periods are valid far beyond the detection window.
// --------------------------------------------------------------------------

using PeriodValidity = SeededTest;

TEST_P(PeriodValidity, DetectedPeriodHoldsOnExtendedWindow) {
  std::string src = RandomSource(GetParam() + 3000, /*progressive=*/true);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  auto detection = DetectPeriod(unit.program, unit.database);
  ASSERT_TRUE(detection.ok()) << detection.status();
  const Period period = detection->period;
  const int64_t start = period.b + detection->c;
  const int64_t horizon = start + 4 * period.p + 8;
  FixpointOptions options;
  options.max_time = horizon;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  for (int64_t t = start; t + period.p <= horizon; ++t) {
    ASSERT_EQ(State::FromInterpretation(*model, t),
              State::FromInterpretation(*model, t + period.p))
        << "t=" << t << " (b=" << period.b << ", p=" << period.p << ")";
  }
}

TEST_P(PeriodValidity, DetectedPeriodIsMinimal) {
  std::string src = RandomSource(GetParam() + 4000, /*progressive=*/true);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  auto detection = DetectPeriod(unit.program, unit.database);
  ASSERT_TRUE(detection.ok()) << detection.status();
  const Period period = detection->period;
  if (period.p == 1) return;
  // No smaller period validates on the detection window's states.
  std::vector<State> states =
      ExtractStates(detection->model, 0, detection->horizon);
  const int64_t start = period.b + detection->c;
  for (int64_t p = 1; p < period.p; ++p) {
    bool valid = true;
    for (int64_t t = start; t + p < static_cast<int64_t>(states.size());
         ++t) {
      if (!(states[t] == states[t + p])) {
        valid = false;
        break;
      }
    }
    EXPECT_FALSE(valid) << "smaller period " << p << " validates";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PeriodValidity, ::testing::Range(0u, 25u));

// --------------------------------------------------------------------------
// Invariant 3: specification lookups agree with deep materialisation.
// --------------------------------------------------------------------------

using SpecSoundness = SeededTest;

TEST_P(SpecSoundness, AskMatchesDeepModel) {
  std::string src = RandomSource(GetParam() + 5000, /*progressive=*/true);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok()) << spec.status();
  const int64_t horizon =
      spec->num_representatives() + 3 * spec->period().p + 5;
  FixpointOptions options;
  options.max_time = horizon;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  // Positive direction: every materialised fact is spec-true.
  model->ForEach([&](PredicateId pred, int64_t t, const Tuple& args) {
    EXPECT_TRUE(spec->Ask(GroundAtom(pred, t, args)))
        << GroundAtomToString(GroundAtom(pred, t, args),
                              unit.program.vocab());
  });
  // Negative direction: random probes agree.
  std::mt19937 rng(GetParam());
  const Vocabulary& vocab = unit.program.vocab();
  for (int probe = 0; probe < 200; ++probe) {
    PredicateId pred = std::uniform_int_distribution<PredicateId>(
        0, static_cast<PredicateId>(vocab.num_predicates() - 1))(rng);
    const PredicateInfo& info = vocab.predicate(pred);
    GroundAtom atom;
    atom.pred = pred;
    atom.time = info.is_temporal
                    ? std::uniform_int_distribution<int64_t>(0, horizon)(rng)
                    : 0;
    for (uint32_t j = 0; j < info.arity; ++j) {
      atom.args.push_back(std::uniform_int_distribution<SymbolId>(
          0, static_cast<SymbolId>(vocab.num_constants() - 1))(rng));
    }
    EXPECT_EQ(spec->Ask(atom), model->Contains(atom))
        << GroundAtomToString(atom, vocab);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpecSoundness, ::testing::Range(0u, 20u));

// --------------------------------------------------------------------------
// Invariant 4: query invariance (Proposition 3.1) on random programs.
// --------------------------------------------------------------------------

using QueryInvariance = SeededTest;

TEST_P(QueryInvariance, SpecAndModelEvaluationAgree) {
  std::string src = RandomSource(GetParam() + 6000, /*progressive=*/true);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok()) << spec.status();
  const int64_t horizon =
      spec->num_representatives() + 3 * spec->period().p + 5;
  FixpointOptions options;
  options.max_time = horizon;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());

  // Queries whose quantifier semantics stabilise within the horizon: purely
  // existential (a model witness is always within the representatives by
  // periodicity, and vice versa).
  const std::vector<std::string> queries = {
      "exists T (tp0(T, c0))",
      "exists T, X (tp0(T, X))",
      "exists T (tp1(T, c1) & tp0(T, c0))",
      "exists T (tp0(T, c0) & ~tp1(T, c0))",
      "exists X (tp2(0, X) | tp2(1, X))",
      "np0(c0, c1) | exists T (tp1(T, c2))",
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

INSTANTIATE_TEST_SUITE_P(Sweep, QueryInvariance, ::testing::Range(0u, 20u));

// --------------------------------------------------------------------------
// Invariant 5: the Theorem 5.2 decision agrees with sampled semantics.
// --------------------------------------------------------------------------

using InflationaryAgreement = SeededTest;

TEST_P(InflationaryAgreement, CopyRulesForceInflationary) {
  // Appending an unconditional copy rule for every derived temporal
  // predicate makes any program inflationary; the checker must agree.
  std::string src = RandomSource(GetParam() + 7000, /*progressive=*/true);
  ParsedUnit probe = MustParse(src);
  std::string copies;
  for (PredicateId pred : probe.program.DerivedPredicates()) {
    const PredicateInfo& info = probe.program.vocab().predicate(pred);
    if (!info.is_temporal) continue;
    copies += info.name + "(T+1";
    for (uint32_t j = 0; j < info.arity; ++j) {
      copies += ", V" + std::to_string(j);
    }
    copies += ") :- " + info.name + "(T";
    for (uint32_t j = 0; j < info.arity; ++j) {
      copies += ", V" + std::to_string(j);
    }
    copies += ").\n";
  }
  std::string full = src + copies;
  SCOPED_TRACE(full);
  ParsedUnit unit = MustParse(full);
  auto report = CheckInflationary(unit.program);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->inflationary)
      << report->ToString(unit.program.vocab());
}

TEST_P(InflationaryAgreement, PositiveVerdictImpliesSemanticPersistence) {
  std::string src = RandomSource(GetParam() + 8000, /*progressive=*/true);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  auto report = CheckInflationary(unit.program);
  ASSERT_TRUE(report.ok()) << report.status();
  if (!report->inflationary) return;  // nothing claimed
  const int64_t horizon = 16;
  FixpointOptions options;
  options.max_time = horizon;
  auto model = SemiNaiveFixpoint(unit.program, unit.database, options);
  ASSERT_TRUE(model.ok());
  std::vector<PredicateId> derived = unit.program.DerivedPredicates();
  model->ForEach([&](PredicateId pred, int64_t t, const Tuple& args) {
    if (!unit.program.vocab().predicate(pred).is_temporal) return;
    if (std::find(derived.begin(), derived.end(), pred) == derived.end()) {
      return;
    }
    if (t + 1 > horizon) return;
    EXPECT_TRUE(model->Contains(pred, t + 1, args))
        << GroundAtomToString(GroundAtom(pred, t, args),
                              unit.program.vocab())
        << " holds but not at t+1";
  });
}

TEST_P(InflationaryAgreement, InflationaryProgramsHavePeriodOne) {
  // Theorem 5.1: inflationary => period (poly(n)+1, 1).
  std::string src = RandomSource(GetParam() + 7000, /*progressive=*/true);
  ParsedUnit probe = MustParse(src);
  std::string copies;
  for (PredicateId pred : probe.program.DerivedPredicates()) {
    const PredicateInfo& info = probe.program.vocab().predicate(pred);
    if (!info.is_temporal) continue;
    copies += info.name + "(T+1, V0) :- " + info.name + "(T, V0).\n";
  }
  ParsedUnit unit = MustParse(src + copies);
  auto detection = DetectPeriod(unit.program, unit.database);
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_EQ(detection->period.p, 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, InflationaryAgreement,
                         ::testing::Range(0u, 15u));

// --------------------------------------------------------------------------
// Invariant 7: normalisation preserves least models.
// --------------------------------------------------------------------------

using NormalizeProperty = SeededTest;

TEST_P(NormalizeProperty, NormalizePreservesOriginalVocabularyModel) {
  std::mt19937 rng(GetParam() + 9000);
  workload::RandomProgramOptions options;
  options.progressive_only = true;
  options.max_offset = 3;  // force deep rules
  options.num_rules = 4;
  std::string src = workload::RandomProgramSource(options, &rng);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  auto normal = Normalize(unit.program);
  ASSERT_TRUE(normal.ok()) << normal.status();
  EXPECT_TRUE(normal->IsNormal());

  const int64_t compare_to = 10;
  const int64_t eval_to = compare_to + 2 * unit.program.MaxTemporalDepth();
  FixpointOptions orig_options;
  orig_options.max_time = compare_to;
  auto original = SemiNaiveFixpoint(unit.program, unit.database, orig_options);
  ASSERT_TRUE(original.ok());
  FixpointOptions norm_options;
  norm_options.max_time = eval_to;
  auto transformed = SemiNaiveFixpoint(*normal, unit.database, norm_options);
  ASSERT_TRUE(transformed.ok());

  const Vocabulary& vocab = unit.program.vocab();
  original->ForEach([&](PredicateId pred, int64_t t, const Tuple& args) {
    EXPECT_TRUE(transformed->Contains(pred, t, args))
        << "missing " << GroundAtomToString(GroundAtom(pred, t, args), vocab);
  });
  transformed->ForEach([&](PredicateId pred, int64_t t, const Tuple& args) {
    if (vocab.predicate(pred).name[0] == '$') return;
    if (t > compare_to) return;
    EXPECT_TRUE(original->Contains(pred, t, args))
        << "extra " << GroundAtomToString(GroundAtom(pred, t, args), vocab);
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, NormalizeProperty, ::testing::Range(0u, 15u));

// --------------------------------------------------------------------------
// Invariant: algorithm BT agrees with specification-based answering.
// --------------------------------------------------------------------------

using BtAgreement = SeededTest;

TEST_P(BtAgreement, BtMatchesSpecOnRandomAtoms) {
  std::string src = RandomSource(GetParam() + 10000, /*progressive=*/true);
  SCOPED_TRACE(src);
  ParsedUnit unit = MustParse(src);
  auto spec = BuildSpecification(unit.program, unit.database);
  ASSERT_TRUE(spec.ok()) << spec.status();
  BtOptions bt_options;
  bt_options.range = spec->num_representatives();
  std::mt19937 rng(GetParam());
  const Vocabulary& vocab = unit.program.vocab();
  for (int probe = 0; probe < 20; ++probe) {
    PredicateId pred = std::uniform_int_distribution<PredicateId>(
        0, static_cast<PredicateId>(vocab.num_predicates() - 1))(rng);
    const PredicateInfo& info = vocab.predicate(pred);
    GroundAtom atom;
    atom.pred = pred;
    atom.time = info.is_temporal
                    ? std::uniform_int_distribution<int64_t>(0, 40)(rng)
                    : 0;
    for (uint32_t j = 0; j < info.arity; ++j) {
      atom.args.push_back(std::uniform_int_distribution<SymbolId>(
          0, static_cast<SymbolId>(vocab.num_constants() - 1))(rng));
    }
    auto bt = RunBt(unit.program, unit.database, atom, bt_options);
    ASSERT_TRUE(bt.ok()) << bt.status();
    EXPECT_EQ(bt->answer, spec->Ask(atom))
        << GroundAtomToString(atom, vocab);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BtAgreement, ::testing::Range(0u, 15u));

}  // namespace
}  // namespace chronolog
