// The doubling detector (a model extended across doublings, its states
// interned to exact ids only where the extension changed them, and the
// Z-function scan FindMinimalPeriod at every probe horizon) must return
// exactly the answer of the reference procedure it replaced: recompute the
// truncated model from scratch at every probe horizon, extract all states,
// and run FindMinimalPeriodInWindow on them. This file re-implements that
// reference loop and sweeps both over fixed non-progressive workloads and
// random programs. Where the reference gives up (a program that reads the
// future loses facts at the edge of every window it scans), the detector
// must instead find the minimal period of the lower half of a from-scratch
// M[0...8192]. The building blocks are checked on their own: DenseIds under
// a deliberately weak hash, and the Z-function scan against the reference
// on every prefix of synthetic sequences. The overflow clamp of the
// doubling schedule (NextDoublingHorizon) is unit-tested directly — an
// end-to-end run near INT64_MAX horizons is not representable in memory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "eval/forward.h"
#include "spec/period.h"
#include "workload/generators.h"
#include "period_reference.h"

namespace chronolog {
namespace {

std::string NonProgressiveSource(uint32_t seed) {
  std::mt19937 rng(seed);
  workload::RandomProgramOptions options;
  options.progressive_only = false;
  options.max_offset = 2;
  options.num_rules = 5;
  options.num_facts = 8;
  return workload::RandomProgramSource(options, &rng);
}

struct ReferenceDetection {
  std::optional<Period> period;  // none: no stable candidate in the budget
  int64_t horizon = 0;           // the last probe horizon
  std::vector<State> states;     // M[0...horizon] of the last probe
};

/// The seed implementation of verified doubling, kept as the oracle: a
/// from-scratch fixpoint at every probe horizon, full state extraction, full
/// window scan, acceptance on a (k, p) stable across one doubling.
ReferenceDetection ReferenceDoubling(const Program& program,
                                     const Database& db,
                                     const PeriodDetectionOptions& options) {
  const int64_t c = db.MaxTemporalDepth();
  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());
  int64_t m = std::max<int64_t>(64, c + 4 * g + 4);
  bool have_candidate = false;
  int64_t prev_k = -1;
  int64_t prev_p = -1;
  ReferenceDetection reference;
  while (m <= options.max_horizon) {
    FixpointOptions fp;
    fp.max_time = m;
    fp.max_facts = options.max_facts;
    auto model = SemiNaiveFixpoint(program, db, fp);
    EXPECT_TRUE(model.ok()) << model.status();
    reference.horizon = m;
    reference.states = ExtractStates(*model, 0, m);
    int64_t k = 0;
    int64_t p = 0;
    if (FindMinimalPeriodInWindow(reference.states, /*min_cycles=*/3, &k,
                                  &p)) {
      if (have_candidate && k == prev_k && p == prev_p) {
        reference.period = Period{std::max<int64_t>(0, k - c), p};
        return reference;
      }
      have_candidate = true;
      prev_k = k;
      prev_p = p;
    } else {
      have_candidate = false;
    }
    m *= 2;
  }
  return reference;
}

void ExpectDetectorMatchesReference(const std::string& src,
                                    const PeriodDetectionOptions& options) {
  SCOPED_TRACE(src);
  auto unit = Parser::Parse(src);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_FALSE(CheckProgressive(unit->program).progressive)
      << "workload must exercise the doubling path";

  auto detection = DetectPeriod(unit->program, unit->database, options);
  ReferenceDetection reference =
      ReferenceDoubling(unit->program, unit->database, options);

  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_FALSE(detection->exact);
  if (reference.period.has_value()) {
    EXPECT_EQ(detection->period, *reference.period);
    EXPECT_EQ(detection->horizon, reference.horizon);
    return;
  }
  // The reference scans the same truncated windows as a detector that reads
  // every state up to its horizon, so it shares that detector's blind spot
  // at the window edge. Judge the detection by the minimal period of the
  // lower half of the reference's longest model instead.
  ASSERT_GE(reference.horizon, 4096);
  const std::vector<State> lower_half(
      reference.states.begin(),
      reference.states.begin() + reference.horizon / 2 + 1);
  int64_t k = 0;
  int64_t p = 0;
  ASSERT_TRUE(FindMinimalPeriodInWindow(lower_half, /*min_cycles=*/3, &k, &p));
  EXPECT_EQ(detection->period,
            (Period{std::max<int64_t>(0, k - detection->c), p}));
}

TEST(PeriodEquivalenceTest, RingWithNonTemporalProjection) {
  // `seen` breaks progressivity (temporal body, non-temporal head), so the
  // lcm(2,3,5) = 30 ring period is found by doubling.
  ExpectDetectorMatchesReference(
      workload::TokenRingSource({2, 3, 5}) + "seen(X) :- tok(T, X).\n",
      PeriodDetectionOptions{});
}

TEST(PeriodEquivalenceTest, BackwardChainWorkload) {
  ExpectDetectorMatchesReference(
      "q(40).\n"
      "p(T) :- q(T+1).\n"
      "p(T) :- p(T+1).\n"
      "r(T+2) :- r(T).\n"
      "r(1).\n",
      PeriodDetectionOptions{});
}

TEST(PeriodEquivalenceTest, PullBackFromSparseSources) {
  // y(T) :- y(T+1) pulls every x back in time, so every truncated window
  // lacks y just below its edge; the infinite model has y everywhere.
  PeriodDetectionOptions options;
  options.max_horizon = 8192;
  const std::string one_ring =
      "x(0). x(T+3) :- x(T). y(T) :- y(T+1). y(T) :- x(T).\n";
  const std::string two_rings =
      "x(0). x(T+7) :- x(T). y(T) :- y(T+1). y(T) :- x(T).\n"
      "z(0). z(T+11) :- z(T). w(T) :- w(T+1). w(T) :- z(T).\n";
  ExpectDetectorMatchesReference(one_ring, options);
  ExpectDetectorMatchesReference(two_rings, options);
  for (const auto& [src, p] : std::vector<std::pair<std::string, int64_t>>{
           {one_ring, 3}, {two_rings, 77}}) {
    auto unit = Parser::Parse(src);
    ASSERT_TRUE(unit.ok()) << unit.status();
    auto detection = DetectPeriod(unit->program, unit->database);
    ASSERT_TRUE(detection.ok()) << detection.status();
    EXPECT_EQ(detection->period, (Period{0, p}));
  }
}

class EquivalenceSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EquivalenceSweep, RandomNonProgressiveProgramsAgree) {
  std::string src = NonProgressiveSource(GetParam() + 700);
  auto unit = Parser::Parse(src);
  ASSERT_TRUE(unit.ok()) << unit.status();
  if (CheckProgressive(unit->program).progressive) {
    GTEST_SKIP() << "random program happens to be progressive";
  }
  PeriodDetectionOptions options;
  options.max_horizon = 1 << 12;
  ExpectDetectorMatchesReference(src, options);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalenceSweep, ::testing::Range(0u, 20u));

/// Up to 7 rules with offsets up to 3: many of these read the future, and
/// a dozen defeat a scan of the whole truncated window.
std::string LongerOffsetSource(uint32_t seed) {
  std::mt19937 rng(seed);
  workload::RandomProgramOptions options;
  options.progressive_only = false;
  options.num_rules = 4 + static_cast<int>(seed / 2) % 4;
  options.max_offset = 1 + static_cast<int>(seed / 2) % 3;
  return workload::RandomProgramSource(options, &rng);
}

/// The odd seeds in [9001, 9299] whose program is not progressive.
std::vector<uint32_t> NonProgressiveLongerOffsetSeeds() {
  std::vector<uint32_t> seeds;
  for (uint32_t seed = 9001; seed <= 9299; seed += 2) {
    auto unit = Parser::Parse(LongerOffsetSource(seed));
    if (unit.ok() && !CheckProgressive(unit->program).progressive) {
      seeds.push_back(seed);
    }
  }
  return seeds;
}

TEST(PeriodEquivalenceTest, LongerOffsetFamilyIsMostlyNonProgressive) {
  EXPECT_EQ(NonProgressiveLongerOffsetSeeds().size(), 137u);
}

class LongerOffsetSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LongerOffsetSweep, DetectorFindsTheMinimalPeriod) {
  PeriodDetectionOptions options;
  options.max_horizon = 8192;
  ExpectDetectorMatchesReference(LongerOffsetSource(GetParam()), options);
}

INSTANTIATE_TEST_SUITE_P(
    Family, LongerOffsetSweep,
    ::testing::ValuesIn(NonProgressiveLongerOffsetSeeds()),
    [](const ::testing::TestParamInfo<uint32_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// ---------------------------------------------------------------------------
// Exact ids and the Z-function scan
// ---------------------------------------------------------------------------

/// An eventually periodic sequence of `n` states: a random prefix of length
/// `prefix`, then a cycle of length `cycle`. States are drawn from
/// [0, alphabet), so windows agree by chance as well as by periodicity.
std::vector<int64_t> MakeSequence(std::mt19937* rng, int64_t n, int64_t prefix,
                                  int64_t cycle, int64_t alphabet) {
  std::uniform_int_distribution<int64_t> pick(0, alphabet - 1);
  std::vector<int64_t> loop(static_cast<std::size_t>(cycle));
  for (int64_t& state : loop) state = pick(*rng);
  std::vector<int64_t> states;
  for (int64_t t = 0; t < n; ++t) {
    states.push_back(t < prefix ? pick(*rng)
                                : loop[static_cast<std::size_t>(t % cycle)]);
  }
  return states;
}

/// Interns `states[from...]` under the weak hash `state % 3`, so distinct
/// states collide all the time, and checks that two positions share an id
/// exactly when their states are equal, and that an id names the first
/// position that got it.
void InternAndCheck(const std::vector<int64_t>& states, int64_t from,
                    DenseIds* ids, std::vector<int64_t>* id_of) {
  auto equal = [&](int64_t s, int64_t t) {
    return states[static_cast<std::size_t>(s)] ==
           states[static_cast<std::size_t>(t)];
  };
  id_of->resize(static_cast<std::size_t>(from));
  for (int64_t t = from; t < static_cast<int64_t>(states.size()); ++t) {
    const auto state = states[static_cast<std::size_t>(t)];
    id_of->push_back(
        ids->Intern(static_cast<std::size_t>(state % 3), t, equal));
    EXPECT_EQ(states[static_cast<std::size_t>(ids->First(id_of->back()))],
              state);
  }
  for (std::size_t s = 0; s < states.size(); ++s) {
    for (std::size_t t = 0; t < states.size(); ++t) {
      ASSERT_EQ((*id_of)[s] == (*id_of)[t], states[s] == states[t])
          << s << " " << t;
    }
  }
  const int64_t distinct = static_cast<int64_t>(
      std::set<int64_t>(states.begin(), states.end()).size());
  EXPECT_EQ(ids->size(), distinct);
}

TEST(DenseIdsTest, WeakHashGivesExactIds) {
  for (uint32_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    std::vector<int64_t> states = MakeSequence(&rng, 300, 40, 7, 50);
    DenseIds ids;
    std::vector<int64_t> id_of;
    InternAndCheck(states, 0, &ids, &id_of);
    // A history rewrite from the middle on: the changed states get ids
    // again, and the ids first seen before the rewrite keep their states.
    const int64_t from = 150;
    for (std::size_t t = from; t < states.size(); ++t) {
      states[t] = std::uniform_int_distribution<int64_t>(25, 75)(rng);
    }
    ids.ForgetFrom(from);
    InternAndCheck(states, from, &ids, &id_of);
  }
}

void ExpectScanMatchesReferenceOnEveryPrefix(
    const std::vector<int64_t>& states) {
  for (std::size_t n = 0; n <= states.size(); ++n) {
    SCOPED_TRACE(n);
    const std::vector<int64_t> prefix(states.begin(), states.begin() + n);
    int64_t ref_k = -1, ref_p = -1, k = -1, p = -1;
    const bool ref = FindMinimalPeriodInWindow(prefix, 3, &ref_k, &ref_p);
    ASSERT_EQ(FindMinimalPeriod(prefix, 3, &k, &p), ref);
    if (!ref) continue;
    ASSERT_EQ(k, ref_k);
    ASSERT_EQ(p, ref_p);
  }
}

TEST(FindMinimalPeriodTest, MatchesReferenceOnEveryPrefix) {
  for (uint32_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    const int64_t prefix = std::uniform_int_distribution<int64_t>(0, 40)(rng);
    const int64_t cycle = std::uniform_int_distribution<int64_t>(1, 12)(rng);
    const int64_t alphabet = std::uniform_int_distribution<int64_t>(2, 9)(rng);
    ExpectScanMatchesReferenceOnEveryPrefix(
        MakeSequence(&rng, 300, prefix, cycle, alphabet));
  }
}

TEST(FindMinimalPeriodTest, LongConstantRunBrokenByOneState) {
  // Every p's agreeing suffix runs into the one distinct state, the case
  // where a walk per p costs time quadratic in the window.
  for (const std::size_t broken : {0, 1, 37, 500, 998, 999}) {
    SCOPED_TRACE(broken);
    std::vector<int64_t> states(1000, 0);
    states[broken] = 1;
    ExpectScanMatchesReferenceOnEveryPrefix(states);
  }
}

// ---------------------------------------------------------------------------
// Doubling-schedule overflow clamp
// ---------------------------------------------------------------------------

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(NextDoublingHorizonTest, DoublesWithinBudget) {
  EXPECT_EQ(NextDoublingHorizon(64, 1 << 20), 128);
  EXPECT_EQ(NextDoublingHorizon(1 << 19, 1 << 20), 1 << 20);
}

TEST(NextDoublingHorizonTest, StopsWhenDoublingWouldExceedBudget) {
  EXPECT_EQ(NextDoublingHorizon((1 << 19) + 1, 1 << 20), -1);
  EXPECT_EQ(NextDoublingHorizon(1 << 20, 1 << 20), -1);
}

TEST(NextDoublingHorizonTest, NoOverflowAtInt64Extremes) {
  // The unclamped `m *= 2` wrapped negative here and the probe loop spun on
  // a nonsense horizon instead of reporting exhaustion.
  EXPECT_EQ(NextDoublingHorizon(kMax / 2, kMax), 2 * (kMax / 2));
  EXPECT_EQ(NextDoublingHorizon(kMax / 2 + 1, kMax), -1);
  EXPECT_EQ(NextDoublingHorizon(kMax - 1, kMax), -1);
  EXPECT_EQ(NextDoublingHorizon(kMax, kMax), -1);
}

TEST(NextDoublingHorizonTest, ScheduleAlwaysTerminates) {
  // Even with the maximal budget the schedule is finite and stays positive.
  int64_t m = 64;
  int steps = 0;
  while (m > 0) {
    ASSERT_LE(m, kMax);
    m = NextDoublingHorizon(m, kMax);
    ASSERT_LT(++steps, 64);
  }
  EXPECT_EQ(m, -1);
}

}  // namespace
}  // namespace chronolog
