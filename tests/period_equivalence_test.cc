// The doubling detector (a model extended across doublings, its state hashes
// rehashed only where the extension changed them, and the stateless scan
// FindMinimalPeriod at every probe horizon) must return exactly the answer
// of the reference procedure it replaced: recompute the truncated model from
// scratch at every probe horizon, extract all states, and run
// FindMinimalPeriodInWindow on them. This file re-implements that reference
// loop and sweeps both over fixed non-progressive workloads and random
// programs. Both detectors' probe steps (ScanForStableCandidate with
// VerifyStableCandidate, and FindRepeatedWindow) are also run over synthetic
// state sequences whose hashes collide on purpose, which no real 64-bit
// snapshot hash produces. The overflow clamp of the doubling schedule
// (NextDoublingHorizon) is unit-tested directly — an end-to-end run near
// INT64_MAX horizons is not representable in memory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
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
  Period period;
  int64_t horizon = 0;
};

/// The seed implementation of verified doubling, kept as the oracle: a
/// from-scratch fixpoint at every probe horizon, full state extraction, full
/// window scan, acceptance on a (k, p) stable across one doubling.
std::optional<ReferenceDetection> ReferenceDoubling(
    const Program& program, const Database& db,
    const PeriodDetectionOptions& options) {
  const int64_t c = db.MaxTemporalDepth();
  const int64_t g = std::max<int64_t>(1, program.MaxTemporalDepth());
  int64_t m = std::max<int64_t>(64, c + 4 * g + 4);
  bool have_candidate = false;
  int64_t prev_k = -1;
  int64_t prev_p = -1;
  while (m <= options.max_horizon) {
    FixpointOptions fp;
    fp.max_time = m;
    fp.max_facts = options.max_facts;
    auto model = SemiNaiveFixpoint(program, db, fp);
    EXPECT_TRUE(model.ok()) << model.status();
    std::vector<State> states = ExtractStates(*model, 0, m);
    int64_t k = 0;
    int64_t p = 0;
    if (FindMinimalPeriodInWindow(states, /*min_cycles=*/3, &k, &p)) {
      if (have_candidate && k == prev_k && p == prev_p) {
        return ReferenceDetection{Period{std::max<int64_t>(0, k - c), p}, m};
      }
      have_candidate = true;
      prev_k = k;
      prev_p = p;
    } else {
      have_candidate = false;
    }
    m *= 2;
  }
  return std::nullopt;
}

void ExpectDetectorMatchesReference(const std::string& src,
                                    const PeriodDetectionOptions& options) {
  SCOPED_TRACE(src);
  auto unit = Parser::Parse(src);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_FALSE(CheckProgressive(unit->program).progressive)
      << "workload must exercise the doubling path";

  auto detection = DetectPeriod(unit->program, unit->database, options);
  std::optional<ReferenceDetection> reference =
      ReferenceDoubling(unit->program, unit->database, options);

  if (!reference.has_value()) {
    EXPECT_EQ(detection.status().code(), StatusCode::kResourceExhausted)
        << detection.status();
    return;
  }
  ASSERT_TRUE(detection.ok()) << detection.status();
  EXPECT_EQ(detection->period.b, reference->period.b);
  EXPECT_EQ(detection->period.p, reference->period.p);
  EXPECT_EQ(detection->horizon, reference->horizon);
  EXPECT_FALSE(detection->exact);
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

// ---------------------------------------------------------------------------
// Hash collisions in the shared scan
// ---------------------------------------------------------------------------

/// A synthetic state sequence and its deliberately weak hashes
/// (`hash = state % kBuckets`): distinct states collide all the time, also
/// inside every candidate window.
struct CollidingSequence {
  std::vector<int64_t> states;
  std::vector<std::size_t> hashes;
};

constexpr int64_t kBuckets = 3;

/// An eventually periodic sequence of `n` states: a random prefix of length
/// `prefix`, then a cycle of length `cycle`. States are drawn from
/// [0, alphabet), so windows agree by chance as well as by periodicity.
CollidingSequence MakeSequence(std::mt19937* rng, int64_t n, int64_t prefix,
                               int64_t cycle, int64_t alphabet) {
  std::uniform_int_distribution<int64_t> pick(0, alphabet - 1);
  std::vector<int64_t> loop(static_cast<std::size_t>(cycle));
  for (int64_t& state : loop) state = pick(*rng);
  CollidingSequence seq;
  for (int64_t t = 0; t < n; ++t) {
    const int64_t state =
        t < prefix ? pick(*rng) : loop[static_cast<std::size_t>(t % cycle)];
    seq.states.push_back(state);
    seq.hashes.push_back(static_cast<std::size_t>(state % kBuckets));
  }
  return seq;
}

TEST(PeriodCollisionTest, DoublingProbesMatchReference) {
  int refuted = 0;
  int unaccepted = 0;
  int hash_only_wrong = 0;
  for (uint32_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    const int64_t prefix = std::uniform_int_distribution<int64_t>(0, 40)(rng);
    const int64_t cycle = std::uniform_int_distribution<int64_t>(1, 12)(rng);
    constexpr int64_t kLastHorizon = 2048;
    const CollidingSequence seq =
        MakeSequence(&rng, kLastHorizon + 1, prefix, cycle, 9);
    auto states_equal = [&](int64_t a, int64_t b) {
      return seq.states[static_cast<std::size_t>(a)] ==
             seq.states[static_cast<std::size_t>(b)];
    };

    // DetectPeriod's doubling loop over M[0...m] for m = 16, 32, ...:
    // propose, and verify only a candidate stable across a doubling.
    DoublingScan scan;
    int64_t accepted_at = -1;
    for (int64_t m = 16; m <= kLastHorizon && accepted_at < 0; m *= 2) {
      const std::vector<std::size_t> hashes(seq.hashes.begin(),
                                            seq.hashes.begin() + m + 1);
      if (!ScanForStableCandidate(hashes, states_equal, &scan)) continue;
      if (VerifyStableCandidate(hashes, states_equal, &scan)) {
        accepted_at = m;
      } else {
        ++refuted;
        EXPECT_TRUE(scan.exact);
        EXPECT_FALSE(scan.have_candidate);
      }
    }
    if (accepted_at < 0) {
      // Liveness, not safety: with collisions this dense the hash scan can
      // propose a spurious short period whose start moves with every
      // horizon (a run of hash-equal states at the window's end), so a
      // candidate becomes stable late or never; the detector then exhausts
      // its budget instead of answering wrongly.
      ++unaccepted;
      continue;
    }
    // The accepted candidate is the reference answer over the true states
    // of the accepting window.
    const std::vector<int64_t> states(seq.states.begin(),
                                      seq.states.begin() + accepted_at + 1);
    int64_t ref_k = -1, ref_p = -1;
    ASSERT_TRUE(FindMinimalPeriodInWindow(states, /*min_cycles=*/3, &ref_k,
                                          &ref_p));
    EXPECT_EQ(scan.k, ref_k);
    EXPECT_EQ(scan.p, ref_p);
    const std::vector<std::size_t> hashes(
        seq.hashes.begin(), seq.hashes.begin() + accepted_at + 1);
    int64_t k = -1, p = -1;
    if (!FindMinimalPeriod(hashes, 3, [](int64_t, int64_t) { return true; },
                           &k, &p) ||
        k != ref_k || p != ref_p) {
      ++hash_only_wrong;
    }
  }
  // The planted collisions reach verification, and trusting hashes alone
  // would have answered wrongly.
  EXPECT_GT(refuted, 0);
  EXPECT_GT(hash_only_wrong, 0);
  EXPECT_LT(unaccepted, 8);  // 2 of the 400 seeds
}

TEST(PeriodCollisionTest, VerificationReachesTheNewestState) {
  // A sequence with period 5 whose newest state at horizon 128 is replaced by
  // a distinct state with the same hash: only the pair (m - p, m) collides.
  constexpr int64_t kStateBuckets = 16;
  std::vector<int64_t> states;
  std::vector<std::size_t> hashes;
  for (int64_t t = 0; t <= 128; ++t) {
    states.push_back(t % 5 + (t == 128 ? kStateBuckets : 0));
    hashes.push_back(static_cast<std::size_t>(states.back() % kStateBuckets));
  }
  auto states_equal = [&](int64_t a, int64_t b) {
    return states[static_cast<std::size_t>(a)] ==
           states[static_cast<std::size_t>(b)];
  };
  DoublingScan scan;
  EXPECT_FALSE(ScanForStableCandidate(
      std::vector<std::size_t>(hashes.begin(), hashes.begin() + 65),
      states_equal, &scan));
  ASSERT_TRUE(ScanForStableCandidate(hashes, states_equal, &scan));
  EXPECT_EQ(scan.k, 0);
  EXPECT_EQ(scan.p, 5);
  EXPECT_FALSE(VerifyStableCandidate(hashes, states_equal, &scan));
  EXPECT_TRUE(scan.exact);
}

TEST(PeriodCollisionTest, ForwardWindowIndexMatchesReference) {
  constexpr int64_t kStateBuckets = 11;
  int overwrites = 0;
  int hash_only_wrong = 0;
  for (uint32_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    const int64_t prefix = std::uniform_int_distribution<int64_t>(0, 40)(rng);
    const int64_t cycle = std::uniform_int_distribution<int64_t>(1, 10)(rng);
    const int64_t g = std::uniform_int_distribution<int64_t>(1, 3)(rng);
    const int64_t n = prefix + 4 * cycle + g;
    // Like a model's orbit past the database horizon, only the cycle repeats
    // a window: the cycle holds the distinct states 0..cycle-1, the prefix
    // distinct states >= kStateBuckets. With `hash = state % kStateBuckets`
    // every prefix state collides with a cycle state, and each one collides
    // with the state a cycle later half the time, which is where the walk
    // down to the cycle entry looks.
    std::vector<int64_t> loop(static_cast<std::size_t>(cycle));
    for (int64_t i = 0; i < cycle; ++i) loop[static_cast<std::size_t>(i)] = i;
    std::shuffle(loop.begin(), loop.end(), rng);
    CollidingSequence seq;
    seq.states.resize(static_cast<std::size_t>(n));
    std::uniform_int_distribution<int64_t> residue(0, cycle - 1);
    std::bernoulli_distribution plant(0.5);
    for (int64_t t = n - 1; t >= 0; --t) {
      const auto i = static_cast<std::size_t>(t);
      if (t >= prefix) {
        seq.states[i] = loop[static_cast<std::size_t>(t % cycle)];
      } else {
        const int64_t r = plant(rng)
                              ? seq.states[i + static_cast<std::size_t>(
                                                   cycle)] %
                                    kStateBuckets
                              : residue(rng);
        seq.states[i] = kStateBuckets * (t + 1) + r;
      }
    }
    for (int64_t state : seq.states) {
      seq.hashes.push_back(static_cast<std::size_t>(state % kStateBuckets));
    }
    int64_t ref_k = -1, ref_p = -1;
    ASSERT_TRUE(FindMinimalPeriodInWindow(seq.states, 3, &ref_k, &ref_p));
    ASSERT_EQ(ref_k, prefix);
    ASSERT_EQ(ref_p, cycle);

    // ForwardSimulate's detection, one newest window start s at a time.
    auto detect = [&](const auto& equal, int64_t* k, int64_t* p,
                      int* overwrite_count) {
      std::unordered_map<std::size_t, int64_t> starts;
      for (int64_t s = 0; s + g <= n; ++s) {
        const std::size_t before = starts.size();
        if (FindRepeatedWindow(seq.hashes, g, s, &starts, equal, k, p)) {
          return true;
        }
        if (starts.size() == before) ++*overwrite_count;
      }
      return false;
    };
    auto states_equal = [&](int64_t a, int64_t b) {
      return seq.states[static_cast<std::size_t>(a)] ==
             seq.states[static_cast<std::size_t>(b)];
    };
    int64_t k = -1, p = -1;
    ASSERT_TRUE(detect(states_equal, &k, &p, &overwrites));
    EXPECT_EQ(k, ref_k);
    EXPECT_EQ(p, ref_p);
    int ignored = 0;
    if (!detect([](int64_t, int64_t) { return true; }, &k, &p, &ignored) ||
        k != ref_k || p != ref_p) {
      ++hash_only_wrong;
    }
  }
  // Window-hash collisions between distinct windows overwrite starts, and
  // trusting hashes alone would have answered wrongly.
  EXPECT_GT(overwrites, 0);
  EXPECT_GT(hash_only_wrong, 0);
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
