// Soundness gate for the chronolog_flow static analyses (run directly by
// bench/ci.sh as well as through ctest): over every shipped example program
// and the workload-generator programs, the static bounds must be consistent
// with what the dynamic period detector finds —
//
//   (i)  a statically bounded program has minimal period 1, stabilised no
//        later than one step past the static horizon;
//   (ii) the static period divisor divides the detected minimal period;
//   (iii) no predicate of degree k holds more than n^k facts at any one
//        time of B (or in its non-temporal relation), n being the larger of
//        the database's fact count and its number of distinct constants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "ast/parser.h"
#include "core/engine.h"
#include "spec/specification.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

struct NamedProgram {
  std::string name;
  std::string source;
};

std::vector<NamedProgram> AllPrograms() {
  std::vector<NamedProgram> out;

  // Every shipped example program (CHRONOLOG_SOURCE_DIR points at the
  // source tree; set in tests/CMakeLists.txt).
  const std::filesystem::path dir =
      std::filesystem::path(CHRONOLOG_SOURCE_DIR) / "examples" / "programs";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".tdl") continue;
    std::ifstream file(entry.path());
    EXPECT_TRUE(file.is_open()) << entry.path();
    std::stringstream buffer;
    buffer << file.rdbuf();
    out.push_back({entry.path().filename().string(), buffer.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const NamedProgram& a, const NamedProgram& b) {
              return a.name < b.name;
            });
  EXPECT_FALSE(out.empty()) << "no example programs found under " << dir;

  // The workload generators (src/workload/generators.cc): one bounded, one
  // progressive, several certified-periodic and several
  // exponential-period witnesses.
  out.push_back({"gen:even", workload::EvenSource()});
  out.push_back({"gen:delay_chain_4_6",
                 workload::DelayChainSource({4, 6})});
  out.push_back({"gen:token_ring_3_4", workload::TokenRingSource({3, 4})});
  out.push_back({"gen:binary_counter_3", workload::BinaryCounterSource(3)});
  for (int n : {4, 8, 16, 32}) {
    out.push_back({"gen:path_cycle" + std::to_string(n),
                   workload::PathProgramSource() +
                       workload::CycleGraphFactsSource(n)});
  }
  out.push_back({"gen:ski_small",
                 workload::SkiScheduleSource(/*resorts=*/2, /*year_len=*/12,
                                             /*winter_len=*/5,
                                             /*holidays=*/2)});
  out.push_back({"gen:skewed_join_8", workload::SkewedJoinSource(8)});
  out.push_back({"gen:bounded_datalog", workload::BoundedDatalogSource() +
                                            "edge(a, b).\nedge(b, c).\n"});
  out.push_back({"gen:transitive_closure",
                 workload::TransitiveClosureDatalogSource() +
                     "edge(a, b).\nedge(b, c).\nedge(c, a).\n"});
  return out;
}

/// n^k, saturating at the largest uint64_t.
uint64_t SaturatingPower(uint64_t n, int k) {
  uint64_t result = 1;
  for (int i = 0; i < k; ++i) {
    if (n != 0 && result > UINT64_MAX / n) return UINT64_MAX;
    result *= n;
  }
  return result;
}

/// The database size measure n of the degree analysis: the larger of the
/// number of facts and the number of distinct constants they mention.
uint64_t DatabaseSizeMeasure(const Database& database) {
  std::set<SymbolId> constants;
  for (const GroundAtom& fact : database.facts()) {
    constants.insert(fact.args.begin(), fact.args.end());
  }
  return std::max(database.facts().size(), constants.size());
}

TEST(FlowSoundnessTest, StaticBoundsAgreeWithTheDynamicDetector) {
  for (const NamedProgram& program : AllPrograms()) {
    SCOPED_TRACE(program.name);
    auto unit = Parser::Parse(program.source);
    ASSERT_TRUE(unit.ok()) << unit.status();

    const FlowAnalysis analysis =
        AnalyzeProgram(unit->program, unit->database);

    Result<RelationalSpecification> baseline =
        BuildSpecification(unit->program, unit->database);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    const Period period = baseline->period();

    // (i) Statically bounded => the model goes empty past the horizon: the
    // minimal period is 1 and stabilization ends one step after it.
    if (analysis.offsets.bounded) {
      EXPECT_EQ(period.p, 1);
      EXPECT_LE(period.b + baseline->c(),
                analysis.offsets.static_horizon + 1);
    }

    // (ii) The static divisor claim: p is a multiple of it.
    ASSERT_GE(analysis.offsets.period_divisor, 1);
    EXPECT_EQ(period.p % analysis.offsets.period_divisor, 0)
        << "detected p=" << period.p << " static divisor="
        << analysis.offsets.period_divisor;

    // (iii) The degree claim: |p at one time| <= n^k. B holds every
    // representative time, so its cells are all the sizes the model takes.
    std::map<std::pair<PredicateId, int64_t>, uint64_t> cell_sizes;
    for (PredicateId pred : baseline->primary().vocab().AllPredicates()) {
      baseline->primary().ForEachCell(
          pred, [&](int64_t time, std::size_t size) {
            cell_sizes[{pred, time}] = size;
          });
    }
    const uint64_t n = DatabaseSizeMeasure(unit->database);
    for (const auto& [cell, size] : cell_sizes) {
      const int k = analysis.degrees.degree[cell.first];
      EXPECT_LE(size, SaturatingPower(n, k))
          << "predicate '" << unit->program.vocab().predicate(cell.first).name
          << "' at time " << cell.second << ": degree " << k << ", n = " << n;
    }
  }
}

TEST(FlowSoundnessTest, EngineAnalysisDivisorDividesThePeriod) {
  // End-to-end through the engine facade. The delay chain is a certified
  // self-delay workload: the divisor its delay structure implies —
  // lcm(4, 6) = 12 — divides the period of the specification the engine
  // builds.
  auto tdd = TemporalDatabase::FromSource(workload::DelayChainSource({4, 6}));
  ASSERT_TRUE(tdd.ok()) << tdd.status();
  auto spec = tdd->specification();
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(AnalyzeProgram(tdd->program(), tdd->database())
                .offsets.period_divisor,
            12);
  EXPECT_EQ((*spec)->period().p % 12, 0);
}

}  // namespace
}  // namespace chronolog
