// Join-planner tests: deterministic plan orders, selectivity-driven atom
// ordering on the skewed workload, plan export, and the `join.*` metrics
// family.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "eval/fixpoint.h"
#include "eval/rule_eval.h"
#include "storage/interpretation.h"
#include "util/metrics.h"
#include "workload/generators.h"

namespace chronolog {
namespace {

ParsedUnit MustParse(std::string_view src) {
  auto unit = Parser::Parse(src);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return std::move(unit).value();
}

// Loads the parsed database into the full interpretation and a delta
// holding only the temporal facts (the shape of a semi-naive round).
void LoadSkewed(const ParsedUnit& unit, Interpretation* full, Delta* delta) {
  full->InsertDatabase(unit.database);
  delta->AddCells(*full, /*from_time=*/0, /*non_temporal=*/false);
  delta->Index(unit.program.vocab().num_predicates());
}

// Builds the evaluator's plan for one (delta_pos, time_bound) configuration
// by evaluating it once into a no-op sink.
void BuildPlan(const RuleEvaluator& ev, const Rule& rule,
               const Interpretation& full, const Delta* delta,
               int delta_pos, bool time_bound) {
  std::optional<std::pair<VarId, int64_t>> binding;
  if (time_bound) binding = std::make_pair(rule.head.time->var, int64_t{0});
  ev.Evaluate(full, delta, delta_pos, binding, /*stats=*/nullptr,
              [](GroundAtom&&) {});
}

// SkewedJoinSource rule: hit(T+1,X) :- hit(T,X)[0], wide(X,Y)[1], narrow(Y)[2].
// With `wide` fan-out 64 and a single `narrow` row, the planner must place
// narrow before wide: probing narrow first keeps the frontier at one binding
// instead of enumerating every wide row.
TEST(JoinPlanTest, SkewedWorkloadOrdersNarrowBeforeWide) {
  ParsedUnit unit = MustParse(workload::SkewedJoinSource(64));
  ASSERT_EQ(unit.program.rules().size(), 1u);
  Interpretation full(unit.program.vocab_ptr());
  Delta delta;
  LoadSkewed(unit, &full, &delta);

  RuleEvaluator ev(unit.program.rules()[0], unit.program.vocab());
  EXPECT_TRUE(ev.PlanOrderForTest(0, false).empty());  // nothing cached yet
  BuildPlan(ev, unit.program.rules()[0], full, &delta, /*delta_pos=*/0,
            /*time_bound=*/false);
  const std::vector<uint32_t> order = ev.PlanOrderForTest(0, false);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0u);  // the one-row delta atom leads
  EXPECT_EQ(order[1], 2u);  // narrow before...
  EXPECT_EQ(order[2], 1u);  // ...the wide fan-out relation
}

TEST(JoinPlanTest, PlanOrderIsDeterministic) {
  // Two independently parsed and loaded copies of the same workload must
  // plan identically, for every (delta_pos, time_bound) configuration.
  std::vector<std::vector<uint32_t>> runs[2];
  for (int run = 0; run < 2; ++run) {
    ParsedUnit unit = MustParse(workload::SkewedJoinSource(32));
    Interpretation full(unit.program.vocab_ptr());
    Delta delta;
    LoadSkewed(unit, &full, &delta);
    RuleEvaluator ev(unit.program.rules()[0], unit.program.vocab());
    for (int delta_pos = -1; delta_pos < 3; ++delta_pos) {
      const Delta* d = delta_pos < 0 ? nullptr : &delta;
      for (bool time_bound : {false, true}) {
        BuildPlan(ev, unit.program.rules()[0], full, d, delta_pos,
                  time_bound);
        runs[run].push_back(ev.PlanOrderForTest(delta_pos, time_bound));
        EXPECT_FALSE(runs[run].back().empty());
      }
    }
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(JoinPlanTest, PlannerAvoidsWideScanOnSkewedWorkload) {
  // End-to-end work bound: with fan-out 256 over 50 timesteps, source-order
  // evaluation enumerates ~wide rows per step (>12k match steps); the
  // planned order stays constant per step.
  ParsedUnit unit = MustParse(workload::SkewedJoinSource(256));
  FixpointOptions options;
  options.max_time = 50;
  EvalStats stats;
  auto model =
      SemiNaiveFixpoint(unit.program, unit.database, options, &stats);
  ASSERT_TRUE(model.ok()) << model.status();
  // 51 hit facts derived, one per timestep.
  EXPECT_EQ(model->Timeline(
                    unit.program.vocab().FindPredicate("hit"))
                .size(),
            51u);
  EXPECT_LT(stats.match_steps, 256u * 50u / 2u);
}

TEST(JoinPlanTest, ExportPlansReportsBuiltSlots) {
  ParsedUnit unit = MustParse(workload::SkewedJoinSource(64));
  Interpretation full(unit.program.vocab_ptr());
  Delta delta;
  LoadSkewed(unit, &full, &delta);
  RuleEvaluator ev(unit.program.rules()[0], unit.program.vocab());

  std::vector<PlanSlotReport> report;
  ev.ExportPlans(&report);
  EXPECT_TRUE(report.empty());  // nothing planned yet

  const Rule& rule = unit.program.rules()[0];
  BuildPlan(ev, rule, full, &delta, /*delta_pos=*/0, /*time_bound=*/false);
  BuildPlan(ev, rule, full, nullptr, /*delta_pos=*/-1, /*time_bound=*/true);
  ev.ExportPlans(&report);
  ASSERT_EQ(report.size(), 2u);
  // The report round-trips each slot's configuration and its chosen order.
  bool saw_delta = false, saw_full = false;
  for (const PlanSlotReport& slot : report) {
    ASSERT_EQ(slot.order.size(), 3u);
    ASSERT_EQ(slot.probe_cols.size(), 3u);
    EXPECT_GT(slot.est_steps_per_emit, 0.0);
    if (slot.delta_pos == 0 && !slot.time_bound) {
      saw_delta = true;
      // Matches the directly inspected plan order for the same slot.
      EXPECT_EQ(slot.order, ev.PlanOrderForTest(0, false));
    }
    if (slot.delta_pos == -1 && slot.time_bound) saw_full = true;
  }
  EXPECT_TRUE(saw_delta);
  EXPECT_TRUE(saw_full);

  // Observed counters flow into a later export after real evaluation work.
  EvalStats stats;
  ev.Evaluate(full, &delta, 0, std::nullopt, &stats, [](GroundAtom&&) {});
  std::vector<PlanSlotReport> after;
  ev.ExportPlans(&after);
  uint64_t observed = 0;
  for (const PlanSlotReport& slot : after) observed += slot.observed_steps;
  EXPECT_GT(observed, 0u);
}

TEST(JoinPlanTest, FixpointExportsPlanReportPerRule) {
  ParsedUnit unit = MustParse(workload::SkewedJoinSource(32));
  FixpointOptions options;
  options.max_time = 10;
  RulePlanReport report;
  options.plan_report = &report;
  EvalStats stats;
  auto model =
      SemiNaiveFixpoint(unit.program, unit.database, options, &stats);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_EQ(report.size(), unit.program.rules().size());
  // The recursive rule drove joins, so its report carries at least one
  // slot whose work was observed.
  bool any_slot = false;
  for (const auto& rule_slots : report) {
    for (const PlanSlotReport& slot : rule_slots) {
      any_slot = true;
      EXPECT_FALSE(slot.order.empty());
    }
  }
  EXPECT_TRUE(any_slot);
}

TEST(JoinPlanTest, JoinMetricsPopulatedThroughFixpoint) {
  ParsedUnit unit = MustParse(workload::SkewedJoinSource(32));
  MetricsRegistry metrics;
  FixpointOptions options;
  options.max_time = 10;
  options.metrics = &metrics;
  EvalStats stats;
  auto model =
      SemiNaiveFixpoint(unit.program, unit.database, options, &stats);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_GE(metrics.counter("join.plans")->value(), 1u);
  EXPECT_GE(metrics.counter("join.plan_cache_hits")->value(), 1u);
  ASSERT_TRUE(metrics.has_histogram("join.est_steps_per_emit"));
  ASSERT_TRUE(metrics.has_histogram("join.actual_steps_per_emit"));
  EXPECT_GE(metrics.histogram("join.est_steps_per_emit")->count(), 1u);
  EXPECT_GE(metrics.histogram("join.actual_steps_per_emit")->count(), 1u);
}

}  // namespace
}  // namespace chronolog
