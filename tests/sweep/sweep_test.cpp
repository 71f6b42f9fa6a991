// Sweep runner tests (DESIGN.md §15): cross-product construction, result
// ordering, per-cell failure isolation, and the determinism contract —
// identical merged results for any --jobs count.
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

namespace esg::sweep {
namespace {

exp::Scenario small_scenario() {
  exp::Scenario s;
  s.horizon_ms = 800.0;
  s.nodes = 4;
  return s;
}

TEST(CrossProduct, SchedulerMajorOrderWithLabels) {
  const std::array<exp::SchedulerKind, 2> kinds = {
      exp::SchedulerKind::kEsg, exp::SchedulerKind::kInfless};
  const std::array<std::uint64_t, 3> seeds = {7, 8, 9};
  const auto tasks = cross_product(small_scenario(), kinds, seeds);
  ASSERT_EQ(tasks.size(), 6u);
  EXPECT_EQ(tasks[0].label, "ESG/seed7");
  EXPECT_EQ(tasks[2].label, "ESG/seed9");
  EXPECT_EQ(tasks[3].label, "INFless/seed7");
  EXPECT_EQ(tasks[5].label, "INFless/seed9");
  EXPECT_EQ(tasks[4].scenario.scheduler, exp::SchedulerKind::kInfless);
  EXPECT_EQ(tasks[4].scenario.seed, 8u);
}

TEST(CrossProduct, StripsFileBackedTracing) {
  exp::Scenario base = small_scenario();
  base.trace.trace_path = "/tmp/never_written.json";
  base.trace.stats_path = "/tmp/never_written.jsonl";
  const std::array<exp::SchedulerKind, 1> kinds = {exp::SchedulerKind::kEsg};
  const std::array<std::uint64_t, 1> seeds = {42};
  const auto tasks = cross_product(base, kinds, seeds);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_FALSE(tasks[0].scenario.trace.enabled());
}

TEST(RunSweep, ResultsLandInTaskOrderForAnyJobCount) {
  const std::array<exp::SchedulerKind, 2> kinds = {
      exp::SchedulerKind::kEsg, exp::SchedulerKind::kInfless};
  const std::array<std::uint64_t, 2> seeds = {42, 43};

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;
  const auto base = run_sweep(cross_product(small_scenario(), kinds, seeds),
                              serial);
  const auto wide = run_sweep(cross_product(small_scenario(), kinds, seeds),
                              parallel);

  ASSERT_EQ(base.size(), 4u);
  ASSERT_EQ(wide.size(), 4u);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_FALSE(base[i].failed) << base[i].error;
    EXPECT_FALSE(wide[i].failed) << wide[i].error;
    EXPECT_EQ(base[i].label, wide[i].label);
    // Everything but wall_seconds must be replica-deterministic.
    EXPECT_EQ(base[i].output.metrics.requests(),
              wide[i].output.metrics.requests());
    EXPECT_EQ(base[i].output.metrics.slo_hit_rate(),
              wide[i].output.metrics.slo_hit_rate());
    EXPECT_EQ(base[i].output.metrics.total_cost,
              wide[i].output.metrics.total_cost);
    EXPECT_EQ(base[i].output.counters.events_fired,
              wide[i].output.counters.events_fired);
    EXPECT_EQ(base[i].output.simulated_end_ms,
              wide[i].output.simulated_end_ms);
  }
  // Different seeds really produced different runs (the cells aren't all
  // accidentally identical).
  EXPECT_NE(base[0].output.counters.events_fired,
            base[1].output.counters.events_fired);
}

TEST(RunSweep, FailedCellIsIsolated) {
  std::vector<SweepTask> tasks =
      cross_product(small_scenario(),
                    std::array<exp::SchedulerKind, 1>{exp::SchedulerKind::kEsg},
                    std::array<std::uint64_t, 2>{42, 43});
  // An impossible scenario: elastic min above the resolved max throws inside
  // run_scenario on the worker thread; the sibling cell must still succeed.
  tasks[0].scenario.elastic.policy = elastic::ElasticPolicy::kQueue;
  tasks[0].scenario.elastic.min_nodes = 9;
  tasks[0].scenario.elastic.max_nodes = 2;
  const auto results = run_sweep(std::move(tasks), {});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].failed);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_FALSE(results[1].failed) << results[1].error;
  EXPECT_GT(results[1].output.metrics.requests(), 0u);
}

}  // namespace
}  // namespace esg::sweep
