// Sweep CLI surface (DESIGN.md §15): parse coverage for
// --sweep/--jobs/--sweep-out including the cross-flag validation, plus the
// scenario-level wall-budget truncation contract.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "exp/cli.hpp"
#include "exp/scenario.hpp"

namespace esg::exp {
namespace {

CliOptions parse(std::initializer_list<const char*> args) {
  std::vector<const char*> v(args);
  return parse_cli({v.data(), v.size()});
}

TEST(EngineCli, DefaultsToCalendar) {
  const CliOptions opts = parse({});
  EXPECT_FALSE(opts.sweep);
  EXPECT_EQ(opts.jobs, 0u);
  EXPECT_TRUE(opts.sweep_out.empty());
  EXPECT_EQ(opts.schedulers,
            (std::vector<SchedulerKind>{SchedulerKind::kEsg}));
}

TEST(EngineCli, SweepFlagsParse) {
  const CliOptions opts =
      parse({"--sweep", "--scheduler", "esg,infless,orion", "--jobs", "4",
             "--seeds", "2", "--sweep-out", "/tmp/s.json"});
  EXPECT_TRUE(opts.sweep);
  EXPECT_EQ(opts.jobs, 4u);
  EXPECT_EQ(opts.sweep_out, "/tmp/s.json");
  EXPECT_EQ(opts.schedulers,
            (std::vector<SchedulerKind>{SchedulerKind::kEsg,
                                        SchedulerKind::kInfless,
                                        SchedulerKind::kOrion}));
  // scenario.scheduler mirrors the list head.
  EXPECT_EQ(opts.scenario.scheduler, SchedulerKind::kEsg);
}

TEST(EngineCli, SchedulerListRequiresSweep) {
  EXPECT_THROW(parse({"--scheduler", "esg,infless"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scheduler", "esg,esg", "--sweep"}),
               std::invalid_argument);  // duplicates
  EXPECT_THROW(parse({"--scheduler", "esg,,orion", "--sweep"}),
               std::invalid_argument);  // empty entry
}

TEST(EngineCli, SweepOutRequiresSweep) {
  EXPECT_THROW(parse({"--sweep-out", "/tmp/s.json"}), std::invalid_argument);
}

TEST(EngineCli, SweepRejectsFileProducingFlags) {
  EXPECT_THROW(parse({"--sweep", "--csv-dir", "/tmp/csv"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--sweep", "--trace-out", "/tmp/t.json"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--sweep", "--stats-out", "/tmp/s.jsonl"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--sweep", "--perf-summary"}), std::invalid_argument);
}

TEST(EngineCli, JobsAllowedWithoutSweep) {
  // --jobs also caps the multi-seed replica runner.
  EXPECT_EQ(parse({"--jobs", "2", "--seeds", "3"}).jobs, 2u);
}

TEST(EngineEquivalence, WallBudgetTruncatesAndReports) {
  Scenario scenario;
  scenario.horizon_ms = 30'000.0;
  scenario.load = workload::LoadSetting::kHeavy;
  scenario.wall_budget_ms = 1.0;  // far too small for a 30 s heavy run
  const RunOutput out = run_scenario(scenario);
  EXPECT_TRUE(out.truncated);
  EXPECT_GT(out.counters.events_fired, 0u);
  // No budget: a (shorter) run drains fully and reports untruncated.
  scenario.wall_budget_ms = 0.0;
  scenario.horizon_ms = 500.0;
  EXPECT_FALSE(run_scenario(scenario).truncated);
}

}  // namespace
}  // namespace esg::exp
