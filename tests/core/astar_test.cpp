// Cross-checks ESG_1Q against an independent textbook A* implementation:
// identical optimal costs on every feasible instance, identical
// infeasibility verdicts otherwise.
#include <gtest/gtest.h>

#include "core/esg_1q.hpp"
#include "profile/function_spec.hpp"
#include "support/astar_reference.hpp"
#include "workload/applications.hpp"

namespace esg::core {
namespace {

using profile::ProfileSet;

const ProfileSet& small_profiles() {
  static const ProfileSet set = [] {
    profile::ConfigSpaceOptions opts;
    opts.batches = {1, 2, 4, 8};
    opts.vcpus = {1, 2, 4};
    opts.vgpus = {1, 2, 4};
    return ProfileSet::builtin(opts);
  }();
  return set;
}

struct Case {
  std::size_t app;     // builtin application index
  double slo_scale;    // target = scale x min-config critical path
  std::uint16_t cap;   // batch cap on the first stage (0 = none)
};

class AstarCross : public ::testing::TestWithParam<Case> {};

TEST_P(AstarCross, AgreesWithEsg1q) {
  const Case c = GetParam();
  const auto apps = workload::builtin_applications();
  const auto& app = apps[c.app];

  std::vector<StageInput> stages;
  TimeMs base = 0.0;
  for (const auto& node : app.nodes()) {
    const auto& tbl = small_profiles().table(node.function);
    stages.push_back(StageInput{&tbl, 0});
    base += tbl.min_config_entry().latency_ms;
  }
  stages.front().batch_cap = c.cap;
  const TimeMs target = base * c.slo_scale;

  const SearchResult esg = esg_1q(stages, target);
  const SearchResult astar = astar_reference(stages, target);

  ASSERT_EQ(esg.met_slo, astar.met_slo)
      << "app " << c.app << " scale " << c.slo_scale;
  if (astar.met_slo) {
    EXPECT_NEAR(esg.config_pq.front().total_per_job_cost,
                astar.config_pq.front().total_per_job_cost, 1e-12);
    EXPECT_LT(astar.config_pq.front().total_latency_ms, target);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AstarCross,
    ::testing::Values(Case{0, 0.7, 0}, Case{0, 0.9, 0}, Case{0, 1.0, 0},
                      Case{0, 1.2, 0}, Case{0, 2.0, 0}, Case{0, 1.2, 2},
                      Case{1, 0.8, 0}, Case{1, 1.1, 0}, Case{1, 3.0, 0},
                      Case{2, 0.9, 0}, Case{2, 1.5, 4}, Case{3, 0.85, 0},
                      Case{3, 1.1, 0}, Case{3, 1.3, 1}, Case{3, 5.0, 0}),
    [](const auto& info) {
      return "app" + std::to_string(info.param.app) + "scale" +
             std::to_string(static_cast<int>(info.param.slo_scale * 100)) +
             "cap" + std::to_string(info.param.cap);
    });

TEST(AstarReference, InfeasibleReturnsEmpty) {
  const auto apps = workload::builtin_applications();
  std::vector<StageInput> stages;
  for (const auto& node : apps[0].nodes()) {
    stages.push_back(StageInput{&small_profiles().table(node.function), 0});
  }
  const auto result = astar_reference(stages, 1.0);
  EXPECT_FALSE(result.met_slo);
  EXPECT_TRUE(result.config_pq.empty());
}

TEST(AstarReference, RejectsEmptyInput) {
  EXPECT_THROW(astar_reference({}, 100.0), std::invalid_argument);
}

TEST(AstarReference, Esg1qNeverExpandsMoreUnderTightTargets) {
  // The dual-blade pruning's advantage: under a tight (just-feasible)
  // target, it should not need dramatically more expansions than A*.
  const auto apps = workload::builtin_applications();
  std::vector<StageInput> stages;
  TimeMs base = 0.0;
  for (const auto& node : apps[0].nodes()) {
    const auto& tbl = small_profiles().table(node.function);
    stages.push_back(StageInput{&tbl, 0});
    base += tbl.min_config_entry().latency_ms;
  }
  const auto esg = esg_1q(stages, 0.85 * base);
  ASSERT_TRUE(esg.met_slo);
  EXPECT_LT(esg.stats.nodes_expanded, 10'000u);
}

}  // namespace
}  // namespace esg::core
