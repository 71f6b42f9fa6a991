// Randomised property tests of the search stack over SYNTHETIC profile
// tables (not the Table 3 functions): ESG_1Q must agree with both the brute
// force and the A* reference on optimal cost and feasibility for arbitrary
// monotone profiles, and its invariants must hold regardless of the shape
// of the configuration space.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/brute_force.hpp"
#include "core/esg_1q.hpp"
#include "profile/profile_table.hpp"
#include "support/astar_reference.hpp"

namespace esg::core {
namespace {

/// A random function spec with random (but sane) scaling constants.
profile::FunctionSpec random_spec(RngStream& rng, std::uint32_t id) {
  profile::FunctionSpec spec;
  spec.id = FunctionId(id);
  spec.name = "synthetic_" + std::to_string(id);
  spec.model = "synthetic";
  spec.base_latency_ms = rng.uniform(50.0, 1'500.0);
  spec.cold_start_ms = rng.uniform(1'000.0, 25'000.0);
  spec.input_mb = rng.uniform(0.1, 4.0);
  spec.cpu_share = rng.uniform(0.1, 0.6);
  spec.cpu_parallel_fraction = rng.uniform(0.6, 0.95);
  spec.batch_efficiency = rng.uniform(0.1, 0.7);
  spec.max_batch = static_cast<std::uint16_t>(4 << rng.below(3));  // 4/8/16
  return spec;
}

profile::ProfileTable random_table(RngStream& rng, std::uint32_t id) {
  profile::ConfigSpaceOptions opts;
  opts.batches = {1, 2, 4, 8};
  opts.vcpus = {1, 2, 4};
  opts.vgpus = {1, 2};
  const auto spec = random_spec(rng, id);
  return profile::ProfileTable(spec, enumerate_configs(opts, spec),
                               profile::PriceModel{});
}

class RandomProfiles : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProfiles, Esg1qMatchesBruteForceAndAstar) {
  RngStream rng = RngFactory(GetParam()).stream("profiles");
  const std::size_t stages_n = 2 + rng.below(2);  // 2 or 3 stages

  std::vector<profile::ProfileTable> tables;
  tables.reserve(stages_n);
  for (std::size_t i = 0; i < stages_n; ++i) {
    tables.push_back(random_table(rng, static_cast<std::uint32_t>(i)));
  }
  std::vector<StageInput> stages;
  TimeMs base = 0.0;
  for (const auto& t : tables) {
    stages.push_back(StageInput{&t, 0});
    base += t.min_config_entry().latency_ms;
  }

  for (const double scale : {0.6, 0.9, 1.05, 1.5, 4.0}) {
    const TimeMs target = base * scale;
    const auto esg = esg_1q(stages, target);
    const auto brute = brute_force_search(stages, target);
    const auto astar = astar_reference(stages, target);

    ASSERT_EQ(esg.met_slo, brute.met_slo) << "seed " << GetParam()
                                          << " scale " << scale;
    ASSERT_EQ(astar.met_slo, brute.met_slo);
    if (brute.met_slo) {
      EXPECT_NEAR(esg.config_pq.front().total_per_job_cost,
                  brute.config_pq.front().total_per_job_cost, 1e-12);
      EXPECT_NEAR(astar.config_pq.front().total_per_job_cost,
                  brute.config_pq.front().total_per_job_cost, 1e-12);
      // Every returned path really is feasible and internally consistent.
      for (const auto& path : esg.config_pq) {
        EXPECT_LT(path.total_latency_ms, target);
        TimeMs lat = 0.0;
        Usd cost = 0.0;
        for (const auto& e : path.entries) {
          lat += e.latency_ms;
          cost += e.per_job_cost;
        }
        EXPECT_NEAR(lat, path.total_latency_ms, 1e-9);
        EXPECT_NEAR(cost, path.total_per_job_cost, 1e-9);
      }
    } else {
      // Fallback path is the per-stage fastest.
      TimeMs fastest = 0.0;
      for (const auto& t : tables) fastest += t.min_latency();
      ASSERT_EQ(esg.config_pq.size(), 1u);
      EXPECT_NEAR(esg.config_pq.front().total_latency_ms, fastest, 1e-9);
    }
  }
}

TEST_P(RandomProfiles, BatchCapNeverImprovesCost) {
  RngStream rng = RngFactory(GetParam() ^ 0xabcdef).stream("cap");
  std::vector<profile::ProfileTable> tables;
  for (std::uint32_t i = 0; i < 2; ++i) tables.push_back(random_table(rng, i));
  std::vector<StageInput> stages = {{&tables[0], 0}, {&tables[1], 0}};
  TimeMs base = 0.0;
  for (const auto& t : tables) base += t.min_config_entry().latency_ms;

  const auto free_batch = esg_1q(stages, 1.5 * base);
  stages[0].batch_cap = 1;
  const auto capped = esg_1q(stages, 1.5 * base);
  if (free_batch.met_slo && capped.met_slo) {
    // Restricting choice can only cost more (or equal).
    EXPECT_GE(capped.config_pq.front().total_per_job_cost,
              free_batch.config_pq.front().total_per_job_cost - 1e-12);
    EXPECT_EQ(capped.config_pq.front().entries.front().config.batch, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProfiles,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace esg::core
