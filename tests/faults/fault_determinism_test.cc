// Cross-thread-count determinism for the fault-injection stack: the
// fault-aware lifetime loop (planning, execution, replanning) must be
// bit-identical at 1, 2, and 8 workers and across reruns, with exact (==)
// floating-point comparisons — the same contract the parallel layer and
// its CI sanitizer matrix enforce for the fault-free paths.

#include <gtest/gtest.h>

#include <vector>

#include "sim/lifetime.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace bc::sim {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

net::Deployment test_deployment() {
  support::Rng rng(17);
  net::FieldSpec spec;
  spec.field = geometry::Box2{{0.0, 0.0}, {300.0, 300.0}};
  return net::uniform_random_deployment(24, spec, rng);
}

FaultLifetimeConfig stressed_config() {
  FaultLifetimeConfig config;
  config.base.planner.bundle_radius = 60.0;
  config.base.horizon_s = 2.0 * 24.0 * 3600.0;
  config.base.drain_w = {2e-4};
  config.faults.seed = 9;
  config.faults.permanent_death_rate_per_day = 0.15;
  config.faults.transient_outage_rate_per_day = 0.5;
  config.faults.max_efficiency_loss = 0.3;
  config.faults.position_noise_stddev_m = 2.0;
  config.faults.mc_battery_capacity_j = 6000.0;
  config.executor.on_dead_member = DisruptionPolicy::kReplan;
  config.executor.on_overrun = DisruptionPolicy::kTruncate;
  config.executor.on_battery_shortfall = DisruptionPolicy::kTruncate;
  return config;
}

void expect_identical(const FaultLifetimeStats& a, const FaultLifetimeStats& b,
                      std::size_t threads) {
  EXPECT_EQ(a.base.missions, b.base.missions) << "at " << threads;
  EXPECT_EQ(a.base.charger_energy_j, b.base.charger_energy_j)
      << "at " << threads;
  EXPECT_EQ(a.base.charger_busy_s, b.base.charger_busy_s) << "at " << threads;
  EXPECT_EQ(a.base.min_level_fraction, b.base.min_level_fraction)
      << "at " << threads;
  EXPECT_EQ(a.base.dead_time_sensor_s, b.base.dead_time_sensor_s)
      << "at " << threads;
  EXPECT_EQ(a.base.perpetual, b.base.perpetual) << "at " << threads;
  EXPECT_EQ(a.base.simulated_s, b.base.simulated_s) << "at " << threads;
  EXPECT_EQ(a.missions_completed, b.missions_completed) << "at " << threads;
  EXPECT_EQ(a.missions_degraded, b.missions_degraded) << "at " << threads;
  EXPECT_EQ(a.replans, b.replans) << "at " << threads;
  EXPECT_EQ(a.strandings, b.strandings) << "at " << threads;
  EXPECT_EQ(a.sensors_failed, b.sensors_failed) << "at " << threads;
  EXPECT_EQ(a.total_disruptions, b.total_disruptions) << "at " << threads;
  EXPECT_EQ(a.disruptions_by_kind, b.disruptions_by_kind) << "at " << threads;
  ASSERT_EQ(a.survival.size(), b.survival.size()) << "at " << threads;
  for (std::size_t i = 0; i < a.survival.size(); ++i) {
    EXPECT_EQ(a.survival[i].t_s, b.survival[i].t_s) << "point " << i;
    EXPECT_EQ(a.survival[i].alive_fraction, b.survival[i].alive_fraction)
        << "point " << i;
  }
}

class FaultDeterminismTest : public ::testing::Test {
 protected:
  ~FaultDeterminismTest() override { support::set_thread_count(0); }
};

TEST_F(FaultDeterminismTest, FaultLifetimeIsThreadCountInvariant) {
  const net::Deployment deployment = test_deployment();
  const FaultLifetimeConfig config = stressed_config();

  support::set_thread_count(1);
  auto reference = simulate_lifetime_with_faults(deployment, config);
  ASSERT_TRUE(reference.has_value());
  // The scenario must actually exercise the fault machinery for the
  // invariance claim to mean anything.
  ASSERT_GT(reference.value().base.missions, 0u);
  ASSERT_GT(reference.value().total_disruptions, 0u);

  for (const std::size_t threads : kThreadCounts) {
    support::set_thread_count(threads);
    auto repeat = simulate_lifetime_with_faults(deployment, config);
    ASSERT_TRUE(repeat.has_value());
    expect_identical(reference.value(), repeat.value(), threads);
  }
}

TEST_F(FaultDeterminismTest, RerunsAreBitIdentical) {
  const net::Deployment deployment = test_deployment();
  const FaultLifetimeConfig config = stressed_config();
  support::set_thread_count(8);
  auto a = simulate_lifetime_with_faults(deployment, config);
  auto b = simulate_lifetime_with_faults(deployment, config);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  expect_identical(a.value(), b.value(), 8);
}

TEST(FaultLifetimeTest, NoFaultsRunsCleanly) {
  const net::Deployment deployment = test_deployment();
  FaultLifetimeConfig config;
  config.base.planner.bundle_radius = 60.0;
  config.base.horizon_s = 2.0 * 24.0 * 3600.0;
  config.base.drain_w = {1e-4};
  auto result = simulate_lifetime_with_faults(deployment, config);
  ASSERT_TRUE(result.has_value());
  const FaultLifetimeStats& stats = result.value();
  EXPECT_GT(stats.base.missions, 0u);
  EXPECT_TRUE(stats.base.perpetual);
  EXPECT_EQ(stats.sensors_failed, 0u);
  EXPECT_EQ(stats.total_disruptions, 0u);
  EXPECT_EQ(stats.strandings, 0u);
  EXPECT_EQ(stats.missions_completed, stats.base.missions);
  for (const SurvivalPoint& point : stats.survival) {
    EXPECT_EQ(point.alive_fraction, 1.0);
  }
}

TEST(FaultLifetimeTest, ReplanningBeatsTruncationUnderFaults) {
  // The headline robustness claim: with disruptions on, bounded-retry
  // replanning keeps more of the network alive (less sensor-dead time)
  // than simply truncating every disrupted mission.
  const net::Deployment deployment = test_deployment();
  FaultLifetimeConfig config = stressed_config();
  config.base.drain_w = {4e-4};  // hot enough that missed charge hurts

  config.executor.on_dead_member = DisruptionPolicy::kTruncate;
  config.executor.on_overrun = DisruptionPolicy::kTruncate;
  auto truncate = simulate_lifetime_with_faults(deployment, config);
  ASSERT_TRUE(truncate.has_value());

  config.executor.on_dead_member = DisruptionPolicy::kReplan;
  config.executor.on_overrun = DisruptionPolicy::kReplan;
  auto replan = simulate_lifetime_with_faults(deployment, config);
  ASSERT_TRUE(replan.has_value());

  EXPECT_LE(replan.value().base.dead_time_sensor_s,
            truncate.value().base.dead_time_sensor_s);
}

TEST(FaultLifetimeTest, SurvivalCurveIsWellFormed) {
  const net::Deployment deployment = test_deployment();
  const FaultLifetimeConfig config = stressed_config();
  auto result = simulate_lifetime_with_faults(deployment, config);
  ASSERT_TRUE(result.has_value());
  const std::vector<SurvivalPoint>& curve = result.value().survival;
  ASSERT_GE(curve.size(), 2u);
  EXPECT_EQ(curve.front().t_s, 0.0);
  EXPECT_EQ(curve.back().t_s, config.base.horizon_s);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(curve[i - 1].t_s, curve[i].t_s);
    }
    EXPECT_GE(curve[i].alive_fraction, 0.0);
    EXPECT_LE(curve[i].alive_fraction, 1.0);
  }
}

}  // namespace
}  // namespace bc::sim
