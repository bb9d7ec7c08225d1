// Tests for plan evaluation and feasibility checking.

#include "sim/evaluate.h"

#include <gtest/gtest.h>

#include "support/require.h"
#include "support/rng.h"
#include "tour/planner.h"

namespace bc::sim {
namespace {

net::Deployment random_deployment(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  net::FieldSpec spec;
  return net::uniform_random_deployment(n, spec, rng);
}

TEST(EvaluateTest, BreakdownIsInternallyConsistent) {
  const net::Deployment d = random_deployment(60, 1);
  tour::PlannerConfig config;
  config.bundle_radius = 30.0;
  const auto plan = tour::plan_bc(d, config);
  const EvaluationConfig eval;
  const PlanMetrics m = evaluate_plan(d, plan, eval);

  EXPECT_EQ(m.num_stops, plan.stops.size());
  EXPECT_NEAR(m.tour_length_m, tour::plan_tour_length(plan), 1e-9);
  EXPECT_NEAR(m.move_energy_j,
              eval.movement.move_energy_j(m.tour_length_m), 1e-9);
  EXPECT_NEAR(m.move_time_s, eval.movement.move_time_s(m.tour_length_m),
              1e-9);
  EXPECT_NEAR(m.charge_energy_j,
              eval.charging.cost_of_stop_j(m.charge_time_s), 1e-6);
  EXPECT_NEAR(m.total_energy_j, m.move_energy_j + m.charge_energy_j, 1e-6);
  EXPECT_NEAR(m.total_time_s, m.move_time_s + m.charge_time_s, 1e-6);
  EXPECT_NEAR(m.avg_charge_time_per_sensor_s,
              m.charge_time_s / static_cast<double>(d.size()), 1e-9);
  EXPECT_GE(m.min_demand_fraction, 1.0 - 1e-9);
}

TEST(EvaluateTest, FeasibilityHoldsForAllPlanners) {
  const net::Deployment d = random_deployment(50, 2);
  tour::PlannerConfig config;
  config.bundle_radius = 40.0;
  for (const auto algorithm :
       {tour::Algorithm::kSc, tour::Algorithm::kCss, tour::Algorithm::kBc,
        tour::Algorithm::kBcOpt}) {
    const auto plan = tour::plan_charging_tour(d, algorithm, config);
    EXPECT_TRUE(plan_is_feasible(d, plan, EvaluationConfig{}))
        << tour::to_string(algorithm);
  }
}

TEST(EvaluateTest, CumulativePolicyCostsNoMoreEnergy) {
  const net::Deployment d = random_deployment(80, 3);
  tour::PlannerConfig config;
  config.bundle_radius = 50.0;
  const auto plan = tour::plan_bc(d, config);
  EvaluationConfig iso;
  iso.policy = SchedulePolicy::kIsolated;
  EvaluationConfig cum;
  cum.policy = SchedulePolicy::kCumulative;
  const PlanMetrics m_iso = evaluate_plan(d, plan, iso);
  const PlanMetrics m_cum = evaluate_plan(d, plan, cum);
  EXPECT_LE(m_cum.charge_time_s, m_iso.charge_time_s + 1e-9);
  EXPECT_LE(m_cum.total_energy_j, m_iso.total_energy_j + 1e-9);
  EXPECT_DOUBLE_EQ(m_cum.tour_length_m, m_iso.tour_length_m);
  EXPECT_GE(m_cum.min_demand_fraction, 1.0 - 1e-9);
}

TEST(EvaluateTest, InfeasiblePlanIsDetected) {
  // Every schedule policy is feasible by construction, so infeasibility
  // has to come from the stop times. Halving them halves every term and
  // every sum exactly (a power-of-two scale), so the cumulative
  // schedule's binding sensor, which receives exactly its demand, drops
  // to half of it.
  const net::Deployment d = random_deployment(60, 5);
  tour::PlannerConfig config;
  config.bundle_radius = 40.0;
  const auto plan = tour::plan_bc(d, config);
  EvaluationConfig eval;
  eval.policy = SchedulePolicy::kCumulative;
  const PlanMetrics m = evaluate_plan(d, plan, eval);
  EXPECT_EQ(m.min_demand_fraction, 1.0);
  EXPECT_TRUE(plan_is_feasible(d, plan, eval));

  std::vector<double> times =
      schedule_stop_times(d, plan, eval.charging, eval.policy);
  for (double& t : times) t *= 0.5;
  const double halved = min_demand_fraction(d, plan, eval.charging, times);
  EXPECT_EQ(halved, 0.5 * m.min_demand_fraction);
  EXPECT_LT(halved, 1.0 - 1e-6);
  EXPECT_THROW(plan_is_feasible(d, plan, eval, -1.0),
               support::PreconditionError);
}

TEST(EvaluateTest, EmptyPlanForbiddenByPartitionCheck) {
  const net::Deployment d = random_deployment(3, 4);
  tour::ChargingPlan plan;
  plan.depot = d.depot();
  EXPECT_THROW(evaluate_plan(d, plan, EvaluationConfig{}),
               support::PreconditionError);
}

}  // namespace
}  // namespace bc::sim
