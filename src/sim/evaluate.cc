#include "sim/evaluate.h"

#include <numeric>

#include "support/require.h"

namespace bc::sim {

PlanMetrics evaluate_plan(const net::Deployment& deployment,
                          const tour::ChargingPlan& plan,
                          const EvaluationConfig& config) {
  const std::vector<double> times =
      schedule_stop_times(deployment, plan, config.charging, config.policy);

  PlanMetrics m;
  m.num_stops = plan.stops.size();
  m.tour_length_m = tour::plan_tour_length(plan, config.metric);
  m.move_energy_j = config.movement.move_energy_j(m.tour_length_m);
  m.move_time_s = config.movement.move_time_s(m.tour_length_m);
  m.charge_time_s = std::accumulate(times.begin(), times.end(), 0.0);
  m.charge_energy_j = config.charging.cost_of_stop_j(m.charge_time_s);
  m.total_energy_j = m.move_energy_j + m.charge_energy_j;
  m.total_time_s = m.move_time_s + m.charge_time_s;
  m.avg_charge_time_per_sensor_s =
      m.charge_time_s / static_cast<double>(deployment.size());

  m.min_demand_fraction =
      min_demand_fraction(deployment, plan, config.charging, times);
  return m;
}

bool plan_is_feasible(const net::Deployment& deployment,
                      const tour::ChargingPlan& plan,
                      const EvaluationConfig& config, double tolerance) {
  support::require(tolerance >= 0.0, "tolerance must be non-negative");
  const PlanMetrics m = evaluate_plan(deployment, plan, config);
  return m.min_demand_fraction >= 1.0 - tolerance;
}

}  // namespace bc::sim
