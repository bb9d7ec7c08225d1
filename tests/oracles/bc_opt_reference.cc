// The relocation sweep as it stood before radius pruning, verbatim: every
// radius of every awake stop runs the circle search and is priced in full.

#include "oracles/bc_opt_reference.h"

#include <algorithm>
#include <vector>

#include "geometry/anchor_search.h"
#include "geometry/ellipse.h"
#include "support/require.h"

namespace bc::tour {

namespace {

using geometry::Point2;

struct StopGeometry {
  Point2 home;        // original SED anchor C_i
  double sed_radius;  // farthest member distance from home
  double demand_j;    // largest member demand
};

// Conservative stop time when parked at displacement d from home.
double conservative_time_s(const StopGeometry& g,
                           const charging::ChargingModel& model, double d) {
  return model.charge_time_s(g.sed_radius + d, g.demand_j);
}

}  // namespace

ChargingPlan plan_bc_opt_reference(const net::Deployment& deployment,
                                   const PlannerConfig& config,
                                   support::BudgetMeter* meter) {
  support::require(config.opt.radius_steps >= 1,
                   "BC-OPT needs at least one displacement step");
  support::BudgetMeter local_meter(config.budget);
  const bool metered = meter != nullptr || !config.budget.unlimited();
  if (meter == nullptr) meter = &local_meter;

  ChargingPlan plan = plan_bc(deployment, config, metered ? meter : nullptr);
  plan.algorithm = "BC-OPT";
  if (plan.stops.empty()) return plan;

  const charging::ChargingModel& model = config.charging;
  const double e_m = config.movement.joules_per_meter();

  // Geometry snapshot; homes stay fixed while positions move.
  std::vector<StopGeometry> geo;
  geo.reserve(plan.stops.size());
  for (const Stop& stop : plan.stops) {
    double demand = 0.0;
    for (const net::SensorId id : stop.members) {
      demand = std::max(demand, deployment.sensor(id).demand_j);
    }
    geo.push_back(StopGeometry{stop.position,
                               stop_max_distance(deployment, stop), demand});
  }

  // Marginal-cost cap: displacing beyond D* (where the conservative
  // charging cost grows as fast as the best-case 2*E_m movement saving)
  // can never pay. d/dD [cost_w * delta * (beta+D)^2 / (alpha*p_tx)]
  // = 2*cost_w*delta*(beta+D)/(alpha*p_tx) == 2*E_m  =>  D*.
  const auto displacement_cap = [&](const StopGeometry& g) {
    if (config.opt.max_displacement_m > 0.0) {
      return config.opt.max_displacement_m;
    }
    if (g.demand_j <= 0.0) return 0.0;
    const double reach = e_m * model.alpha() * model.transmit_power_w() /
                         (model.charge_cost_w() * g.demand_j);
    const double conservative_cap =
        std::max(0.0, reach - model.beta() - g.sed_radius);
    if (!config.opt.exact_charging_eval) return conservative_cap;
    // With exact evaluation the farthest-member distance grows by less
    // than 1 m per metre of displacement (often much less, when moving
    // perpendicular to the farthest member), so profitable moves exist
    // beyond the conservative bound; triple the reach as a generous,
    // still-finite sweep range (moves are only accepted on improvement).
    return std::max(conservative_cap,
                    3.0 * reach - model.beta() - g.sed_radius);
  };

  // Don't-look bits. A stop's evaluation is a pure function of its own
  // position and its two tour neighbours' (the stop order, the depot and
  // the homes are fixed here), so a stop that stayed put is parked until
  // it or a neighbour moves: re-evaluating it could only repeat "stay".
  // Parked stops still charge the meter, so a node cap trips where it
  // would without the bits and every plan is unchanged.
  const std::size_t n = plan.stops.size();
  std::vector<char> awake(n, 1);
  for (std::size_t round = 0; round < config.opt.max_rounds; ++round) {
    bool improved = false;
    bool tripped = false;
    for (std::size_t i = 0; i < n; ++i) {
      // Anytime: every accepted displacement leaves a valid plan, so a
      // tripped budget just stops the Algorithm-3 sweep where it stands.
      if (metered && !meter->charge()) {
        tripped = true;
        break;
      }
      if (awake[i] == 0) continue;
      awake[i] = 0;
      const Point2 prev = i == 0 ? plan.depot : plan.stops[i - 1].position;
      const Point2 next =
          i + 1 == n ? plan.depot : plan.stops[i + 1].position;
      const StopGeometry& g = geo[i];

      double cap = displacement_cap(g);
      // Moving past both neighbours is never useful.
      // metric-exempt: displacement-cap proposal heuristic; acceptance
      // below is judged under the configured metric.
      cap = std::min(cap, std::max(geometry::distance(g.home, prev),
                                   geometry::distance(g.home, next)));
      if (cap <= 0.0) continue;

      const net::MetricSpace* metric = config.metric.get();
      const auto stop_cost = [&](Point2 p, double displacement) {
        const double time =
            config.opt.exact_charging_eval
                ? isolated_stop_time_s(deployment,
                                       Stop{p, plan.stops[i].members}, model)
                : conservative_time_s(g, model, displacement);
        // Movement legs under the configured metric; the null branch keeps
        // the fused focal_sum (bit-exact Euclidean). Candidate positions
        // are still proposed by the Euclidean ellipse tangency (Theorem
        // 4) — a heuristic under a graph metric, but acceptance below is
        // judged on true driven cost, so accepted moves are genuine.
        const double legs =
            metric == nullptr
                ? geometry::focal_sum(prev, next, p)
                : metric->distance(prev, p) + metric->distance(p, next);
        return e_m * legs + model.cost_of_stop_j(time);
      };

      // metric-exempt: displacement from the SED centre is Euclidean by
      // definition (Theorem 4's d), whatever the movement metric.
      const double current_displacement =
          geometry::distance(plan.stops[i].position, g.home);
      double best_cost =
          stop_cost(plan.stops[i].position, current_displacement);
      Point2 best_position = plan.stops[i].position;
      bool moved = false;

      // d = 0 re-centres the stop; k >= 1 sweeps the displacement circles.
      for (std::size_t k = 0; k <= config.opt.radius_steps; ++k) {
        const double d =
            cap * static_cast<double>(k) /
            static_cast<double>(config.opt.radius_steps);
        Point2 candidate;
        if (k == 0) {
          candidate = g.home;
        } else {
          candidate =
              geometry::optimal_point_on_circle(prev, next, g.home, d).point;
        }
        const double cost = stop_cost(candidate, d);
        if (cost < best_cost - 1e-9) {
          best_cost = cost;
          best_position = candidate;
          moved = true;
        }
      }
      if (moved) {
        plan.stops[i].position = best_position;
        improved = true;
        awake[i] = 1;
        if (i > 0) awake[i - 1] = 1;
        if (i + 1 < n) awake[i + 1] = 1;
      }
    }
    if (tripped || !improved) break;
  }
  return plan;
}

}  // namespace bc::tour
