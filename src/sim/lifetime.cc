#include "sim/lifetime.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/require.h"

namespace bc::sim {

namespace {

// Advances all levels by `dt` of pure drain, tracking the worst fraction
// and accruing dead sensor-seconds for any sensor that is (or goes) flat
// inside the window. Inter-mission windows cannot kill a sensor when every
// mission restores it above the trigger — but a faulted/truncated mission
// breaks that invariant, and the t = 0 triggering scan starts below the
// trigger whenever initial_fraction <= trigger_fraction, so the accounting
// must be correct for arbitrary windows, not correct by accident.
void drain_levels(std::vector<double>& levels,
                  const std::vector<double>& drain_w, double dt,
                  double capacity, LifetimeStats& stats) {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double survive_s = levels[i] / drain_w[i];
    if (survive_s < dt) {
      stats.dead_time_sensor_s += dt - survive_s;
      stats.perpetual = false;
    }
    levels[i] = std::max(0.0, levels[i] - drain_w[i] * dt);
    stats.min_level_fraction =
        std::min(stats.min_level_fraction, levels[i] / capacity);
  }
}

void validate_lifetime_config(const net::Deployment& deployment,
                              const LifetimeConfig& config) {
  support::require(config.battery_capacity_j > 0.0,
                   "battery capacity must be positive");
  support::require(
      config.trigger_fraction > 0.0 && config.trigger_fraction < 1.0,
      "trigger fraction must be in (0, 1)");
  support::require(
      config.initial_fraction > 0.0 && config.initial_fraction <= 1.0,
      "initial fraction must be in (0, 1]");
  support::require(config.horizon_s > 0.0, "horizon must be positive");
  support::require(config.drain_w.size() == 1 ||
                       config.drain_w.size() == deployment.size(),
                   "one drain value, or one per sensor");
  for (const double w : config.drain_w) {
    support::require(w > 0.0, "drain must be positive");
  }
}

std::vector<double> expand_drains(const net::Deployment& deployment,
                                  const LifetimeConfig& config) {
  std::vector<double> drain(deployment.size());
  for (std::size_t i = 0; i < drain.size(); ++i) {
    drain[i] = config.drain_w.size() == 1 ? config.drain_w[0]
                                          : config.drain_w[i];
  }
  return drain;
}

}  // namespace

LifetimeStats simulate_lifetime(const net::Deployment& deployment,
                                const LifetimeConfig& config) {
  validate_lifetime_config(deployment, config);
  const std::vector<double> drain = expand_drains(deployment, config);

  const double capacity = config.battery_capacity_j;
  const double trigger_level = config.trigger_fraction * capacity;
  std::vector<double> levels(deployment.size(),
                             config.initial_fraction * capacity);

  LifetimeStats stats;
  stats.min_level_fraction = config.initial_fraction;
  double now = 0.0;

  while (now < config.horizon_s) {
    // Time until the first sensor crosses the trigger level. At t = 0 with
    // initial_fraction <= trigger_fraction the scan trips immediately and
    // the first mission dispatches at t = 0.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (levels[i] <= trigger_level) {
        dt = 0.0;
        break;
      }
      dt = std::min(dt, (levels[i] - trigger_level) / drain[i]);
    }
    if (now + dt >= config.horizon_s) {
      drain_levels(levels, drain, config.horizon_s - now, capacity, stats);
      now = config.horizon_s;
      break;
    }
    drain_levels(levels, drain, dt, capacity, stats);
    now += dt;

    // Dispatch a mission over the current deficits.
    std::vector<double> deficits(levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) {
      deficits[i] = std::max(capacity - levels[i], 1e-9);
    }
    const net::Deployment mission =
        net::with_demands(deployment, std::move(deficits));
    const tour::ChargingPlan plan =
        tour::plan_charging_tour(mission, config.algorithm, config.planner);
    const std::vector<double> times = schedule_stop_times(
        mission, plan, config.evaluation.charging, config.evaluation.policy);
    const std::vector<double> received = received_energy_j(
        mission, plan, config.evaluation.charging, times);

    // Tour legs follow the planner's movement metric (null = Euclidean).
    const double tour_length_m =
        tour::plan_tour_length(plan, config.planner.metric.get());
    double mission_time =
        config.evaluation.movement.move_time_s(tour_length_m);
    double radiated_time = 0.0;
    for (const double t : times) {
      mission_time += t;
      radiated_time += t;
    }
    stats.charger_energy_j +=
        config.evaluation.movement.move_energy_j(tour_length_m) +
        config.evaluation.charging.cost_of_stop_j(radiated_time);
    stats.charger_busy_s += mission_time;
    ++stats.missions;

    // Drain through the mission (recharge credited at the end —
    // conservative); drain_levels accrues the sensor-seconds spent flat.
    drain_levels(levels, drain, mission_time, capacity, stats);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      levels[i] = std::min(capacity, levels[i] + received[i]);
    }
    now += mission_time;
  }

  stats.simulated_s = now;
  return stats;
}

double max_sustainable_drain_w(const net::Deployment& deployment,
                               LifetimeConfig config, double lo_w,
                               double hi_w, std::size_t probes) {
  support::require(0.0 < lo_w && lo_w < hi_w, "need 0 < lo < hi");
  const auto sustainable = [&](double w) {
    config.drain_w = {w};
    return simulate_lifetime(deployment, config).perpetual;
  };
  if (sustainable(hi_w)) return hi_w;
  if (!sustainable(lo_w)) return 0.0;
  double lo = lo_w;
  double hi = hi_w;
  for (std::size_t i = 0; i < probes; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (sustainable(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Fault-aware loop -----------------------------------------------------------

namespace {

// Drains one window for the fault-aware loop: each hardware-alive sensor
// drains until the window end or its own death time, whichever comes
// first; flat-but-alive sensors accrue dead sensor-seconds. Hardware-dead
// time is *not* energy-dead time (tracked as sensors_failed instead).
void drain_levels_faulted(std::vector<double>& levels,
                          const std::vector<double>& drain_w, double now,
                          double dt, double capacity,
                          const FaultModel& faults, LifetimeStats& stats) {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double alive_until =
        std::min(dt, faults.death_time_s(static_cast<net::SensorId>(i)) - now);
    if (alive_until <= 0.0) continue;  // dead before the window
    const double survive_s = levels[i] / drain_w[i];
    if (survive_s < alive_until) {
      stats.dead_time_sensor_s += alive_until - survive_s;
      stats.perpetual = false;
    }
    levels[i] = std::max(0.0, levels[i] - drain_w[i] * alive_until);
    stats.min_level_fraction =
        std::min(stats.min_level_fraction, levels[i] / capacity);
  }
}

}  // namespace

support::Expected<FaultLifetimeStats> simulate_lifetime_with_faults(
    const net::Deployment& deployment, const FaultLifetimeConfig& config) {
  validate_lifetime_config(deployment, config.base);
  support::require(config.recovery_wait_s > 0.0,
                   "recovery wait must be positive");
  const std::vector<double> drain = expand_drains(deployment, config.base);

  FaultConfig fault_config = config.faults;
  fault_config.horizon_s =
      std::max(fault_config.horizon_s, config.base.horizon_s);
  const FaultModel faults(deployment, fault_config);

  ExecutorConfig executor = config.executor;
  executor.charging = config.base.evaluation.charging;
  executor.movement = config.base.evaluation.movement;
  executor.planner = config.base.planner;

  const double capacity = config.base.battery_capacity_j;
  const double trigger_level = config.base.trigger_fraction * capacity;
  const double horizon = config.base.horizon_s;
  const std::size_t n = deployment.size();
  std::vector<double> levels(n, config.base.initial_fraction * capacity);

  FaultLifetimeStats stats;
  stats.base.min_level_fraction = config.base.initial_fraction;
  stats.disruptions_by_kind.assign(
      static_cast<std::size_t>(support::FaultKind::kNumFaultKinds), 0);

  double now = 0.0;
  const auto record_survival = [&]() {
    std::size_t alive = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!faults.permanently_failed_by(static_cast<net::SensorId>(i), now) &&
          levels[i] > 0.0) {
        ++alive;
      }
    }
    stats.survival.push_back(
        {now, static_cast<double>(alive) / static_cast<double>(n)});
  };
  record_survival();

  while (now < horizon) {
    // Active = hardware-alive now. Trigger scan and death events both bound
    // the next drain window, so a sensor that would die *before* reaching
    // the trigger just freezes without spuriously dispatching a mission.
    double dt_trigger = std::numeric_limits<double>::infinity();
    double dt_death = std::numeric_limits<double>::infinity();
    std::size_t active = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const net::SensorId id = static_cast<net::SensorId>(i);
      if (faults.permanently_failed_by(id, now)) continue;
      ++active;
      dt_death = std::min(dt_death, faults.death_time_s(id) - now);
      if (levels[i] <= trigger_level) {
        dt_trigger = 0.0;
      } else {
        dt_trigger =
            std::min(dt_trigger, (levels[i] - trigger_level) / drain[i]);
      }
    }
    if (active == 0) {
      now = horizon;  // whole network hardware-dead; nothing left to drain
      break;
    }
    const double dt = std::min(dt_trigger, dt_death);
    if (now + dt >= horizon) {
      drain_levels_faulted(levels, drain, now, horizon - now, capacity, faults,
                           stats.base);
      now = horizon;
      break;
    }
    drain_levels_faulted(levels, drain, now, dt, capacity, faults, stats.base);
    now += dt;
    if (dt_death < dt_trigger) continue;  // pure death event, no trigger yet

    // Dispatch over the believed-alive sensors (permanent deaths known at
    // dispatch; transient outages are discovered by the executor).
    std::vector<net::SensorId> planned_ids;
    std::vector<geometry::Point2> planned_positions;
    std::vector<double> planned_deficits;
    for (std::size_t i = 0; i < n; ++i) {
      const net::SensorId id = static_cast<net::SensorId>(i);
      if (faults.permanently_failed_by(id, now)) continue;
      planned_ids.push_back(id);
      planned_positions.push_back(deployment.sensor(id).position);
      planned_deficits.push_back(std::max(capacity - levels[i], 1e-9));
    }
    const net::Deployment mission(std::move(planned_positions),
                                  deployment.field(), deployment.depot(),
                                  planned_deficits);
    tour::ChargingPlan plan = tour::plan_charging_tour(
        mission, config.base.algorithm, config.base.planner);
    for (tour::Stop& stop : plan.stops) {
      for (net::SensorId& member : stop.members) {
        member = planned_ids[member];
      }
    }
    std::vector<double> demand(n, 0.0);
    for (std::size_t k = 0; k < planned_ids.size(); ++k) {
      demand[planned_ids[k]] = planned_deficits[k];
    }

    auto executed =
        execute_mission(deployment, demand, plan, faults, now, executor);
    if (!executed) return executed.fault();  // malformed plan: library bug
    const MissionReport& report = executed.value();

    stats.base.charger_energy_j += report.battery_used_j;
    stats.base.charger_busy_s += report.mission_time_s;
    ++stats.base.missions;
    if (report.completed) ++stats.missions_completed;
    if (!report.disruptions.empty()) ++stats.missions_degraded;
    if (report.stranded) ++stats.strandings;
    stats.replans += report.replans;
    stats.total_disruptions += report.disruptions.size();
    for (const Disruption& d : report.disruptions) {
      ++stats.disruptions_by_kind[static_cast<std::size_t>(d.kind)];
    }

    // Drain through the mission (recharge credited at the end), then apply
    // what the faulted world actually delivered.
    drain_levels_faulted(levels, drain, now, report.mission_time_s, capacity,
                         faults, stats.base);
    const double mission_end = now + report.mission_time_s;
    for (std::size_t i = 0; i < n; ++i) {
      const net::SensorId id = static_cast<net::SensorId>(i);
      if (faults.permanently_failed_by(id, mission_end)) continue;
      levels[i] = std::min(capacity, levels[i] + report.delivered_j[i]);
    }
    now = mission_end;

    // A mission that consumed no time made no progress (e.g. instant
    // battery shortfall); wait before re-triggering so the loop stays
    // bounded instead of spinning at the same instant.
    if (report.mission_time_s <= 0.0) {
      const double wait = std::min(config.recovery_wait_s, horizon - now);
      drain_levels_faulted(levels, drain, now, wait, capacity, faults,
                           stats.base);
      now += wait;
    }
    record_survival();
  }

  stats.base.simulated_s = now;
  stats.sensors_failed = faults.permanent_failures_by(now);
  record_survival();
  return stats;
}

}  // namespace bc::sim
