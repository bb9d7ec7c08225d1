// WRSN lifetime simulation — the paper's motivating loop, §I/§III-B:
// "if n sensors run out of power, the charging procedure is triggered",
// and ideally "the lifetime of a WRSN can be extended infinitely for
// perpetual operations".
//
// Sensors drain continuously (sensing + communication); when any battery
// falls below a trigger fraction, the mobile charger plans a mission over
// the sensors' *current deficits* (heterogeneous demands) and executes
// it. The simulator advances through trigger events until a time horizon,
// recording missions, charger energy, the worst battery level ever seen,
// and any sensor-seconds spent dead — so one can check whether a planner
// actually sustains perpetual operation at a given drain rate, and at
// what energy cost.
//
// Simplifications (documented, conservative): drain continues during a
// mission but recharge is credited at mission end, so a sensor that would
// die mid-mission counts as dead until the mission completes; the charger
// is always available at the depot between missions. Dead-seconds are
// accounted in *every* phase — missions, inter-mission drain windows, and
// the triggering scan at t = 0 when initial_fraction <= trigger_fraction —
// not only mid-mission, so the totals stay correct even when a mission
// fails to lift a sensor back above the trigger (the fault-aware loop
// below relies on this).

#ifndef BUNDLECHARGE_SIM_LIFETIME_H_
#define BUNDLECHARGE_SIM_LIFETIME_H_

#include <cstddef>
#include <vector>

#include "net/deployment.h"
#include "sim/evaluate.h"
#include "sim/faults.h"
#include "sim/mission_executor.h"
#include "support/expected.h"
#include "tour/planner.h"

namespace bc::sim {

struct LifetimeConfig {
  // Battery capacity per sensor (J) and the level fraction that triggers
  // a charging mission.
  double battery_capacity_j = 20.0;
  double trigger_fraction = 0.4;
  // Initial level fraction at t = 0.
  double initial_fraction = 1.0;
  // Per-sensor drain (W); either one value for all sensors or one per
  // sensor.
  std::vector<double> drain_w{0.001};
  // Simulated horizon (s).
  double horizon_s = 30.0 * 24.0 * 3600.0;
  // Planner used for each mission; mission demands are the sensors'
  // current deficits, so plans differ between missions.
  tour::Algorithm algorithm = tour::Algorithm::kBcOpt;
  tour::PlannerConfig planner{};
  EvaluationConfig evaluation{};
};

struct LifetimeStats {
  std::size_t missions = 0;
  double charger_energy_j = 0.0;   // movement + radiated over all missions
  double charger_busy_s = 0.0;     // total mission time
  double min_level_fraction = 1.0;  // worst battery level / capacity seen
  double dead_time_sensor_s = 0.0;  // summed sensor-seconds at level 0
  bool perpetual = true;            // no sensor ever hit 0
  double simulated_s = 0.0;
};

// Runs the lifetime loop. Preconditions: capacity > 0, 0 < trigger < 1,
// 0 < initial <= 1, drains positive (1 or n values), horizon > 0.
LifetimeStats simulate_lifetime(const net::Deployment& deployment,
                                const LifetimeConfig& config);

// The largest uniform drain (W) the planner can sustain perpetually on
// this deployment, found by bisection over `probe` simulations with the
// given config (drain_w is overridden). Useful as a planner-quality
// metric: better planners sustain higher drains.
double max_sustainable_drain_w(const net::Deployment& deployment,
                               LifetimeConfig config, double lo_w,
                               double hi_w, std::size_t probes = 12);

// Fault-aware lifetime loop -------------------------------------------------
//
// Same trigger -> plan -> execute cycle, but missions run through the
// disruption-tolerant executor against a FaultModel: sensors can be dead
// or degraded, positions can be mis-surveyed, and the charger battery can
// be capped. Planning uses what the charger *believes* (surveyed
// positions, permanent deaths known at dispatch); transient outages are
// discovered mid-mission by the executor. Drain model: permanently failed
// sensors stop draining at their death time; transient outages suspend
// harvesting (and mission membership) but not drain.

struct FaultLifetimeConfig {
  LifetimeConfig base;
  FaultConfig faults;
  // Its charging, movement and planner models are replaced by base's, so
  // planning, execution and replanning share one physics.
  ExecutorConfig executor;
  // Wall time the charger waits before re-triggering after a mission that
  // made no progress (e.g. immediate battery shortfall); bounds the loop.
  double recovery_wait_s = 600.0;
};

// One point of the network survival curve (event-sampled at t = 0, each
// mission end, and the horizon).
struct SurvivalPoint {
  double t_s = 0.0;
  // Fraction of sensors neither permanently failed nor at battery level 0.
  double alive_fraction = 1.0;
};

struct FaultLifetimeStats {
  LifetimeStats base;
  std::size_t missions_completed = 0;  // executor reported full delivery
  std::size_t missions_degraded = 0;   // at least one disruption
  std::size_t replans = 0;
  std::size_t strandings = 0;
  std::size_t sensors_failed = 0;  // permanent hardware deaths by the end
  std::size_t total_disruptions = 0;
  // Indexed by static_cast<size_t>(FaultKind).
  std::vector<std::size_t> disruptions_by_kind;
  std::vector<SurvivalPoint> survival;
};

// Runs the fault-aware lifetime loop. Preconditions as simulate_lifetime
// plus the FaultModel's. Structured faults (never asserts) are returned
// for unexecutable scenarios; disruptions land in the stats.
support::Expected<FaultLifetimeStats> simulate_lifetime_with_faults(
    const net::Deployment& deployment, const FaultLifetimeConfig& config);

}  // namespace bc::sim

#endif  // BUNDLECHARGE_SIM_LIFETIME_H_
