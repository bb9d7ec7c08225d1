// Charging-time scheduling policies.
//
// A plan fixes where the charger parks and which sensors each stop is
// responsible for; the schedule decides how long to park. Two policies:
//
//   kIsolated    t_i is sized by stop i's own farthest assigned member,
//                ignoring radiation received from other stops. This is the
//                reading implied by the paper's bundle definition ("the
//                time t is determined by the sensor with the farthest
//                charging distance in each charging bundle", §I).
//
//   kCumulative  stops are processed in tour order; each member's deficit
//                is credited with the energy already received from every
//                earlier stop (wireless charging is one-to-many, Eq. 3's
//                constraint sums over all stops), and t_i covers only the
//                remaining deficit of stop i's members. Never longer than
//                kIsolated per stop.
//
//   kOptimalLp   the exact Eq. 3 schedule: stop times solve the linear
//                program  min sum_i t_i  s.t.
//                sum_i p_r(d(l_i, s_j)) t_i >= delta_j  for every sensor,
//                via the two-phase simplex in lp/simplex.h. Lower-bounds
//                both heuristics; stop-member assignment is ignored.

#ifndef BUNDLECHARGE_SIM_SCHEDULE_H_
#define BUNDLECHARGE_SIM_SCHEDULE_H_

#include <string_view>
#include <vector>

#include "charging/model.h"
#include "net/deployment.h"
#include "tour/plan.h"

namespace bc::sim {

enum class SchedulePolicy { kIsolated, kCumulative, kOptimalLp };

std::string_view to_string(SchedulePolicy policy);

// Per-stop parking times (seconds), aligned with plan.stops.
// Precondition: the plan assigns every sensor to exactly one stop.
std::vector<double> schedule_stop_times(const net::Deployment& deployment,
                                        const tour::ChargingPlan& plan,
                                        const charging::ChargingModel& model,
                                        SchedulePolicy policy);

// Physical received energy per sensor given stop times: every stop with
// t > 0 radiates to every sensor (one-to-many). Sensor j's entry is the
// stop-order sum of p_r(d(l_i, s_j)) * t_i.
std::vector<double> received_energy_j(const net::Deployment& deployment,
                                      const tour::ChargingPlan& plan,
                                      const charging::ChargingModel& model,
                                      const std::vector<double>& stop_times_s);

// Minimum over sensors of received_energy_j / demand: >= 1 iff every
// sensor met its demand. Bit-identical to taking the minimum over the
// full received_energy_j vector, but sums exactly only for the sensors a
// certified spatial lower bound cannot rule out (DESIGN.md §8). Adds the
// sensor count and the exact sums to the `sim.min_fraction.sensors` and
// `sim.min_fraction.exact_sums` counters.
double min_demand_fraction(const net::Deployment& deployment,
                           const tour::ChargingPlan& plan,
                           const charging::ChargingModel& model,
                           const std::vector<double>& stop_times_s);

}  // namespace bc::sim

#endif  // BUNDLECHARGE_SIM_SCHEDULE_H_
