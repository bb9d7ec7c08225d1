#include "oracles/received_energy_reference.h"

#include <algorithm>
#include <limits>

#include "support/require.h"

namespace bc::sim {

std::vector<double> received_energy_reference(
    const net::Deployment& deployment, const tour::ChargingPlan& plan,
    const charging::ChargingModel& model,
    const std::vector<double>& stop_times_s) {
  support::require(stop_times_s.size() == plan.stops.size(),
                   "one stop time per stop");
  std::vector<double> received(deployment.size(), 0.0);
  for (std::size_t i = 0; i < plan.stops.size(); ++i) {
    if (stop_times_s[i] <= 0.0) continue;
    for (const net::Sensor& s : deployment.sensors()) {
      // metric-exempt: received power over the air gap (radio physics).
      const double d =
          geometry::distance(plan.stops[i].position, s.position);
      received[s.id] += model.received_power_w(d) * stop_times_s[i];
    }
  }
  return received;
}

double min_demand_fraction_reference(const net::Deployment& deployment,
                                     const tour::ChargingPlan& plan,
                                     const charging::ChargingModel& model,
                                     const std::vector<double>& stop_times_s) {
  const std::vector<double> received =
      received_energy_reference(deployment, plan, model, stop_times_s);
  double min_fraction = std::numeric_limits<double>::infinity();
  for (const net::Sensor& s : deployment.sensors()) {
    min_fraction = std::min(min_fraction, received[s.id] / s.demand_j);
  }
  return min_fraction;
}

std::vector<double> cumulative_times_reference(
    const net::Deployment& deployment, const tour::ChargingPlan& plan,
    const charging::ChargingModel& model) {
  std::vector<double> times;
  times.reserve(plan.stops.size());
  std::vector<double> received(deployment.size(), 0.0);
  for (const tour::Stop& stop : plan.stops) {
    double t = 0.0;
    for (const net::SensorId id : stop.members) {
      const net::Sensor& s = deployment.sensor(id);
      const double deficit = s.demand_j - received[id];
      if (deficit <= 0.0) continue;
      // metric-exempt: received power over the air gap (radio physics).
      const double d = geometry::distance(stop.position, s.position);
      t = std::max(t, deficit / model.received_power_w(d));
    }
    times.push_back(t);
    if (t > 0.0) {
      for (const net::Sensor& s : deployment.sensors()) {
        // metric-exempt: received power over the air gap (radio physics).
        const double d = geometry::distance(stop.position, s.position);
        received[s.id] += model.received_power_w(d) * t;
      }
    }
  }
  return times;
}

}  // namespace bc::sim
