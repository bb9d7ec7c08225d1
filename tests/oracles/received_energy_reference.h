// Test oracles for the demand check (src/sim/schedule.h): the stop-major
// loops the evaluator used before its exact sums became one sensor-major
// kernel behind a spatial lower bound. Every stop charges every sensor.

#ifndef BUNDLECHARGE_TESTS_ORACLES_RECEIVED_ENERGY_REFERENCE_H_
#define BUNDLECHARGE_TESTS_ORACLES_RECEIVED_ENERGY_REFERENCE_H_

#include <vector>

#include "charging/model.h"
#include "net/deployment.h"
#include "tour/plan.h"

namespace bc::sim {

// Received energy per sensor, accumulated stop by stop over all sensors.
std::vector<double> received_energy_reference(
    const net::Deployment& deployment, const tour::ChargingPlan& plan,
    const charging::ChargingModel& model,
    const std::vector<double>& stop_times_s);

// Minimum over sensors of received / demand from the vector above.
double min_demand_fraction_reference(const net::Deployment& deployment,
                                     const tour::ChargingPlan& plan,
                                     const charging::ChargingModel& model,
                                     const std::vector<double>& stop_times_s);

// The cumulative schedule that updates every sensor after every stop.
std::vector<double> cumulative_times_reference(
    const net::Deployment& deployment, const tour::ChargingPlan& plan,
    const charging::ChargingModel& model);

}  // namespace bc::sim

#endif  // BUNDLECHARGE_TESTS_ORACLES_RECEIVED_ENERGY_REFERENCE_H_
