// Test oracle for Algorithm 3 (src/tour/bc_opt_planner.cc): the relocation
// sweep that runs the circle search for every displacement radius of
// every awake stop, with no radius pruning. plan_bc_opt must return its
// plans bit for bit and leave a node-capped meter where it leaves it.

#ifndef BUNDLECHARGE_TESTS_ORACLES_BC_OPT_REFERENCE_H_
#define BUNDLECHARGE_TESTS_ORACLES_BC_OPT_REFERENCE_H_

#include "net/deployment.h"
#include "support/deadline.h"
#include "tour/planner.h"

namespace bc::tour {

// Same contract as plan_bc_opt.
ChargingPlan plan_bc_opt_reference(const net::Deployment& deployment,
                                   const PlannerConfig& config,
                                   support::BudgetMeter* meter = nullptr);

}  // namespace bc::tour

#endif  // BUNDLECHARGE_TESTS_ORACLES_BC_OPT_REFERENCE_H_
