// The benchmark's workloads. Each runs for options.seconds of measurement
// after its set-up and reports into `report`.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <string_view>

#include "report.h"
#include "tour/planner.h"

namespace perfbench {

// A closed loop with one caller: each sample plans a fresh seeded
// deployment of n sensors, then evaluates the plan, the way
// core::BundleChargingPlanner::plan does.
struct PlanningWorkload {
  std::string_view name;
  std::size_t n = 0;
  bc::tour::Algorithm algorithm = bc::tour::Algorithm::kBcOpt;
  bool obstacles = false;  // plan in the obstacle world instead of free space
};

void run_planning(const PlanningWorkload& workload, Report& report);

// An in-process planning daemon driven open loop with a fixed request mix.
void run_service(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
