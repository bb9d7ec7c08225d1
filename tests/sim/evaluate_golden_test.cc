// Golden plan metrics (`ctest -L perf-diff`).
//
// Every PlanMetrics field of seeded evaluations is pinned by an FNV-1a
// hash over its bit pattern, and min_demand_fraction additionally as an
// exact hex-float literal. The grid covers the SC, BC, BC-OPT and BC-SHARD
// planners (BC-SHARD also above shard_tsp_cutover), the isolated,
// cumulative and optimal-LP schedules, the ICDCS'19 and testbed charging
// models, a heterogeneous-demand deployment and a 40-wall graph-metric
// evaluation. The expected values were recorded before the evaluator
// bounded its demand check spatially, so they pin that every speed-up of
// sim/ returns the same metrics bit for bit. A value that moves is a
// behaviour change: explain it, do not re-record it silently.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/profiles.h"
#include "fixtures/paper_world.h"
#include "net/deployment.h"
#include "net/metric.h"
#include "sim/evaluate.h"
#include "support/rng.h"
#include "tour/planner.h"

namespace bc::sim {
namespace {

using tour::Algorithm;

constexpr double kRadiusM = 60.0;

using fixtures::field_side_m;
using fixtures::fnv;
using fixtures::obstacle_world;
using fixtures::paper_deployment;

// The same field with demands drawn log-uniformly over [0.5, 8] J.
net::Deployment heterogeneous_deployment(std::size_t n, std::uint64_t seed) {
  const net::Deployment base = paper_deployment(n, seed);
  support::Rng rng(seed ^ 0x5eedULL);
  std::vector<double> demands(n);
  for (double& demand : demands) demand = 0.5 * std::exp2(rng.uniform(0, 4));
  return net::with_demands(base, std::move(demands));
}

// FNV-1a over the bit pattern of every PlanMetrics field, in declaration
// order.
std::uint64_t metrics_hash(const PlanMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::uint64_t stops = m.num_stops;
  fnv(h, &stops, sizeof stops);
  for (const double value :
       {m.tour_length_m, m.move_energy_j, m.move_time_s, m.charge_time_s,
        m.charge_energy_j, m.total_energy_j, m.total_time_s,
        m.avg_charge_time_per_sensor_s, m.min_demand_fraction}) {
    fnv(h, &value, sizeof value);
  }
  return h;
}

enum class Model { kIcdcs, kTestbed };
enum class Demands { kUniform, kHeterogeneous };

// One evaluation: a seeded deployment planned by one planner, evaluated
// under one schedule and charging model, in free space or walled.
struct EvalCase {
  Algorithm algorithm;
  std::size_t n;
  std::uint64_t seed;
  SchedulePolicy policy;
  Model model;
  Demands demands;
  bool walled;
  std::uint64_t hash;
  double min_fraction;
};

std::string describe(const EvalCase& c) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "%s n=%zu seed=%llu %s %s %s %s",
                std::string(tour::to_string(c.algorithm)).c_str(), c.n,
                static_cast<unsigned long long>(c.seed),
                std::string(to_string(c.policy)).c_str(),
                c.model == Model::kIcdcs ? "icdcs" : "testbed",
                c.demands == Demands::kUniform ? "uniform" : "hetero",
                c.walled ? "walled" : "euclid");
  return buffer;
}

void expect_metrics(const EvalCase& c) {
  const net::Deployment deployment =
      c.demands == Demands::kUniform ? paper_deployment(c.n, c.seed)
                                     : heterogeneous_deployment(c.n, c.seed);
  tour::PlannerConfig config = core::icdcs2019_simulation_profile().planner;
  config.bundle_radius = kRadiusM;
  if (c.walled) {
    config.metric = std::make_shared<const net::GraphMetric>(
        obstacle_world(field_side_m(c.n)));
  }
  const tour::ChargingPlan plan =
      tour::plan_charging_tour(deployment, c.algorithm, config);
  EvaluationConfig evaluation = core::icdcs2019_simulation_profile().evaluation;
  evaluation.policy = c.policy;
  evaluation.charging = c.model == Model::kIcdcs
                            ? charging::ChargingModel::icdcs2019_simulation()
                            : charging::ChargingModel::powercast_testbed();
  evaluation.metric = config.metric.get();
  const PlanMetrics m = evaluate_plan(deployment, plan, evaluation);
  const std::uint64_t actual = metrics_hash(m);
  char got[96];
  std::snprintf(got, sizeof got, "0x%016llxULL, %a",
                static_cast<unsigned long long>(actual),
                m.min_demand_fraction);
  EXPECT_EQ(actual, c.hash) << describe(c) << " got " << got;
  EXPECT_EQ(std::memcmp(&m.min_demand_fraction, &c.min_fraction,
                        sizeof(double)),
            0)
      << describe(c) << " got " << got;
}

constexpr auto kIso = SchedulePolicy::kIsolated;
constexpr auto kCum = SchedulePolicy::kCumulative;
constexpr auto kLp = SchedulePolicy::kOptimalLp;
constexpr auto kIcdcs = Model::kIcdcs;
constexpr auto kTestbed = Model::kTestbed;
constexpr auto kUniform = Demands::kUniform;
constexpr auto kHetero = Demands::kHeterogeneous;

TEST(EvaluateGoldenTest, HeuristicSchedulesAreUnchanged) {
  constexpr EvalCase kCases[] = {
      {Algorithm::kSc, 200, 11, kIso, kIcdcs, kUniform, false,
       0x85f17d014eacf01bULL, 0x1.82e8d9ed4d3d7p+0},
      {Algorithm::kSc, 200, 11, kCum, kIcdcs, kUniform, false,
       0x4c4f5f2693e8ad7aULL, 0x1p+0},
      {Algorithm::kSc, 200, 11, kIso, kTestbed, kUniform, false,
       0x92f9dd3e8e4fe35cULL, 0x1.00007132395fep+0},
      {Algorithm::kSc, 200, 11, kCum, kTestbed, kUniform, false,
       0xa00c99fe8c53226aULL, 0x1p+0},
      {Algorithm::kBc, 200, 11, kIso, kIcdcs, kUniform, false,
       0xe4aa558e65b6a7b8ULL, 0x1.c5cd930121a59p+0},
      {Algorithm::kBc, 200, 11, kCum, kIcdcs, kUniform, false,
       0x9214ed8736b0b508ULL, 0x1p+0},
      {Algorithm::kBc, 200, 11, kIso, kTestbed, kUniform, false,
       0x8956324e6ce30e85ULL, 0x1.52567459fff16p+0},
      {Algorithm::kBc, 200, 11, kCum, kTestbed, kUniform, false,
       0x8aa325bd3d66e537ULL, 0x1p+0},
      {Algorithm::kBcOpt, 200, 11, kIso, kIcdcs, kUniform, false,
       0x407087db23583039ULL, 0x1.d8874b68f7b24p+0},
      {Algorithm::kBcOpt, 200, 11, kCum, kIcdcs, kUniform, false,
       0xb95abeefa8660df9ULL, 0x1p+0},
      {Algorithm::kBcOpt, 200, 11, kIso, kTestbed, kUniform, false,
       0x5c8d9c323fe6c326ULL, 0x1.597eec5536beap+0},
      {Algorithm::kBcOpt, 200, 11, kCum, kTestbed, kUniform, false,
       0x4f4b25565b268082ULL, 0x1p+0},
      {Algorithm::kBcSharded, 2000, 11, kIso, kIcdcs, kUniform, false,
       0xdf3cfb195c31ea5dULL, 0x1.22e0100b8f704p+1},
      {Algorithm::kBcSharded, 2000, 11, kCum, kIcdcs, kUniform, false,
       0x60522162cce8de1bULL, 0x1p+0},
      {Algorithm::kBcSharded, 2000, 11, kIso, kTestbed, kUniform, false,
       0x684edb1585c707e9ULL, 0x1.89a247f144f3p+0},
      {Algorithm::kBcSharded, 2000, 11, kCum, kTestbed, kUniform, false,
       0xc2e9f50d79380116ULL, 0x1p+0},
  };
  for (const EvalCase& c : kCases) expect_metrics(c);
}

// 5000 sensors bundle into about 1350 stops, above shard_tsp_cutover.
TEST(EvaluateGoldenTest, ShardedAboveTheCutoverIsUnchanged) {
  constexpr EvalCase kCases[] = {
      {Algorithm::kBcSharded, 5000, 31, kIso, kIcdcs, kUniform, false,
       0x53ed41cef295f9aeULL, 0x1.4c0befbd8eed9p+1},
      {Algorithm::kBcSharded, 5000, 31, kCum, kIcdcs, kUniform, false,
       0x660bd526242beae4ULL, 0x1p+0},
  };
  for (const EvalCase& c : kCases) expect_metrics(c);
}

TEST(EvaluateGoldenTest, OptimalLpSchedulesAreUnchanged) {
  constexpr EvalCase kCases[] = {
      {Algorithm::kSc, 60, 21, kLp, kIcdcs, kUniform, false,
       0xe405466c41889dd8ULL, 0x1.ffffffffffffbp-1},
      {Algorithm::kBc, 60, 21, kLp, kIcdcs, kUniform, false,
       0x838e0a76d7bba450ULL, 0x1.ffffffffffffdp-1},
      {Algorithm::kBcOpt, 60, 21, kLp, kIcdcs, kUniform, false,
       0xf4854391808b0df1ULL, 0x1.ffffffffffffcp-1},
      {Algorithm::kBcSharded, 60, 21, kLp, kIcdcs, kUniform, false,
       0x838e0a76d7bba450ULL, 0x1.ffffffffffffdp-1},
      {Algorithm::kBc, 60, 22, kLp, kTestbed, kUniform, false,
       0x50d7e7708484d3f7ULL, 0x1.ffffffffffffap-1},
      {Algorithm::kBc, 60, 23, kLp, kIcdcs, kHetero, false,
       0xe71864cd295558f9ULL, 0x1.ffffffffffff4p-1},
  };
  for (const EvalCase& c : kCases) expect_metrics(c);
}

TEST(EvaluateGoldenTest, HeterogeneousDemandsAreUnchanged) {
  constexpr EvalCase kCases[] = {
      {Algorithm::kBc, 200, 12, kIso, kIcdcs, kHetero, false,
       0x6a2bd630e48db42bULL, 0x1.a0830637d245fp+0},
      {Algorithm::kBc, 200, 12, kCum, kIcdcs, kHetero, false,
       0x9298b053ddc37c14ULL, 0x1p+0},
      {Algorithm::kBcOpt, 200, 12, kIso, kIcdcs, kHetero, false,
       0x005dc2b0502e3970ULL, 0x1.a545ab954695bp+0},
      {Algorithm::kBcOpt, 200, 12, kCum, kTestbed, kHetero, false,
       0x14286c1e7236b005ULL, 0x1p+0},
  };
  for (const EvalCase& c : kCases) expect_metrics(c);
}

// Tour legs follow the 40-wall graph metric; charging stays Euclidean.
TEST(EvaluateGoldenTest, WalledEvaluationsAreUnchanged) {
  constexpr EvalCase kCases[] = {
      {Algorithm::kBc, 200, 13, kIso, kIcdcs, kUniform, true,
       0x5ff6d53ba199016bULL, 0x1.b896fd48dac21p+0},
      {Algorithm::kBcOpt, 200, 13, kIso, kIcdcs, kUniform, true,
       0xa510830dcbf40deaULL, 0x1.ca8ddd0002137p+0},
      {Algorithm::kBcOpt, 200, 13, kCum, kIcdcs, kUniform, true,
       0x6a3f27cd5bf920deULL, 0x1p+0},
  };
  for (const EvalCase& c : kCases) expect_metrics(c);
}

}  // namespace
}  // namespace bc::sim
