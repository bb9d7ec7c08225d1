// Differential tests for the bounded demand check: min_demand_fraction,
// received_energy_j and the cumulative schedule must return the same bits
// as the stop-major reference loops in tests/oracles, on a seeded corpus
// and on the geometric and numeric edge cases of the spatial bound.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "charging/model.h"
#include "net/deployment.h"
#include "obs/metrics.h"
#include "oracles/received_energy_reference.h"
#include "sim/schedule.h"
#include "support/require.h"
#include "support/rng.h"
#include "tour/planner.h"

namespace bc::sim {
namespace {

using geometry::Box2;
using geometry::Point2;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The three charging models of the corpus: the ICDCS'19 constants, the
// testbed's Friis-derived ones, and one with alpha > beta^2, where the
// energy-conservation clamp of received_power_w is active at short range.
std::vector<charging::ChargingModel> corpus_models() {
  return {charging::ChargingModel::icdcs2019_simulation(),
          charging::ChargingModel::powercast_testbed(),
          charging::ChargingModel(/*alpha=*/36.0, /*beta=*/3.0,
                                  /*transmit_power_w=*/3.0,
                                  /*charge_cost_w=*/3.0)};
}

// Checks min_demand_fraction against the reference minimum and returns
// the exact sums it spent.
std::uint64_t expect_same_min(const net::Deployment& d,
                              const tour::ChargingPlan& plan,
                              const charging::ChargingModel& model,
                              const std::vector<double>& times,
                              const std::string& what) {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  const double expected = min_demand_fraction_reference(d, plan, model, times);
  const double actual = min_demand_fraction(d, plan, model, times);
  EXPECT_TRUE(same_bits(actual, expected))
      << what << ": got " << actual << ", reference " << expected;
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("sim.min_fraction.sensors"), d.size()) << what;
  const std::uint64_t sums = snap.counter("sim.min_fraction.exact_sums");
  EXPECT_GE(sums, 1u) << what;
  EXPECT_LE(sums, d.size()) << what;
  return sums;
}

// Every policy, the times as scheduled, randomly scaled per stop (most
// such plans are infeasible) and with every other stop switched off.
void expect_same_on_every_schedule(const net::Deployment& d,
                                   const tour::ChargingPlan& plan,
                                   const std::string& what) {
  support::Rng rng(d.size());
  for (const charging::ChargingModel& model : corpus_models()) {
    for (const SchedulePolicy policy :
         {SchedulePolicy::kIsolated, SchedulePolicy::kCumulative}) {
      const std::vector<double> times =
          schedule_stop_times(d, plan, model, policy);
      std::vector<double> scaled = times;
      for (double& t : scaled) t *= rng.uniform(0.25, 1.75);
      std::vector<double> halved = times;
      for (std::size_t i = 0; i < halved.size(); i += 2) halved[i] = 0.0;
      const std::string tag = what + " alpha=" +
                              std::to_string(model.alpha()) + " " +
                              std::string(to_string(policy));
      expect_same_min(d, plan, model, times, tag + " as scheduled");
      expect_same_min(d, plan, model, scaled, tag + " scaled");
      expect_same_min(d, plan, model, halved, tag + " half zeroed");
    }
  }
}

net::Deployment with_spread_demands(const net::Deployment& base,
                                    double orders_of_magnitude,
                                    std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> demands(base.size());
  for (double& demand : demands) {
    demand = std::pow(10.0, rng.uniform(-orders_of_magnitude / 2.0,
                                        orders_of_magnitude / 2.0));
  }
  return net::with_demands(base, std::move(demands));
}

TEST(MinDemandFractionTest, MatchesTheReferenceOnASeededCorpus) {
  for (const std::size_t n : {40u, 300u, 1200u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const double side = 1000.0 * std::sqrt(static_cast<double>(n) / 200.0);
      net::FieldSpec spec;
      spec.field = Box2{{0.0, 0.0}, {side, side}};
      support::Rng rng(seed * 1000 + n);
      const net::Deployment uniform =
          net::uniform_random_deployment(n, spec, rng);
      const net::Deployment clustered =
          net::clustered_deployment(n, 4, side / 12.0, spec, rng);
      for (const net::Deployment* field : {&uniform, &clustered}) {
        for (const bool hetero : {false, true}) {
          const net::Deployment d =
              hetero ? with_spread_demands(*field, 2.0, seed) : *field;
          tour::PlannerConfig config;
          config.bundle_radius = 60.0;
          const auto plan = tour::plan_bc(d, config);
          expect_same_on_every_schedule(
              d, plan,
              "n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                  (field == &uniform ? " uniform" : " clustered") +
                  (hetero ? " hetero" : ""));
        }
      }
    }
  }
}

TEST(MinDemandFractionTest, ReceivedEnergyIsBitIdenticalToTheReference) {
  support::Rng rng(17);
  net::FieldSpec spec;
  const net::Deployment d = net::uniform_random_deployment(250, spec, rng);
  tour::PlannerConfig config;
  config.bundle_radius = 50.0;
  const auto plan = tour::plan_bc(d, config);
  for (const charging::ChargingModel& model : corpus_models()) {
    std::vector<double> times =
        schedule_stop_times(d, plan, model, SchedulePolicy::kIsolated);
    times[0] = -1.0;  // non-positive times radiate nothing
    const auto actual = received_energy_j(d, plan, model, times);
    const auto expected = received_energy_reference(d, plan, model, times);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t j = 0; j < actual.size(); ++j) {
      ASSERT_TRUE(same_bits(actual[j], expected[j])) << "sensor " << j;
    }
  }
}

TEST(MinDemandFractionTest, CumulativeScheduleIsBitIdenticalToTheReference) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    support::Rng rng(seed);
    net::FieldSpec spec;
    const net::Deployment d = with_spread_demands(
        net::uniform_random_deployment(150, spec, rng), 1.0, seed);
    tour::PlannerConfig config;
    config.bundle_radius = 70.0;
    const auto plan = tour::plan_bc(d, config);
    for (const charging::ChargingModel& model : corpus_models()) {
      const auto actual =
          schedule_stop_times(d, plan, model, SchedulePolicy::kCumulative);
      const auto expected = cumulative_times_reference(d, plan, model);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        ASSERT_TRUE(same_bits(actual[i], expected[i]))
            << "seed " << seed << " stop " << i;
      }
    }
  }
}

TEST(MinDemandFractionTest, SingleSensor) {
  const net::Deployment d({{40.0, 30.0}}, Box2{{0.0, 0.0}, {100.0, 100.0}},
                          {0.0, 0.0}, 2.0);
  tour::ChargingPlan plan;
  plan.depot = d.depot();
  plan.stops = {tour::Stop{{10.0, 10.0}, {0}}};
  for (const charging::ChargingModel& model : corpus_models()) {
    EXPECT_EQ(expect_same_min(d, plan, model, {123.0}, "single sensor"), 1u);
  }
}

TEST(MinDemandFractionTest, CoincidentSensorsAndStops) {
  // Sensors stacked on the stops and on each other: every ring distance
  // is 0 and every cell box is a point.
  std::vector<Point2> positions;
  for (int k = 0; k < 40; ++k) positions.push_back({200.0, 200.0});
  for (int k = 0; k < 40; ++k) positions.push_back({700.0, 300.0});
  const net::Deployment d(positions, Box2{{0.0, 0.0}, {1000.0, 1000.0}},
                          {0.0, 0.0}, 2.0);
  tour::ChargingPlan plan;
  plan.depot = d.depot();
  for (int k = 0; k < 20; ++k) {
    plan.stops.push_back(tour::Stop{positions[k % 2 == 0 ? 0 : 40], {}});
  }
  for (net::SensorId id = 0; id < 80; ++id) {
    plan.stops[id < 40 ? 0 : 1].members.push_back(id);
  }
  std::vector<double> times(plan.stops.size());
  for (std::size_t i = 0; i < times.size(); ++i) times[i] = 0.1 * (i + 1);
  for (const charging::ChargingModel& model : corpus_models()) {
    expect_same_min(d, plan, model, times, "coincident");
  }
}

TEST(MinDemandFractionTest, CollinearField) {
  // Sensors and stops on one horizontal line: the bounding box has zero
  // height, so the grid must fall back to cells along the line.
  std::vector<Point2> positions;
  for (int k = 0; k < 500; ++k) positions.push_back({4.0 * k + 1.0, 50.0});
  const net::Deployment d(positions, Box2{{0.0, 0.0}, {2100.0, 100.0}},
                          {0.0, 0.0}, 2.0);
  tour::PlannerConfig config;
  config.bundle_radius = 20.0;
  const auto plan = tour::plan_bc(d, config);
  expect_same_on_every_schedule(d, plan, "collinear");
}

TEST(MinDemandFractionTest, ClampActiveModel) {
  // alpha > beta^2: received power is clamped to the radiated power for
  // d < sqrt(alpha) - beta, so near terms saturate.
  const charging::ChargingModel model(/*alpha=*/400.0, /*beta=*/2.0, 3.0,
                                      3.0);
  support::Rng rng(8);
  net::FieldSpec spec;
  const net::Deployment d = net::uniform_random_deployment(400, spec, rng);
  tour::PlannerConfig config;
  config.bundle_radius = 25.0;
  const auto plan = tour::plan_bc(d, config);
  for (const SchedulePolicy policy :
       {SchedulePolicy::kIsolated, SchedulePolicy::kCumulative}) {
    expect_same_min(d, plan, model,
                    schedule_stop_times(d, plan, model, policy),
                    "clamp-active");
  }
}

TEST(MinDemandFractionTest, ZeroAndScaledTimes) {
  support::Rng rng(9);
  net::FieldSpec spec;
  const net::Deployment d = net::uniform_random_deployment(300, spec, rng);
  tour::PlannerConfig config;
  config.bundle_radius = 40.0;
  const auto plan = tour::plan_bc(d, config);
  const auto model = charging::ChargingModel::icdcs2019_simulation();
  const std::vector<double> zeros(plan.stops.size(), 0.0);
  expect_same_min(d, plan, model, zeros, "all zero");
  EXPECT_EQ(min_demand_fraction(d, plan, model, zeros), 0.0);
  const auto times =
      schedule_stop_times(d, plan, model, SchedulePolicy::kIsolated);
  for (const double scale : {1e-300, 1e-9, 0.5, 0.999, 3.0, 1e30, 1e300}) {
    std::vector<double> scaled = times;
    for (double& t : scaled) t *= scale * rng.uniform(0.5, 1.5);
    expect_same_min(d, plan, model, scaled,
                    "scaled by " + std::to_string(scale));
  }
}

TEST(MinDemandFractionTest, SensorsOutsideTheStopsBoundingBox) {
  // All stops sit in one corner; most sensors are far outside their box
  // and clamp into its border cells.
  support::Rng rng(10);
  net::FieldSpec spec;
  spec.field = Box2{{0.0, 0.0}, {5000.0, 5000.0}};
  const net::Deployment d = net::uniform_random_deployment(600, spec, rng);
  tour::ChargingPlan plan;
  plan.depot = d.depot();
  for (int k = 0; k < 120; ++k) {
    plan.stops.push_back(
        tour::Stop{{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)}, {}});
  }
  for (net::SensorId id = 0; id < d.size(); ++id) {
    plan.stops[id % plan.stops.size()].members.push_back(id);
  }
  std::vector<double> times(plan.stops.size());
  for (double& t : times) t = rng.uniform(1.0, 1e4);
  for (const charging::ChargingModel& model : corpus_models()) {
    expect_same_min(d, plan, model, times, "outside the box");
  }
}

TEST(MinDemandFractionTest, CoordinatesOffsetByABillionMetres) {
  support::Rng rng(11);
  net::FieldSpec spec;
  spec.field = Box2{{1e9, 1e9}, {1e9 + 1500.0, 1e9 + 1500.0}};
  spec.depot = {1e9, 1e9};
  const net::Deployment d = net::uniform_random_deployment(450, spec, rng);
  tour::PlannerConfig config;
  config.bundle_radius = 60.0;
  const auto plan = tour::plan_bc(d, config);
  expect_same_on_every_schedule(d, plan, "offset 1e9");
}

TEST(MinDemandFractionTest, DemandsSpanningEightOrdersOfMagnitude) {
  support::Rng rng(12);
  net::FieldSpec spec;
  const net::Deployment d = with_spread_demands(
      net::uniform_random_deployment(500, spec, rng), 8.0, 12);
  tour::PlannerConfig config;
  config.bundle_radius = 50.0;
  const auto plan = tour::plan_bc(d, config);
  expect_same_on_every_schedule(d, plan, "demands over 1e8");
}

TEST(MinDemandFractionTest, OptimalLpSchedule) {
  // Many constraints bind at 1, so the bound rules out few sensors; the
  // result must still be the reference minimum.
  support::Rng rng(13);
  net::FieldSpec spec;
  const net::Deployment d = net::uniform_random_deployment(60, spec, rng);
  tour::PlannerConfig config;
  config.bundle_radius = 60.0;
  const auto plan = tour::plan_bc(d, config);
  const auto model = charging::ChargingModel::icdcs2019_simulation();
  expect_same_min(d, plan, model,
                  schedule_stop_times(d, plan, model,
                                      SchedulePolicy::kOptimalLp),
                  "optimal lp");
}

TEST(MinDemandFractionTest, BoundRulesOutMostSensorsOnPaperFields) {
  // The point of the bound: at paper density a feasible plan needs only
  // a handful of exact sums.
  support::Rng rng(14);
  net::FieldSpec spec;
  spec.field = Box2{{0.0, 0.0}, {3000.0, 3000.0}};
  const net::Deployment d = net::uniform_random_deployment(1800, spec, rng);
  tour::PlannerConfig config;
  config.bundle_radius = 60.0;
  const auto plan = tour::plan_bc(d, config);
  const auto model = charging::ChargingModel::icdcs2019_simulation();
  const std::uint64_t sums = expect_same_min(
      d, plan, model,
      schedule_stop_times(d, plan, model, SchedulePolicy::kIsolated),
      "paper density");
  EXPECT_LE(sums, d.size() / 100);
}

TEST(MinDemandFractionTest, MismatchedTimesVectorRejected) {
  const net::Deployment d({{10.0, 0.0}}, Box2{{0.0, 0.0}, {50.0, 50.0}},
                          {0.0, 0.0}, 2.0);
  tour::ChargingPlan plan;
  plan.stops = {tour::Stop{{10.0, 0.0}, {0}}};
  const auto model = charging::ChargingModel::icdcs2019_simulation();
  EXPECT_THROW(min_demand_fraction(d, plan, model, {1.0, 2.0}),
               support::PreconditionError);
}

}  // namespace
}  // namespace bc::sim
