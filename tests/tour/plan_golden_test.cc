// Golden plan hashes (`ctest -L metric`, `ctest -L perf-diff`).
//
// Every planner's output on seeded paper-density deployments, in free
// space and in a walled waypoint world, is pinned by an FNV-1a hash over
// the bit patterns of its stop positions and its member ids. The expected
// values were recorded before the TSP stack read distances from a
// per-solve table, so they pin that every speed-up of the tour and metric
// layers returns the same plans byte for byte. A hash that moves is a
// behaviour change: explain it, do not re-record it silently.
//
// The walled world is the benchmark's obstacle world: a 25 x 25
// 4-connected waypoint grid over the field with 40 horizontal walls, 0.6
// cell long, centred in cells (1 + w % 23, 1 + 7w % 23). SC and CSS stay
// at n = 60 there, since the walled n = 200 plans took seconds each.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <iterator>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "core/profiles.h"
#include "fixtures/paper_world.h"
#include "net/deployment.h"
#include "net/metric.h"
#include "tour/planner.h"

namespace bc::tour {
namespace {

constexpr double kRadiusM = 60.0;

using fixtures::field_side_m;
using fixtures::fnv;
using fixtures::obstacle_world;
using fixtures::paper_deployment;

// FNV-1a over each stop's position bits, member count and member ids.
std::uint64_t plan_hash(const ChargingPlan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Stop& stop : plan.stops) {
    fnv(h, &stop.position.x, sizeof stop.position.x);
    fnv(h, &stop.position.y, sizeof stop.position.y);
    const std::uint64_t members = stop.members.size();
    fnv(h, &members, sizeof members);
    for (const net::SensorId id : stop.members) fnv(h, &id, sizeof id);
  }
  return h;
}

// One planner run: a seeded deployment, free space or walled, with an
// optional node cap and the exact-charging variant of Algorithm 3.
struct PlanRun {
  Algorithm algorithm;
  std::size_t n;
  std::uint64_t seed;
  bool walled;
  std::size_t node_cap = 0;  // 0 = unlimited
  bool exact_charging_eval = false;
};

std::string describe(const PlanRun& run) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer,
                "%s n=%zu seed=%llu %s node_cap=%zu exact_eval=%d",
                std::string(to_string(run.algorithm)).c_str(), run.n,
                static_cast<unsigned long long>(run.seed),
                run.walled ? "walled" : "euclid", run.node_cap,
                run.exact_charging_eval ? 1 : 0);
  return buffer;
}

void expect_hash(const PlanRun& run, std::uint64_t expected) {
  const net::Deployment deployment = paper_deployment(run.n, run.seed);
  PlannerConfig config = core::icdcs2019_simulation_profile().planner;
  config.bundle_radius = kRadiusM;
  config.budget.node_cap = run.node_cap;
  config.opt.exact_charging_eval = run.exact_charging_eval;
  if (run.walled) {
    config.metric = std::make_shared<const net::GraphMetric>(
        obstacle_world(field_side_m(run.n)));
  }
  const ChargingPlan plan =
      plan_charging_tour(deployment, run.algorithm, config);
  ASSERT_TRUE(plan_is_partition(deployment, plan)) << describe(run);
  const std::uint64_t actual = plan_hash(plan);
  char hex[24];
  std::snprintf(hex, sizeof hex, "0x%016llxULL",
                static_cast<unsigned long long>(actual));
  EXPECT_EQ(actual, expected) << describe(run) << " hashed " << hex;
}

constexpr Algorithm kPlanners[] = {Algorithm::kSc,   Algorithm::kCss,
                                   Algorithm::kBc,   Algorithm::kBcOpt,
                                   Algorithm::kTspn, Algorithm::kBcSharded};

// Expected hashes of one deployment, one per planner in kPlanners order;
// 0 = not run (walled SC and CSS at n = 200).
struct DeploymentRow {
  std::size_t n;
  std::uint64_t seed;
  bool walled;
  std::uint64_t hashes[6];
};

void expect_rows(std::span<const DeploymentRow> rows) {
  for (const DeploymentRow& row : rows) {
    for (std::size_t p = 0; p < std::size(kPlanners); ++p) {
      if (row.hashes[p] == 0) continue;
      expect_hash(PlanRun{kPlanners[p], row.n, row.seed, row.walled},
                  row.hashes[p]);
    }
  }
}

TEST(PlanGoldenTest, EuclideanPlansAreUnchanged) {
  constexpr DeploymentRow kRows[] = {
      {60, 21, false, {0xdb2e3d9cbad86a34ULL, 0x036d02e0aa64fc4eULL,
                       0xd9f7aed2596407b8ULL, 0x46058dc79633584eULL,
                       0xdd638cea91997aabULL, 0xd9f7aed2596407b8ULL}},
      {60, 22, false, {0xf43cf873b26b284eULL, 0xc565e7fc327160a2ULL,
                       0xecb48d6d27476635ULL, 0xbabc3a79bc4eab06ULL,
                       0x39b80c3ed46aaba7ULL, 0xecb48d6d27476635ULL}},
      {60, 23, false, {0x185b2194d1629e2bULL, 0x3343b53539ec4e63ULL,
                       0x85edb2b681029668ULL, 0xda914c1630e83feeULL,
                       0x396e44eb2466f789ULL, 0x85edb2b681029668ULL}},
      {200, 11, false, {0xa3e7da79cfcf7e87ULL, 0x44a9e9a0792d9af2ULL,
                        0x9963f3efcded14b2ULL, 0x75b372df5250c10aULL,
                        0x0faab2d35c9e4d7eULL, 0x9963f3efcded14b2ULL}},
      {200, 12, false, {0x7d1038f259205419ULL, 0x2ead0db99cce5859ULL,
                        0xb07b89a5eac0a0c2ULL, 0x6ce403de5c2bb0bbULL,
                        0x378b508b52c61791ULL, 0xb07b89a5eac0a0c2ULL}},
      {200, 13, false, {0x4b11c422a76ab1a8ULL, 0x5500f226caf9124aULL,
                        0x34977a74fba93a71ULL, 0xcddb2bebc0a9b750ULL,
                        0xf5789247f04efd37ULL, 0x34977a74fba93a71ULL}},
  };
  expect_rows(kRows);
}

TEST(PlanGoldenTest, WalledPlansAreUnchanged) {
  constexpr DeploymentRow kRows[] = {
      {60, 21, true, {0xdb2e3d9cbad86a34ULL, 0xec230fc66b02de23ULL,
                      0xd9f7aed2596407b8ULL, 0x0610e75a572bd990ULL,
                      0xdeb98f3ad76840eeULL, 0xd9f7aed2596407b8ULL}},
      {60, 22, true, {0x083581696977f65eULL, 0xc64da7dd1b8c19dfULL,
                      0xecb48d6d27476635ULL, 0x88534570a52c34dbULL,
                      0xbdbe8aaa95eb6b59ULL, 0xecb48d6d27476635ULL}},
      {60, 23, true, {0x2eb3e4827332e097ULL, 0xa7549049bc5208d4ULL,
                      0x85edb2b681029668ULL, 0x62af0c0e1ac0f78bULL,
                      0xf30d90237b0e15b0ULL, 0x85edb2b681029668ULL}},
      {200, 11, true, {0, 0, 0x9323b3def1e25f7eULL, 0xd6255078c02a6aa3ULL,
                       0x1ed43c416830e8b1ULL, 0x9323b3def1e25f7eULL}},
      {200, 12, true, {0, 0, 0x1e519620f3f991d6ULL, 0xed25128c029b60f9ULL,
                       0x4b39d0dd52669eb6ULL, 0x1e519620f3f991d6ULL}},
      {200, 13, true, {0, 0, 0x294d43688867f37dULL, 0x15e084ff507dc0b1ULL,
                       0xaeba2c63bc2ec6f6ULL, 0x294d43688867f37dULL}},
  };
  expect_rows(kRows);
}

// Node-capped BC-OPT plans. Bundling and the TSP solve spend about 11 650
// units on these deployments and Algorithm 3 about 300 more (one per stop
// visit), so the caps trip inside the tour solve and at stops spread over
// the relocation rounds.
TEST(PlanGoldenTest, NodeCappedBcOptPlansAreUnchanged) {
  struct Capped {
    bool walled;
    std::size_t node_cap;
    std::uint64_t hash;
  };
  constexpr Capped kCases[] = {
      {false, 11640, 0x9963f3efcded14b2ULL},
      {false, 11660, 0x643646bc0803f428ULL},
      {false, 11700, 0x26ccb96868087338ULL},
      {false, 11760, 0x74db504a24a01d9aULL},
      {false, 11850, 0xa8a874517de1060aULL},
      {false, 11930, 0x75b372df5250c10aULL},
      {true, 11645, 0x9323b3def1e25f7eULL},
      {true, 11660, 0x8588836faf9f6e17ULL},
      {true, 11700, 0x9e567b64118bb2a1ULL},
      {true, 11760, 0x1c38b9cce397c961ULL},
      {true, 11850, 0x02df5014801e7b09ULL},
      {true, 11930, 0xd6255078c02a6aa3ULL},
  };
  for (const Capped& c : kCases) {
    expect_hash(PlanRun{Algorithm::kBcOpt, 200, 11, c.walled, c.node_cap},
                c.hash);
  }
}

TEST(PlanGoldenTest, ExactChargingEvalPlansAreUnchanged) {
  expect_hash(PlanRun{Algorithm::kBcOpt, 200, 12, false, 0, true},
              0xdd7440f98e63d0aeULL);
  expect_hash(PlanRun{Algorithm::kBcOpt, 200, 12, true, 0, true},
              0xd71dccffa337bab3ULL);
}

// Above shard_tsp_cutover BC-SHARD tours its stops with the snake
// construction and uncertified 2-opt instead of the solver facade.
TEST(PlanGoldenTest, SnakeTourAboveTheCutoverIsUnchanged) {
  // 5000 sensors bundle into about 1350 stops.
  expect_hash(PlanRun{Algorithm::kBcSharded, 5000, 31, false},
              0x65e13475165f1148ULL);
}

}  // namespace
}  // namespace bc::tour
