// Property tests for the hierarchical sharded solver (bundle/shard.h):
// the output must cover every sensor exactly once within the radius, be
// bit-identical at every BC_THREADS, be stable across shard-size choices,
// and degenerate to the monolithic greedy solver (the oracle) whenever the
// grid collapses to a single tile.

#include "bundle/shard.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "bundle/greedy_cover.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tour/planner.h"

namespace bc::bundle {
namespace {

using geometry::Box2;

net::Deployment random_deployment(std::size_t n, std::uint64_t seed,
                                  double side = 100.0) {
  support::Rng rng(seed);
  net::FieldSpec spec;
  spec.field = Box2{{0.0, 0.0}, {side, side}};
  return net::uniform_random_deployment(n, spec, rng);
}

// Exact textual signature of a bundle list: anchors at full double
// precision plus the member ids. Two lists compare equal iff they are
// bit-identical.
std::string signature(const std::vector<Bundle>& bundles) {
  std::string out;
  // Three %.17g values of up to 24 characters each (as in
  // "-1.2345678901234567e-308"), "(,,)" and the terminator.
  char buf[3 * 24 + 4 + 1];
  for (const Bundle& b : bundles) {
    std::snprintf(buf, sizeof(buf), "(%.17g,%.17g,%.17g)", b.anchor.x,
                  b.anchor.y, b.radius);
    out += buf;
    for (const net::SensorId id : b.members) {
      out += ' ';
      out += std::to_string(id);
    }
    out += '\n';
  }
  return out;
}

std::string signature(const tour::ChargingPlan& plan) {
  std::string out = plan.algorithm;
  char buf[64];
  for (const tour::Stop& s : plan.stops) {
    std::snprintf(buf, sizeof(buf), "(%.17g,%.17g)", s.position.x,
                  s.position.y);
    out += buf;
    for (const net::SensorId id : s.members) {
      out += ' ';
      out += std::to_string(id);
    }
    out += '\n';
  }
  return out;
}

class ThreadGuard {
 public:
  ~ThreadGuard() { support::set_thread_count(1); }
};

TEST(ShardGridTest, PartitionsSensorsDeterministically) {
  const net::Deployment d = random_deployment(200, 1, 1000.0);
  ShardOptions options;
  options.target_shard_sensors = 16;
  const ShardGrid grid = build_shard_grid(d, 60.0, options);
  ASSERT_GE(grid.tiles(), 2u);
  std::vector<int> seen(d.size(), 0);
  for (const auto& tile : grid.tile_members) {
    for (const net::SensorId id : tile) {
      ASSERT_LT(id, d.size());
      ++seen[id];
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);

  const ShardGrid again = build_shard_grid(d, 60.0, options);
  EXPECT_EQ(again.cols, grid.cols);
  EXPECT_EQ(again.rows, grid.rows);
  EXPECT_EQ(again.tile_members, grid.tile_members);
}

TEST(ShardGridTest, TilesNeverThinnerThanMinFactorTimesRadius) {
  const net::Deployment d = random_deployment(400, 2, 1000.0);
  ShardOptions options;
  options.target_shard_sensors = 4;  // pressure toward tiny tiles
  const double r = 60.0;
  const ShardGrid grid = build_shard_grid(d, r, options);
  EXPECT_GE(grid.tile_w, options.min_tile_factor * r - 1e-9);
  EXPECT_GE(grid.tile_h, options.min_tile_factor * r - 1e-9);
}

TEST(ShardSolveTest, SingleTileMatchesMonolithicOracleExactly) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const net::Deployment d = random_deployment(60, seed);
    for (const double r : {5.0, 15.0, 40.0}) {
      ShardOptions options;  // target 512 >> 60 sensors: one tile
      const auto sharded = sharded_bundles(d, r, options);
      const auto oracle = greedy_bundles(d, r);
      ASSERT_EQ(signature(sharded), signature(oracle))
          << "seed=" << seed << " r=" << r;
    }
  }
}

TEST(ShardSolveTest, MultiTileOutputIsAPartitionWithinRadius) {
  for (const std::uint64_t seed : {4u, 5u}) {
    const net::Deployment d = random_deployment(300, seed, 1000.0);
    for (const double r : {30.0, 60.0}) {
      ShardOptions options;
      options.target_shard_sensors = 24;
      const ShardGrid grid = build_shard_grid(d, r, options);
      ASSERT_GE(grid.tiles(), 4u) << "test needs a genuinely multi-tile grid";
      const auto bundles = sharded_bundles(d, r, options);
      ASSERT_TRUE(is_partition(d, bundles)) << "seed=" << seed << " r=" << r;
      ASSERT_LE(max_charging_distance(d, bundles), r + 1e-6);
    }
  }
}

TEST(ShardSolveTest, StitchingNeverIncreasesBundleCount) {
  const net::Deployment d = random_deployment(300, 6, 1000.0);
  const double r = 60.0;
  ShardOptions stitched;
  stitched.target_shard_sensors = 24;
  ShardOptions unstitched = stitched;
  unstitched.stitch = false;
  const auto with = sharded_bundles(d, r, stitched);
  const auto without = sharded_bundles(d, r, unstitched);
  EXPECT_LE(with.size(), without.size());
  ASSERT_TRUE(is_partition(d, with));
  ASSERT_TRUE(is_partition(d, without));
}

TEST(ShardSolveTest, BitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const net::Deployment d = random_deployment(300, 7, 1000.0);
  ShardOptions options;
  options.target_shard_sensors = 24;
  support::set_thread_count(1);
  const std::string base = signature(sharded_bundles(d, 60.0, options));
  for (const std::size_t threads : {2u, 8u}) {
    support::set_thread_count(threads);
    ASSERT_EQ(signature(sharded_bundles(d, 60.0, options)), base)
        << "threads=" << threads;
  }
}

TEST(ShardSolveTest, SmallInstanceStableAcrossShardSizes) {
  // On an instance the monolithic solver can own, every target shard size
  // that still yields one tile must reproduce the oracle bit for bit; and
  // genuinely multi-tile splits must still cover within the radius.
  const net::Deployment d = random_deployment(80, 8);
  const double r = 12.0;
  const auto oracle = greedy_bundles(d, r);
  for (const std::size_t target : {64u, 256u, 1024u}) {
    ShardOptions options;
    options.target_shard_sensors = target;
    const ShardGrid grid = build_shard_grid(d, r, options);
    const auto bundles = sharded_bundles(d, r, options);
    ASSERT_TRUE(is_partition(d, bundles)) << "target=" << target;
    ASSERT_LE(max_charging_distance(d, bundles), r + 1e-6);
    if (grid.tiles() == 1) {
      ASSERT_EQ(signature(bundles), signature(oracle)) << "target=" << target;
    }
  }
}

TEST(ShardPlannerTest, SingleTilePlanMatchesBcPlanExactly) {
  const net::Deployment d = random_deployment(60, 9);
  tour::PlannerConfig config;
  config.bundle_radius = 15.0;
  const auto bc = tour::plan_charging_tour(d, tour::Algorithm::kBc, config);
  const auto sharded =
      tour::plan_charging_tour(d, tour::Algorithm::kBcSharded, config);
  EXPECT_EQ(sharded.algorithm, "BC-SHARD");
  // Identical stops in identical order; only the algorithm label differs.
  ASSERT_EQ(sharded.stops.size(), bc.stops.size());
  tour::ChargingPlan relabelled = sharded;
  relabelled.algorithm = bc.algorithm;
  EXPECT_EQ(signature(relabelled), signature(bc));
}

TEST(ShardPlannerTest, SnakePathCoversAllSensorsAndIsThreadInvariant) {
  ThreadGuard guard;
  const net::Deployment d = random_deployment(300, 10, 1000.0);
  tour::PlannerConfig config;
  config.bundle_radius = 60.0;
  config.shard.target_shard_sensors = 24;
  config.shard_tsp_cutover = 0;  // force the snake ordering path
  support::set_thread_count(1);
  const auto plan =
      tour::plan_charging_tour(d, tour::Algorithm::kBcSharded, config);
  std::vector<int> seen(d.size(), 0);
  for (const tour::Stop& s : plan.stops) {
    for (const net::SensorId id : s.members) ++seen[id];
  }
  for (const int count : seen) ASSERT_EQ(count, 1);

  const std::string base = signature(plan);
  for (const std::size_t threads : {2u, 8u}) {
    support::set_thread_count(threads);
    ASSERT_EQ(
        signature(tour::plan_charging_tour(d, tour::Algorithm::kBcSharded,
                                           config)),
        base)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace bc::bundle
