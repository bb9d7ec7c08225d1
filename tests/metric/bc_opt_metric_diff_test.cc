// Algorithm 3's radius pruning under movement metrics (`ctest -L metric`).
// The pruning trusts MetricSpace::min_chord_ratio(), the promise that
// distance(a, b) >= ratio * |a - b|, so this suite pins the promise
// itself (null and Euclidean 1, default 0, GraphMetric from its lightest
// edge, and sampled queries that never break it) and diffs plan_bc_opt
// against the unpruned sweep in tests/oracles/bc_opt_reference bit for
// bit: in the benchmark's walled world, in the same world with every edge
// at half its chord (ratio 0.5, weaker pruning), node-capped, and behind
// a metric that promises nothing, where no search may be skipped.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "core/profiles.h"
#include "fixtures/bc_opt_diff.h"
#include "fixtures/paper_world.h"
#include "net/metric.h"
#include "support/deadline.h"
#include "support/rng.h"
#include "tour/planner.h"

namespace bc::tour {
namespace {

using fixtures::expect_matches_reference;
using fixtures::field_side_m;
using fixtures::obstacle_world;
using fixtures::paper_deployment;
using fixtures::run_label;
using geometry::Point2;

// The walled world with every edge at half its chord.
net::WaypointGraph half_weight_world(double side_m) {
  net::WaypointGraph graph = obstacle_world(side_m);
  for (net::GraphEdge& edge : graph.edges) edge.weight *= 0.5;
  return graph;
}

// Forwards every query and makes no promise (the default ratio 0).
class UnpromisingMetric final : public net::MetricSpace {
 public:
  explicit UnpromisingMetric(std::shared_ptr<const net::MetricSpace> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return "unpromising"; }
  double distance(Point2 a, Point2 b) const override {
    return inner_->distance(a, b);
  }

 private:
  std::shared_ptr<const net::MetricSpace> inner_;
};

PlannerConfig walled_config(double radius, net::WaypointGraph graph) {
  PlannerConfig config = core::icdcs2019_simulation_profile().planner;
  config.bundle_radius = radius;
  config.metric = std::make_shared<const net::GraphMetric>(std::move(graph));
  return config;
}

TEST(MinChordRatioTest, NullAndEuclideanPromiseOneDefaultNothing) {
  EXPECT_EQ(net::metric_chord_ratio(nullptr), 1.0);
  EXPECT_EQ(net::EuclideanMetric::instance().min_chord_ratio(), 1.0);
  const UnpromisingMetric unpromising(
      std::make_shared<const net::GraphMetric>(obstacle_world(100.0)));
  EXPECT_EQ(unpromising.min_chord_ratio(), 0.0);
  EXPECT_EQ(net::metric_chord_ratio(&unpromising), 0.0);
}

TEST(MinChordRatioTest, GraphRatioIsItsLightestEdgeLessRounding) {
  // Grid edges weigh `step` and their chords round to within an ulp of
  // it, so the walled world promises 1 up to the rounding allowance.
  const double side = field_side_m(200);
  const double walled =
      net::GraphMetric(obstacle_world(side)).min_chord_ratio();
  EXPECT_LE(walled, 1.0);
  EXPECT_GT(walled, 1.0 - 1e-12);
  const double half =
      net::GraphMetric(half_weight_world(side)).min_chord_ratio();
  EXPECT_LE(half, 0.5);
  EXPECT_GT(half, 0.5 * (1.0 - 1e-12));
  // Edges heavier than their chords do not raise the promise above 1.
  net::WaypointGraph heavy = obstacle_world(side);
  for (net::GraphEdge& edge : heavy.edges) edge.weight *= 3.0;
  EXPECT_LE(net::GraphMetric(std::move(heavy)).min_chord_ratio(), 1.0);
}

TEST(MinChordRatioTest, PromiseHoldsOnSampledQueries) {
  // Blocked queries route through the grid; with half-weight edges their
  // distance falls well below the chord, and must stay above the promise.
  const double side = field_side_m(200);
  for (const bool halved : {false, true}) {
    const net::GraphMetric metric(halved ? half_weight_world(side)
                                         : obstacle_world(side));
    const double ratio = metric.min_chord_ratio();
    support::Rng rng(halved ? 77 : 78);
    double tightest = 2.0;
    std::size_t blocked = 0;
    for (int trial = 0; trial < 3000; ++trial) {
      // Every third pair is short: stop-to-neighbour scale.
      const Point2 a{rng.uniform(0.0, side), rng.uniform(0.0, side)};
      const double reach = trial % 3 == 0 ? 60.0 : side;
      const Point2 b{a.x + rng.uniform(-reach, reach),
                     a.y + rng.uniform(-reach, reach)};
      const double chord = geometry::distance(a, b);
      const double driven = metric.distance(a, b);
      ASSERT_GE(driven, ratio * chord) << "halved=" << halved << " a=" << a
                                       << " b=" << b;
      if (!metric.line_of_sight(a, b)) ++blocked;
      if (chord > 0.0) tightest = std::min(tightest, driven / chord);
    }
    EXPECT_GT(blocked, 100u) << "halved=" << halved;
    if (halved) {
      EXPECT_LT(tightest, 0.75);
    }
  }
}

TEST(BcOptMetricDiffTest, WalledWorldMatchesTheUnprunedSweep) {
  for (const std::size_t n : {60u, 200u}) {
    for (const std::uint64_t seed : {11u, 51u}) {
      const net::Deployment d = paper_deployment(n, seed);
      for (const double r : {30.0, 60.0}) {
        const PlannerConfig config =
            walled_config(r, obstacle_world(field_side_m(n)));
        const std::string label = "walled " + run_label(n, seed, r);
        const auto counts = expect_matches_reference(d, config, label);
        EXPECT_GT(counts.radii_pruned, 0u);
      }
    }
  }
}

TEST(BcOptMetricDiffTest, HalfWeightEdgesPruneLessAndMatch) {
  const std::size_t n = 200;
  for (const std::uint64_t seed : {11u, 52u}) {
    const net::Deployment d = paper_deployment(n, seed);
    const std::string label = "seed=" + std::to_string(seed);
    const PlannerConfig walled =
        walled_config(60.0, obstacle_world(field_side_m(n)));
    const PlannerConfig halved =
        walled_config(60.0, half_weight_world(field_side_m(n)));
    const auto full = expect_matches_reference(d, walled, "walled " + label);
    const auto half = expect_matches_reference(d, halved, "halved " + label);
    EXPECT_LT(half.radii_pruned * full.radii, full.radii_pruned * half.radii)
        << label << ": ratio 0.5 should prune a smaller share of radii";
  }
}

TEST(BcOptMetricDiffTest, NodeCappedWalledPlansMatch) {
  const std::size_t n = 200;
  const net::Deployment d = paper_deployment(n, 11);
  const PlannerConfig base =
      walled_config(60.0, obstacle_world(field_side_m(n)));
  support::BudgetMeter bc_units;
  plan_bc(d, base, &bc_units);
  support::BudgetMeter total_units;
  plan_bc_opt_reference(d, base, &total_units);
  const std::size_t lo = bc_units.nodes_used();
  const std::size_t hi = total_units.nodes_used();
  ASSERT_GT(hi, lo + 20);
  for (std::size_t cap = lo; cap <= hi + 1; cap += 1 + (hi + 1 - lo) / 9) {
    PlannerConfig config = base;
    config.budget.node_cap = cap;
    expect_matches_reference(d, config, "walled cap=" + std::to_string(cap));
  }
}

TEST(BcOptMetricDiffTest, NoPromiseMeansNoPruning) {
  // Behind a metric that promises nothing every radius runs its search:
  // the anchor searches equal the unpruned sweep's one for one.
  for (const std::size_t n : {60u, 200u}) {
    const net::Deployment d = paper_deployment(n, 53);
    PlannerConfig config = core::icdcs2019_simulation_profile().planner;
    config.bundle_radius = 60.0;
    config.metric = std::make_shared<const UnpromisingMetric>(
        std::make_shared<const net::GraphMetric>(
            obstacle_world(field_side_m(n))));
    const std::string label = "unpromising n=" + std::to_string(n);
    const auto counts = expect_matches_reference(d, config, label);
    EXPECT_EQ(counts.radii_pruned, 0u);
    EXPECT_EQ(counts.anchor_calls, counts.reference_anchor_calls);
    EXPECT_GT(counts.anchor_calls, 0u);
  }
}

}  // namespace
}  // namespace bc::tour
