// Contract tests for tsp::DistanceTable: entries are the metric's own
// answers bit for bit, the storage mode never changes a tour, and a solve
// asks the metric once per unordered pair at most.

#include "tsp/distance_table.h"

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "net/metric.h"
#include "support/rng.h"
#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/solver.h"

namespace bc::tsp {
namespace {

using geometry::Point2;
using Storage = DistanceTable::Storage;

std::vector<Point2> random_points(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  return pts;
}

// A 9 x 9 4-connected grid over [0, 1000]^2 with short horizontal walls
// in some cells, so many sight lines are blocked and routed.
net::GraphMetric walled_metric() {
  constexpr std::uint32_t kPerSide = 9;
  const double step = 1000.0 / (kPerSide - 1);
  net::WaypointGraph graph;
  for (std::uint32_t row = 0; row < kPerSide; ++row) {
    for (std::uint32_t col = 0; col < kPerSide; ++col) {
      graph.nodes.push_back({col * step, row * step});
      const std::uint32_t at = row * kPerSide + col;
      if (col + 1 < kPerSide) graph.edges.push_back({at, at + 1, step});
      if (row + 1 < kPerSide) graph.edges.push_back({at, at + kPerSide, step});
    }
  }
  for (std::uint32_t w = 0; w < 12; ++w) {
    const double cx = (w % 7 + 0.5) * step;
    const double cy = ((3 * w) % 7 + 0.5) * step;
    graph.obstacles.push_back({{cx - 0.3 * step, cy}, {cx + 0.3 * step, cy}});
  }
  return net::GraphMetric(std::move(graph));
}

// Forwards to an inner metric and counts queries: one per distance() and
// one per target of distances_from().
class CountingMetric final : public net::MetricSpace {
 public:
  explicit CountingMetric(const net::MetricSpace* inner) : inner_(inner) {}
  std::string_view name() const override { return "counting"; }
  double distance(Point2 a, Point2 b) const override {
    ++queries_;
    return net::metric_distance(inner_, a, b);
  }
  void distances_from(Point2 a, std::span<const Point2> targets,
                      std::span<double> out) const override {
    queries_ += targets.size();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      out[i] = net::metric_distance(inner_, a, targets[i]);
    }
  }
  std::uint64_t queries() const { return queries_; }

 private:
  const net::MetricSpace* inner_;
  mutable std::uint64_t queries_ = 0;
};

void expect_entries_match(const std::vector<Point2>& pts,
                          const net::MetricSpace* metric) {
  for (const Storage storage : {Storage::kDense, Storage::kOnDemand}) {
    const DistanceTable table(pts, metric, storage);
    ASSERT_EQ(table.storage(), storage);
    ASSERT_EQ(table.size(), pts.size());
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      for (std::uint32_t j = 0; j < pts.size(); ++j) {
        const double expected = net::metric_distance(metric, pts[i], pts[j]);
        // EXPECT_EQ on doubles is exact (==), and +0.0 vs -0.0 would
        // compare equal, so the bit patterns are compared too.
        ASSERT_EQ(table(i, j), expected) << i << "," << j;
        ASSERT_EQ(std::signbit(table(i, j)), std::signbit(expected));
      }
    }
  }
}

TEST(DistanceTableTest, EuclideanEntriesAreBitEqualToTheMetric) {
  std::vector<Point2> pts = random_points(120, 5);
  pts.push_back(pts[7]);  // a coincident pair
  expect_entries_match(pts, nullptr);
  expect_entries_match(pts, &net::EuclideanMetric::instance());
}

TEST(DistanceTableTest, GraphEntriesAreBitEqualToTheMetric) {
  const net::GraphMetric metric = walled_metric();
  std::vector<Point2> pts = random_points(90, 6);
  pts.push_back(pts[3]);
  std::size_t blocked = 0;
  for (std::size_t j = 1; j < pts.size(); ++j) {
    if (!metric.line_of_sight(pts[0], pts[j])) ++blocked;
  }
  ASSERT_GT(blocked, 0u) << "the walls must route some legs";
  expect_entries_match(pts, &metric);
}

TEST(DistanceTableTest, StorageFollowsThePointCount) {
  const std::vector<Point2> pts = random_points(kDenseTableLimit + 1, 8);
  const std::span<const Point2> all(pts);
  EXPECT_EQ(DistanceTable(all.first(kDenseTableLimit), nullptr).storage(),
            Storage::kDense);
  EXPECT_EQ(DistanceTable(all, nullptr).storage(), Storage::kOnDemand);
  EXPECT_EQ(DistanceTable(all.first(0), nullptr).size(), 0u);
}

// The improve_test differential corpus.
struct Corpus {
  std::size_t n;
  std::uint64_t seeds[8];
};
constexpr Corpus kCorpus[] = {
    {40, {1, 30, 15, 9, 26, 35, 33, 8}},
    {90, {15, 17, 6, 31, 22, 27, 35, 12}},
    {160, {25, 32, 1, 24, 9, 33, 31, 6}},
    {40, {10, 20, 5, 8, 4, 13, 7, 19}},
    {90, {21, 33, 38, 31, 35, 0, 34, 28}},
    {160, {0, 1, 2, 3, 4, 5, 6, 7}},
};

// The walled runs stay at n = 40, and full solves run on two seeds per
// size: an on-demand table computes every lookup again, which is what
// made these solves slow.
TEST(DistanceTableTest, StorageModeNeverChangesATour) {
  const net::GraphMetric walled = walled_metric();
  for (const net::MetricSpace* metric :
       {static_cast<const net::MetricSpace*>(nullptr),
        static_cast<const net::MetricSpace*>(&walled)}) {
    for (const Corpus& c : kCorpus) {
      if (metric != nullptr && c.n > 40) continue;
      for (const std::uint64_t seed : c.seeds) {
        const auto pts = random_points(c.n, 4000 + 17 * c.n + seed);
        const DistanceTable dense(pts, metric, Storage::kDense);
        const DistanceTable lazy(pts, metric, Storage::kOnDemand);
        const Tour start = nearest_neighbor_tour(dense, 0);
        ASSERT_EQ(start, nearest_neighbor_tour(lazy, 0));

        Tour dense_tour = start;
        Tour lazy_tour = start;
        EXPECT_EQ(two_opt(dense, dense_tour), two_opt(lazy, lazy_tour));
        EXPECT_EQ(dense_tour, lazy_tour) << "2-opt n=" << c.n;

        dense_tour = start;
        lazy_tour = start;
        EXPECT_EQ(or_opt(dense, dense_tour), or_opt(lazy, lazy_tour));
        EXPECT_EQ(dense_tour, lazy_tour) << "Or-opt n=" << c.n;

        if (seed != c.seeds[0] && seed != c.seeds[1]) continue;
        EXPECT_EQ(solve_tsp(dense), solve_tsp(lazy)) << "solve n=" << c.n;
      }
    }
  }
}

TEST(DistanceTableTest, TableFormsMatchThePointForms) {
  const net::GraphMetric walled = walled_metric();
  const auto pts = random_points(70, 12);
  ImproveOptions options;
  options.metric = &walled;
  SolverOptions solver;
  solver.improve = options;
  const DistanceTable table(pts, &walled);
  EXPECT_EQ(solve_tsp(pts, solver), solve_tsp(table, solver));
  const Tour start = nearest_neighbor_tour(pts, 0, &walled);
  ASSERT_EQ(start, nearest_neighbor_tour(table, 0));
  Tour from_points = start;
  Tour from_table = start;
  improve_tour(pts, from_points, options);
  improve_tour(table, from_table, options);
  EXPECT_EQ(from_points, from_table);
  EXPECT_EQ(tour_length(pts, from_points, &walled),
            tour_length(table, from_table));
}

TEST(DistanceTableTest, ASolveQueriesEachPairAtMostOnce) {
  const net::GraphMetric walled = walled_metric();
  for (const net::MetricSpace* inner :
       {static_cast<const net::MetricSpace*>(nullptr),
        static_cast<const net::MetricSpace*>(&walled)}) {
    for (const std::size_t n : {5u, 11u, 60u, 200u}) {
      const auto pts = random_points(n, 900 + n);
      const CountingMetric counting(inner);
      SolverOptions options;
      options.improve.metric = &counting;
      const Tour tour = solve_tsp(pts, options);
      ASSERT_TRUE(is_valid_tour(tour, n));
      EXPECT_LE(counting.queries(), n * (n - 1) / 2) << "n=" << n;
      EXPECT_GT(counting.queries(), 0u) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace bc::tsp
