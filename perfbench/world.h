// Seeded inputs for the benchmark: paper-density deployments, the
// obstacle world, and a counting wrapper around a movement metric.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/deployment.h"
#include "net/metric.h"
#include "sim/evaluate.h"
#include "tour/plan.h"

namespace perfbench {

// Seconds on the steady clock; every timing in the benchmark uses it.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Independent random streams derived from the workload seed, so that
// deployment i of a seed is the same whatever else the run did.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

// The ICDCS'19 field at the paper's density of 200 sensors per km^2:
// a square of side 1000 m * sqrt(n / 200), depot at the origin.
double paper_side_m(std::size_t n);
bc::net::Deployment paper_deployment(std::size_t n, std::uint64_t rng_seed);

// The obstacle world over a square field: a 25 x 25 waypoint grid,
// 4-connected, with 40 horizontal walls 0.6 cell long centred in the cells
// (1 + w % 23, 1 + 7w % 23). Walls never cross a grid edge.
bc::net::WaypointGraph obstacle_world(double side_m);

// Number of walls that block the sight line between the two points just
// above and just below their midpoint: the guard that the world really
// has obstacles in it.
std::size_t blocking_walls(const bc::net::GraphMetric& metric);

// Forwards every query to an inner metric and counts it. Busy time is
// estimated from a random one in kSampleEvery calls, each timed, less the
// cost of reading the clock, and weighted by kSampleEvery: timing every
// call would add two clock reads to a sub-microsecond query and inflate
// what it measures. Random rather than every k-th call, since the TSP
// stack queries in fixed patterns. Used in traced runs only. Queries: one
// per distance() and path(), one per target of distances_from().
class CountingMetric final : public bc::net::MetricSpace {
 public:
  explicit CountingMetric(const bc::net::MetricSpace& inner);

  std::string_view name() const override { return inner_.name(); }
  double distance(bc::geometry::Point2 a,
                  bc::geometry::Point2 b) const override;
  void path(bc::geometry::Point2 a, bc::geometry::Point2 b,
            std::vector<bc::geometry::Point2>& out) const override;
  void distances_from(bc::geometry::Point2 a,
                      std::span<const bc::geometry::Point2> targets,
                      std::span<double> out) const override;

  static constexpr std::uint64_t kSampleEvery = 8;

  std::uint64_t queries() const { return queries_; }
  double busy_s() const { return 1e-9 * static_cast<double>(sampled_ns_) *
                                 static_cast<double>(kSampleEvery); }

 private:
  // True for the calls that get timed (xorshift, fixed seed).
  bool sample() const;
  void add_sample(std::chrono::steady_clock::time_point t0) const;

  const bc::net::MetricSpace& inner_;
  // Planning runs on one thread (BC_THREADS=1), so plain counters suffice.
  std::int64_t clock_ns_ = 0;  // median cost of an empty timed interval
  mutable std::uint64_t queries_ = 0;
  mutable std::int64_t sampled_ns_ = 0;
  mutable std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

// Stable 64-bit hash of a plan (algorithm, depot, stop order, positions
// and members, all by bit pattern): the per-seed digest that shows when a
// change moves plans.
std::uint64_t plan_hash(const bc::tour::ChargingPlan& plan);

// Empty when `plan` is a valid answer for `deployment`: a partition of its
// sensors over stops at finite positions, with every sensor's demand met
// (min_demand_fraction >= 1 - 1e-6) and a finite energy. Otherwise the
// reason it is not.
std::string plan_problem(const bc::net::Deployment& deployment,
                         const bc::tour::ChargingPlan& plan,
                         const bc::sim::PlanMetrics& metrics);

// C99 hexfloat rendering (bit-exact).
std::string hexfloat(double value);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
