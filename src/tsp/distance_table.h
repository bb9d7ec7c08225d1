// Pairwise movement distances over one point set: the only source of
// distances inside the TSP stack.
//
// A tour solve asks for the same pairs again and again: construction,
// Held-Karp, every 2-opt and Or-opt gain, the certification sweeps and
// the multi-start length comparisons. Under a graph metric each answer may
// snap both points to the road graph and route between them, so the
// solver facade and the public improvers build one table per solve and
// read every distance from it.
//
// Storage is chosen by point count. Up to kDenseTableLimit points the
// table is a dense n x n matrix of doubles (8 MiB at the limit), filled
// up front with one MetricSpace::distances_from call per row over the
// upper triangle and mirrored: n(n-1)/2 metric queries in all. Above the
// limit each lookup asks the metric again, which keeps the large-n paths
// (the snake tour over thousands of stops, sweep cover over every
// sensor) at their old memory and speed.
//
// Exactness: every entry equals net::metric_distance(metric, p_i, p_j)
// bit for bit, so tours read from a table are the tours the solver built
// when it queried the metric directly. Mirroring relies on the
// MetricSpace contract that distance is exactly symmetric and that
// distance(p, p) == +0.0, which both backends meet by construction:
// Euclidean legs are hypot of exactly negated differences, and
// GraphMetric tests sight lines in a canonical direction and sums
// (u.euclid + v.euclid) + through over rows taken from the lower node id.

#ifndef BUNDLECHARGE_TSP_DISTANCE_TABLE_H_
#define BUNDLECHARGE_TSP_DISTANCE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point.h"
#include "net/metric.h"

namespace bc::tsp {

// Largest point count a table stores densely (n^2 doubles: 8 MiB).
inline constexpr std::size_t kDenseTableLimit = 1024;

class DistanceTable {
 public:
  enum class Storage { kDense, kOnDemand };

  // Table over `points` (which must outlive it) under `metric`; a null
  // metric is Euclidean. Dense iff points.size() <= kDenseTableLimit.
  DistanceTable(std::span<const geometry::Point2> points,
                const net::MetricSpace* metric);
  // Explicit storage, for callers that need one mode whatever the size.
  DistanceTable(std::span<const geometry::Point2> points,
                const net::MetricSpace* metric, Storage storage);

  // Movement distance between points i and j.
  double operator()(std::uint32_t i, std::uint32_t j) const {
    if (storage_ == Storage::kDense) return dense_[i * points_.size() + j];
    return net::metric_distance(metric_, points_[i], points_[j]);
  }

  std::size_t size() const { return points_.size(); }
  std::span<const geometry::Point2> points() const { return points_; }
  const net::MetricSpace* metric() const { return metric_; }
  Storage storage() const { return storage_; }

 private:
  std::span<const geometry::Point2> points_;
  const net::MetricSpace* metric_ = nullptr;
  Storage storage_ = Storage::kOnDemand;
  std::vector<double> dense_;  // row-major n x n when storage_ is kDense
};

}  // namespace bc::tsp

#endif  // BUNDLECHARGE_TSP_DISTANCE_TABLE_H_
