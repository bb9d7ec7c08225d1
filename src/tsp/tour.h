// Closed-tour representation and measurement.
//
// A tour is a visiting order over a point set (indices into the caller's
// array); all planner tours are closed (the mobile charger returns to the
// depot). Validation and length live here so constructors and improvers
// can share them.

#ifndef BUNDLECHARGE_TSP_TOUR_H_
#define BUNDLECHARGE_TSP_TOUR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point.h"
#include "net/metric.h"
#include "tsp/distance_table.h"

namespace bc::tsp {

using Tour = std::vector<std::uint32_t>;

// True iff `order` is a permutation of 0..n-1.
bool is_valid_tour(std::span<const std::uint32_t> order, std::size_t n);

// Length of the closed tour (last point connects back to the first).
// Empty and single-point tours have length 0. A null metric measures
// Euclidean legs (the repo-wide convention, see net/metric.h).
double tour_length(std::span<const geometry::Point2> points,
                   std::span<const std::uint32_t> order,
                   const net::MetricSpace* metric = nullptr);
// The same sum with every leg read from a distance table.
double tour_length(const DistanceTable& table,
                   std::span<const std::uint32_t> order);

// Length of the open path in visiting order (no closing edge).
double path_length(std::span<const geometry::Point2> points,
                   std::span<const std::uint32_t> order,
                   const net::MetricSpace* metric = nullptr);

// Rotates a closed tour so that `first` is at the front (tour order and
// length are invariant under rotation). Precondition: `first` is in the
// tour.
void rotate_to_front(Tour& order, std::uint32_t first);

}  // namespace bc::tsp

#endif  // BUNDLECHARGE_TSP_TOUR_H_
