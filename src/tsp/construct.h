// Tour construction heuristics: nearest neighbour and greedy edge.
//
// Both are classical O(n^2 log n) constructors; the solver facade runs
// them and keeps the shorter tour before handing off to local search.

#ifndef BUNDLECHARGE_TSP_CONSTRUCT_H_
#define BUNDLECHARGE_TSP_CONSTRUCT_H_

#include <span>

#include "tsp/distance_table.h"
#include "tsp/tour.h"

namespace bc::tsp {

// Starts at `start` and repeatedly visits the closest unvisited point.
// Precondition: start < table.size(), table non-empty. A Euclidean table
// (null metric) compares squared distances of its points (bit-exact
// status quo: a table of rounded distances can tie where d^2 does not); a
// metric table compares its entries.
Tour nearest_neighbor_tour(const DistanceTable& table, std::uint32_t start = 0);

// Greedy edge matching: sorts all edges by length and adds an edge unless
// it would create a vertex of degree 3 or close a premature cycle.
// Produces a single Hamiltonian cycle; typically a few percent shorter
// than nearest neighbour. Same key rule as nearest_neighbor_tour.
Tour greedy_edge_tour(const DistanceTable& table);

// Point-set forms: each asks the metric (null = Euclidean) for every pair
// it compares, through an on-demand table.
Tour nearest_neighbor_tour(std::span<const geometry::Point2> points,
                           std::uint32_t start = 0,
                           const net::MetricSpace* metric = nullptr);
Tour greedy_edge_tour(std::span<const geometry::Point2> points,
                      const net::MetricSpace* metric = nullptr);

}  // namespace bc::tsp

#endif  // BUNDLECHARGE_TSP_CONSTRUCT_H_
