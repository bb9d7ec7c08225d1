// Exact TSP via Held–Karp dynamic programming.
//
// O(2^n * n^2) time, O(2^n * n) memory — practical to ~18 points. Used for
// tiny planner instances (e.g. the 6-sensor testbed) and as the ground
// truth oracle for heuristic tests.

#ifndef BUNDLECHARGE_TSP_EXACT_H_
#define BUNDLECHARGE_TSP_EXACT_H_

#include <optional>
#include <span>

#include "support/deadline.h"
#include "tsp/distance_table.h"
#include "tsp/tour.h"

namespace bc::tsp {

// Largest instance held_karp_tour accepts.
inline constexpr std::size_t kHeldKarpLimit = 18;

// Optimal closed tour under the table's distances. Preconditions:
// 1 <= table.size() <= kHeldKarpLimit.
Tour held_karp_tour(const DistanceTable& table);

// Budgeted variant: charges `meter` one unit per DP subset processed and
// returns nullopt when the budget trips mid-table (Held-Karp has no
// incumbent to fall back on — callers degrade to a heuristic tour).
std::optional<Tour> held_karp_tour_budgeted(const DistanceTable& table,
                                            support::BudgetMeter& meter);

// Point-set form: the DP over a table of `metric` distances (null =
// Euclidean), optimal for that metric.
Tour held_karp_tour(std::span<const geometry::Point2> points,
                    const net::MetricSpace* metric = nullptr);

}  // namespace bc::tsp

#endif  // BUNDLECHARGE_TSP_EXACT_H_
