// TSP solver facade.
//
// Picks the exact Held–Karp solver for tiny instances and
// multi-start-construction + 2-opt/Or-opt local search otherwise. All four
// compared planners (SC, CSS, BC, BC-OPT) route their tours through this
// single entry point so that tour quality never confounds the comparison.

#ifndef BUNDLECHARGE_TSP_SOLVER_H_
#define BUNDLECHARGE_TSP_SOLVER_H_

#include <cstddef>
#include <span>

#include "support/deadline.h"
#include "tsp/distance_table.h"
#include "tsp/improve.h"
#include "tsp/tour.h"

namespace bc::tsp {

struct SolverOptions {
  // Instances up to this size are solved exactly (must be
  // <= kHeldKarpLimit).
  std::size_t exact_threshold = 12;
  // Number of nearest-neighbour starts to try (spread over the points);
  // greedy-edge construction is always tried as well.
  std::size_t nn_starts = 4;
  // improve.metric is the movement metric for the *entire* solve: the
  // point-set solve_tsp fills one distance table from it, and
  // construction, the exact DP, local search and the keep-the-best length
  // comparison all read that table, so there is a single source of truth.
  // Null = Euclidean.
  ImproveOptions improve;
  // Resource limits; unlimited by default. When a budget trips the solver
  // degrades instead of hanging: a tripped Held-Karp falls back to the
  // heuristic path, local search stops at a pass boundary, and remaining
  // multi-starts are skipped — the returned tour is always valid.
  support::Budget budget{};
};

// Returns a closed tour over all points. Empty input yields an empty tour.
// A non-null `meter` overrides options.budget (shared ladder budgets).
// Builds one distance table over `points` from options.improve.metric.
Tour solve_tsp(std::span<const geometry::Point2> points,
               const SolverOptions& options = SolverOptions{},
               support::BudgetMeter* meter = nullptr);
// The same solve over a prebuilt table (options.improve.metric unused).
Tour solve_tsp(const DistanceTable& table,
               const SolverOptions& options = SolverOptions{},
               support::BudgetMeter* meter = nullptr);

}  // namespace bc::tsp

#endif  // BUNDLECHARGE_TSP_SOLVER_H_
