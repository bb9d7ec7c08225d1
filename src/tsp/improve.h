// Local-search tour improvement: 2-opt and Or-opt.
//
// 2-opt removes crossing edges by reversing segments; Or-opt relocates
// short chains (1-3 points) elsewhere in the tour. Together they close
// most of the gap to optimal on the instance sizes the paper evaluates
// (tens to low hundreds of stops).

#ifndef BUNDLECHARGE_TSP_IMPROVE_H_
#define BUNDLECHARGE_TSP_IMPROVE_H_

#include <cstddef>
#include <span>

#include "support/deadline.h"
#include "tsp/distance_table.h"
#include "tsp/tour.h"

namespace bc::tsp {

struct ImproveOptions {
  // Upper bound on full improvement passes (each pass scans all moves);
  // local search almost always converges much earlier.
  std::size_t max_passes = 64;
  // A move must improve the tour by more than this to be taken, which
  // keeps floating-point noise from cycling.
  double min_gain = 1e-9;
  // Candidate-move neighbourhood of the optimized improvers: each city
  // only proposes moves towards its `neighbors` nearest cities (0 = all).
  // Quality is not capped by this: a full-scan certification sweep runs
  // whenever the restricted search converges, so a returned tour is a
  // genuine full-neighbourhood local optimum either way.
  std::size_t neighbors = 12;
  // When false, skip the O(n^2) certification sweep and stop at restricted
  // convergence. The returned tour is then only a neighbour-list local
  // optimum — the trade the sharded large-n planner makes, where a single
  // certification sweep over tens of thousands of stops would dwarf the
  // entire solve.
  bool certify = true;
  // Movement metric; null = Euclidean (bit-exact pre-metric path). It is
  // only the fill source of the distance table the point-set entry points
  // (and solve_tsp) build; the table forms below ignore it. Neighbour
  // candidate lists are still built from Euclidean proximity — a heuristic
  // move proposal — but every accepted move and the certification sweep
  // are judged on table distances, so the result is a genuine local
  // optimum of the *metric* tour length.
  const net::MetricSpace* metric = nullptr;
};

// First-improvement 2-opt until no move helps. Returns total gain (length
// reduction, >= 0). `order` must be a valid tour over the table's first
// order.size() points; every distance is read from `table`.
// All three improvers are anytime by construction: the tour is valid after
// every accepted move, so a non-null `meter` (charged one unit per pass)
// simply stops the search at the next pass boundary when it trips.
double two_opt(const DistanceTable& table, Tour& order,
               const ImproveOptions& options = ImproveOptions{},
               support::BudgetMeter* meter = nullptr);

// Or-opt: tries moving chains of length 1..3 between all other edges.
double or_opt(const DistanceTable& table, Tour& order,
              const ImproveOptions& options = ImproveOptions{},
              support::BudgetMeter* meter = nullptr);

// Alternates 2-opt and Or-opt until neither improves.
double improve_tour(const DistanceTable& table, Tour& order,
                    const ImproveOptions& options = ImproveOptions{},
                    support::BudgetMeter* meter = nullptr);

// Point-set forms: build one table over the tour's points (the first
// order.size() of `points`) from options.metric, then run the table form.
double two_opt(std::span<const geometry::Point2> points, Tour& order,
               const ImproveOptions& options = ImproveOptions{},
               support::BudgetMeter* meter = nullptr);
double or_opt(std::span<const geometry::Point2> points, Tour& order,
              const ImproveOptions& options = ImproveOptions{},
              support::BudgetMeter* meter = nullptr);
double improve_tour(std::span<const geometry::Point2> points, Tour& order,
                    const ImproveOptions& options = ImproveOptions{},
                    support::BudgetMeter* meter = nullptr);

}  // namespace bc::tsp

#endif  // BUNDLECHARGE_TSP_IMPROVE_H_
