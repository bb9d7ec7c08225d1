#include "tsp/solver.h"

#include <algorithm>

#include "support/require.h"
#include "tsp/construct.h"
#include "tsp/exact.h"

namespace bc::tsp {

using geometry::Point2;

Tour solve_tsp(const DistanceTable& table, const SolverOptions& options,
               support::BudgetMeter* meter) {
  support::require(options.exact_threshold <= kHeldKarpLimit,
                   "exact_threshold exceeds the Held-Karp limit");
  support::BudgetMeter local_meter(options.budget);
  const bool metered = meter != nullptr || !options.budget.unlimited();
  if (meter == nullptr) meter = &local_meter;

  const std::size_t n = table.size();
  if (n == 0) return Tour{};
  if (n <= 3) {
    Tour trivial(n);
    for (std::uint32_t i = 0; i < n; ++i) trivial[i] = i;
    return trivial;
  }
  if (n <= options.exact_threshold) {
    if (!metered) return held_karp_tour(table);
    // Budgeted exact: fall through to the heuristic path if the DP trips
    // (construction is polynomial, so a tour always comes back).
    auto exact = held_karp_tour_budgeted(table, *meter);
    if (exact.has_value()) return std::move(*exact);
  }

  Tour best = greedy_edge_tour(table);
  improve_tour(table, best, options.improve, metered ? meter : nullptr);
  double best_len = tour_length(table, best);

  const std::size_t starts = std::max<std::size_t>(1, options.nn_starts);
  for (std::size_t s = 0; s < starts; ++s) {
    if (metered && !meter->check()) break;
    const auto start = static_cast<std::uint32_t>((s * n) / starts);
    Tour candidate = nearest_neighbor_tour(table, start);
    improve_tour(table, candidate, options.improve,
                 metered ? meter : nullptr);
    const double len = tour_length(table, candidate);
    if (len < best_len) {
      best_len = len;
      best = std::move(candidate);
    }
  }
  return best;
}

Tour solve_tsp(std::span<const Point2> points, const SolverOptions& options,
               support::BudgetMeter* meter) {
  return solve_tsp(DistanceTable(points, options.improve.metric), options,
                   meter);
}

}  // namespace bc::tsp
