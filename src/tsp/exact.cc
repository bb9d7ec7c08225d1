#include "tsp/exact.h"

#include <limits>
#include <vector>

#include "support/require.h"

namespace bc::tsp {

using geometry::Point2;

namespace {

// Shared DP core; a null meter runs unmetered. Returns nullopt only when
// the meter trips (one charge per subset `mask`).
std::optional<Tour> held_karp_impl(const DistanceTable& dist,
                                   support::BudgetMeter* meter) {
  const std::size_t n = dist.size();
  support::require(n >= 1, "held_karp_tour needs points");
  support::require(n <= kHeldKarpLimit, "held_karp_tour instance too large");
  if (n == 1) return Tour{0};
  if (n == 2) return Tour{0, 1};

  // dp[mask][v]: shortest path starting at 0, visiting exactly the set
  // `mask` (which contains 0 and v), ending at v.
  const std::size_t full = std::size_t{1} << n;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(full * n, kInf);
  std::vector<std::uint32_t> parent(full * n,
                                    std::numeric_limits<std::uint32_t>::max());
  dp[(std::size_t{1} << 0) * n + 0] = 0.0;

  for (std::size_t mask = 1; mask < full; ++mask) {
    if ((mask & 1) == 0) continue;  // paths always include the start 0
    if (meter != nullptr && !meter->charge()) return std::nullopt;
    for (std::uint32_t v = 0; v < n; ++v) {
      if ((mask & (std::size_t{1} << v)) == 0) continue;
      const double here = dp[mask * n + v];
      if (here == kInf) continue;
      for (std::uint32_t w = 0; w < n; ++w) {
        if (mask & (std::size_t{1} << w)) continue;
        const std::size_t next_mask = mask | (std::size_t{1} << w);
        const double candidate = here + dist(v, w);
        if (candidate < dp[next_mask * n + w]) {
          dp[next_mask * n + w] = candidate;
          parent[next_mask * n + w] = v;
        }
      }
    }
  }

  // Close the tour back to 0.
  const std::size_t all = full - 1;
  double best = kInf;
  std::size_t best_end = 0;
  for (std::uint32_t v = 1; v < n; ++v) {
    const double candidate = dp[all * n + v] + dist(v, 0);
    if (candidate < best) {
      best = candidate;
      best_end = v;
    }
  }
  support::ensure(best < kInf, "held_karp must find a tour");

  Tour order(n);
  std::size_t mask = all;
  std::size_t v = best_end;
  for (std::size_t slot = n; slot-- > 0;) {
    order[slot] = static_cast<std::uint32_t>(v);
    const std::uint32_t p = parent[mask * n + v];
    mask &= ~(std::size_t{1} << v);
    v = p;
    if (slot == 1) break;  // slot 0 is the start
  }
  order[0] = 0;
  support::ensure(is_valid_tour(order, n), "held_karp output must be a tour");
  return order;
}

}  // namespace

Tour held_karp_tour(const DistanceTable& table) {
  auto tour = held_karp_impl(table, nullptr);
  support::ensure(tour.has_value(), "unmetered held_karp cannot trip");
  return std::move(*tour);
}

std::optional<Tour> held_karp_tour_budgeted(const DistanceTable& table,
                                            support::BudgetMeter& meter) {
  return held_karp_impl(table, &meter);
}

Tour held_karp_tour(std::span<const Point2> points,
                    const net::MetricSpace* metric) {
  return held_karp_tour(DistanceTable(points, metric));
}

}  // namespace bc::tsp
