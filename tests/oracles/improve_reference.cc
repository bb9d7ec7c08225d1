// Naive full-scan 2-opt / Or-opt: the original first-improvement bodies of
// the tour improvers, kept verbatim as the differential-testing oracle.
// They ask the movement metric for every distance (never a distance
// table), so the table-driven neighbour-list search in src/tsp is checked
// against an implementation that shares none of its machinery.

#include "oracles/improve_reference.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "support/require.h"

namespace bc::tsp {

using geometry::Point2;

namespace {

double edge(const net::MetricSpace* metric,
            const std::span<const Point2>& points, std::uint32_t a,
            std::uint32_t b) {
  return net::metric_distance(metric, points[a], points[b]);
}

}  // namespace

double two_opt_reference(std::span<const Point2> points, Tour& order,
                         const ImproveOptions& options,
                         support::BudgetMeter* meter) {
  support::require(is_valid_tour(order, order.size()) &&
                       order.size() <= points.size(),
                   "two_opt needs a valid tour");
  const std::size_t n = order.size();
  if (n < 4) return 0.0;
  double total_gain = 0.0;
  std::uint64_t moves = 0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    if (meter != nullptr && !meter->charge()) break;
    bool improved = false;
    // Reversing order[i+1..j] replaces edges (i,i+1) and (j,j+1) with
    // (i,j) and (i+1,j+1).
    for (std::size_t i = 0; i + 2 < n; ++i) {
      const std::uint32_t a = order[i];
      const std::uint32_t b = order[i + 1];
      const double d_ab = edge(options.metric, points, a, b);
      for (std::size_t j = i + 2; j < n; ++j) {
        if (i == 0 && j + 1 == n) continue;  // same edge pair
        const std::uint32_t c = order[j];
        const std::uint32_t d = order[(j + 1) % n];
        const double gain = d_ab + edge(options.metric, points, c, d) -
                            edge(options.metric, points, a, c) -
                            edge(options.metric, points, b, d);
        if (gain > options.min_gain) {
          std::reverse(order.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       order.begin() + static_cast<std::ptrdiff_t>(j) + 1);
          total_gain += gain;
          ++moves;
          improved = true;
          break;  // edge (i, i+1) changed; restart the inner scan
        }
      }
    }
    if (!improved) break;
  }
  {
    static const obs::Counter calls("tsp.two_opt_reference.calls");
    static const obs::Counter move_count("tsp.two_opt_reference.moves");
    calls.add();
    move_count.add(moves);
  }
  return total_gain;
}

double or_opt_reference(std::span<const Point2> points, Tour& order,
                        const ImproveOptions& options,
                        support::BudgetMeter* meter) {
  support::require(is_valid_tour(order, order.size()) &&
                       order.size() <= points.size(),
                   "or_opt needs a valid tour");
  const std::size_t n = order.size();
  if (n < 5) return 0.0;
  double total_gain = 0.0;
  std::uint64_t moves = 0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    if (meter != nullptr && !meter->charge()) break;
    bool improved = false;
    for (std::size_t chain = 1; chain <= 3 && chain + 2 <= n; ++chain) {
      for (std::size_t i = 0; i + chain < n && !improved; ++i) {
        // Chain = order[i+1 .. i+chain]; removing it joins prev and next.
        const std::uint32_t prev = order[i];
        const std::uint32_t first = order[i + 1];
        const std::uint32_t last = order[i + chain];
        const std::uint32_t next = order[(i + chain + 1) % n];
        if (next == prev) continue;
        const double removed = edge(options.metric, points, prev, first) +
                               edge(options.metric, points, last, next) -
                               edge(options.metric, points, prev, next);
        // Try to reinsert between every other edge (j, j+1).
        for (std::size_t j = 0; j < n; ++j) {
          // Skip positions overlapping the chain or its former slot.
          if (j >= i && j <= i + chain) continue;
          const std::uint32_t u = order[j];
          const std::uint32_t v = order[(j + 1) % n];
          if (u == prev && v == next) continue;
          const double added_fwd = edge(options.metric, points, u, first) +
                                   edge(options.metric, points, last, v) -
                                   edge(options.metric, points, u, v);
          const double added_rev = edge(options.metric, points, u, last) +
                                   edge(options.metric, points, first, v) -
                                   edge(options.metric, points, u, v);
          const bool reversed = added_rev < added_fwd;
          const double added = reversed ? added_rev : added_fwd;
          const double gain = removed - added;
          if (gain > options.min_gain) {
            // Materialise the move on a copy of the order.
            Tour moved;
            moved.reserve(n);
            std::vector<std::uint32_t> chain_nodes(
                order.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                order.begin() + static_cast<std::ptrdiff_t>(i + chain) + 1);
            if (reversed) std::reverse(chain_nodes.begin(), chain_nodes.end());
            for (std::size_t k = 0; k < n; ++k) {
              if (k > i && k <= i + chain) continue;  // skip the old chain
              moved.push_back(order[k]);
              if (order[k] == u) {
                // Insert after u only if v really follows u once the chain
                // is deleted; with the skips above this always holds.
                moved.insert(moved.end(), chain_nodes.begin(),
                             chain_nodes.end());
              }
            }
            support::ensure(is_valid_tour(moved, n),
                            "or_opt move must preserve the tour");
            order = std::move(moved);
            total_gain += gain;
            ++moves;
            improved = true;
            break;
          }
        }
      }
      if (improved) break;
    }
    if (!improved) break;
  }
  {
    static const obs::Counter calls("tsp.or_opt_reference.calls");
    static const obs::Counter move_count("tsp.or_opt_reference.moves");
    calls.add();
    move_count.add(moves);
  }
  return total_gain;
}

}  // namespace bc::tsp
