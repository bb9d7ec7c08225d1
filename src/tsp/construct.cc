#include "tsp/construct.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "support/require.h"

namespace bc::tsp {

using geometry::Point2;

Tour nearest_neighbor_tour(const DistanceTable& table, std::uint32_t start) {
  const std::span<const Point2> points = table.points();
  const net::MetricSpace* metric = table.metric();
  support::require(!points.empty(), "nearest_neighbor_tour needs points");
  support::require(start < points.size(), "start index out of range");
  const std::size_t n = points.size();
  std::vector<bool> visited(n, false);
  Tour order;
  order.reserve(n);
  std::uint32_t current = start;
  visited[current] = true;
  order.push_back(current);
  for (std::size_t step = 1; step < n; ++step) {
    std::uint32_t best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::uint32_t candidate = 0; candidate < n; ++candidate) {
      if (visited[candidate]) continue;
      // Null metric keeps the squared-distance comparison (same argmin,
      // no sqrt) — the bit-exact pre-metric path.
      const double d2 =
          metric == nullptr
              ? geometry::distance_squared(points[current], points[candidate])
              : table(current, candidate);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = candidate;
      }
    }
    visited[best] = true;
    order.push_back(best);
    current = best;
  }
  return order;
}

Tour greedy_edge_tour(const DistanceTable& table) {
  const std::span<const Point2> points = table.points();
  const net::MetricSpace* metric = table.metric();
  support::require(!points.empty(), "greedy_edge_tour needs points");
  const std::size_t n = points.size();
  if (n == 1) return Tour{0};
  if (n == 2) return Tour{0, 1};

  // Each edge carries a float copy of its sort key: 8 bytes an edge rather
  // than 16, so beside the solve's distance table the array takes about
  // what it took alone when it stored exact keys. Rounding to float is
  // monotone, so edges whose float keys differ order as their exact keys
  // do, and float ties compare the exact keys, read again: every
  // comparison the sorts make keeps its outcome.
  support::require(n <= std::size_t{1} << 16,
                   "greedy_edge_tour: too many points");
  struct Edge {
    float key;
    std::uint16_t a;
    std::uint16_t b;
  };
  // Squared distances sort identically to distances under Euclid and skip
  // the sqrt; a real metric needs the true movement distance.
  const auto exact_key = [&](const Edge& e) {
    return metric == nullptr
               ? geometry::distance_squared(points[e.a], points[e.b])
               : table(e.a, e.b);
  };
  std::vector<Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      Edge e{0.0f, static_cast<std::uint16_t>(i),
             static_cast<std::uint16_t>(j)};
      e.key = static_cast<float>(exact_key(e));
      edges.push_back(e);
    }
  }
  const auto key_less = [&](const Edge& x, const Edge& y) {
    if (x.key < y.key) return true;
    if (y.key < x.key) return false;
    return exact_key(x) < exact_key(y);
  };
  if (metric == nullptr) {
    std::sort(edges.begin(), edges.end(), key_less);
  } else {
    // Graph distances tie often (shared shortest paths); break ties by
    // endpoint ids so the greedy order is deterministic.
    std::sort(edges.begin(), edges.end(), [&](const Edge& x, const Edge& y) {
      if (key_less(x, y)) return true;
      if (key_less(y, x)) return false;
      if (x.a != y.a) return x.a < y.a;
      return x.b < y.b;
    });
  }

  // Union-find to reject premature subcycles; degree counters to keep the
  // result a single Hamiltonian cycle.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<int> degree(n, 0);
  std::vector<std::array<std::uint32_t, 2>> adjacent(
      n, {std::numeric_limits<std::uint32_t>::max(),
          std::numeric_limits<std::uint32_t>::max()});
  std::size_t added = 0;
  for (const Edge& e : edges) {
    if (added == n) break;
    if (degree[e.a] == 2 || degree[e.b] == 2) continue;
    const auto ra = find(e.a);
    const auto rb = find(e.b);
    // Allow closing the cycle only as the final edge.
    if (ra == rb && added + 1 != n) continue;
    parent[ra] = rb;
    adjacent[e.a][degree[e.a]++] = e.b;
    adjacent[e.b][degree[e.b]++] = e.a;
    ++added;
  }
  support::ensure(added == n, "greedy edge construction must close a cycle");

  // Walk the cycle from node 0.
  Tour order;
  order.reserve(n);
  std::uint32_t prev = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t current = 0;
  for (std::size_t step = 0; step < n; ++step) {
    order.push_back(current);
    const std::uint32_t next =
        adjacent[current][0] == prev ? adjacent[current][1]
                                     : adjacent[current][0];
    prev = current;
    current = next;
  }
  support::ensure(is_valid_tour(order, n), "greedy edge walk must be a tour");
  return order;
}

Tour nearest_neighbor_tour(std::span<const Point2> points,
                           std::uint32_t start,
                           const net::MetricSpace* metric) {
  return nearest_neighbor_tour(
      DistanceTable(points, metric, DistanceTable::Storage::kOnDemand), start);
}

Tour greedy_edge_tour(std::span<const Point2> points,
                      const net::MetricSpace* metric) {
  return greedy_edge_tour(
      DistanceTable(points, metric, DistanceTable::Storage::kOnDemand));
}

}  // namespace bc::tsp
