#include "tsp/tour.h"

#include <algorithm>

#include "support/require.h"

namespace bc::tsp {

bool is_valid_tour(std::span<const std::uint32_t> order, std::size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const std::uint32_t idx : order) {
    if (idx >= n || seen[idx]) return false;
    seen[idx] = true;
  }
  return true;
}

double tour_length(const DistanceTable& table,
                   std::span<const std::uint32_t> order) {
  if (order.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    total += table(order[i], order[(i + 1) % order.size()]);
  }
  return total;
}

double tour_length(std::span<const geometry::Point2> points,
                   std::span<const std::uint32_t> order,
                   const net::MetricSpace* metric) {
  return tour_length(
      DistanceTable(points, metric, DistanceTable::Storage::kOnDemand), order);
}

double path_length(std::span<const geometry::Point2> points,
                   std::span<const std::uint32_t> order,
                   const net::MetricSpace* metric) {
  if (order.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    total +=
        net::metric_distance(metric, points[order[i]], points[order[i + 1]]);
  }
  return total;
}

void rotate_to_front(Tour& order, std::uint32_t first) {
  auto it = std::find(order.begin(), order.end(), first);
  support::require(it != order.end(), "rotate_to_front: index not in tour");
  std::rotate(order.begin(), it, order.end());
}

}  // namespace bc::tsp
