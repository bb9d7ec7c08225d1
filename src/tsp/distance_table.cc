#include "tsp/distance_table.h"

namespace bc::tsp {

DistanceTable::DistanceTable(std::span<const geometry::Point2> points,
                             const net::MetricSpace* metric)
    : DistanceTable(points, metric,
                    points.size() <= kDenseTableLimit ? Storage::kDense
                                                      : Storage::kOnDemand) {}

DistanceTable::DistanceTable(std::span<const geometry::Point2> points,
                             const net::MetricSpace* metric, Storage storage)
    : points_(points), metric_(metric), storage_(storage) {
  if (storage_ != Storage::kDense) return;
  const std::size_t n = points_.size();
  dense_.assign(n * n, 0.0);  // the diagonal stays +0.0
  for (std::size_t i = 0; i + 1 < n; ++i) {
    double* row = dense_.data() + i * n;
    const std::span<const geometry::Point2> targets = points_.subspan(i + 1);
    const std::span<double> out(row + i + 1, targets.size());
    if (metric == nullptr) {
      for (std::size_t t = 0; t < targets.size(); ++t) {
        out[t] = geometry::distance(points_[i], targets[t]);
      }
    } else {
      metric->distances_from(points_[i], targets, out);
    }
    for (std::size_t j = i + 1; j < n; ++j) dense_[j * n + i] = row[j];
  }
}

}  // namespace bc::tsp
