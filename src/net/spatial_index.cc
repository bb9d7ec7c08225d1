#include "net/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "support/require.h"

namespace bc::net {

using geometry::Point2;

SpatialIndex::SpatialIndex(std::span<const Point2> positions, double cell_size)
    : positions_(positions.begin(), positions.end()), cell_size_(cell_size) {
  support::require(!positions_.empty(), "spatial index needs points");
  support::require(cell_size > 0.0, "cell size must be positive");
  bounds_ = geometry::bounding_box(positions_);
  // Clamp the grid so a tiny cell size over a large field cannot blow up
  // memory; a coarser grid only costs extra distance checks.
  constexpr double kMaxCellsPerAxis = 2048.0;
  cell_size_ = std::max({cell_size_, bounds_.width() / kMaxCellsPerAxis,
                         bounds_.height() / kMaxCellsPerAxis});
  cols_ = static_cast<std::size_t>(bounds_.width() / cell_size_) + 1;
  rows_ = static_cast<std::size_t>(bounds_.height() / cell_size_) + 1;

  // Counting sort into CSR buckets.
  const std::size_t cells = cols_ * rows_;
  std::vector<std::uint32_t> counts(cells, 0);
  for (const Point2& p : positions_) ++counts[cell_of(p)];
  cell_start_.assign(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    cell_start_[c + 1] = cell_start_[c] + counts[c];
  }
  cell_items_.resize(positions_.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    cell_items_[cursor[cell_of(positions_[i])]++] =
        static_cast<SensorId>(i);
  }
  // SoA shadow of cell_items_ for the contiguous row scans.
  item_xs_.resize(cell_items_.size());
  item_ys_.resize(cell_items_.size());
  for (std::size_t i = 0; i < cell_items_.size(); ++i) {
    item_xs_[i] = positions_[cell_items_[i]].x;
    item_ys_[i] = positions_[cell_items_[i]].y;
  }
}

std::size_t SpatialIndex::cell_of(Point2 p) const {
  auto gx = static_cast<std::size_t>(
      std::max(0.0, (p.x - bounds_.lo.x) / cell_size_));
  auto gy = static_cast<std::size_t>(
      std::max(0.0, (p.y - bounds_.lo.y) / cell_size_));
  gx = std::min(gx, cols_ - 1);
  gy = std::min(gy, rows_ - 1);
  return gy * cols_ + gx;
}

std::vector<SensorId> SpatialIndex::within(Point2 query, double radius) const {
  std::vector<SensorId> out;
  within(query, radius, out);
  return out;
}

void SpatialIndex::within(Point2 query, double radius,
                          std::vector<SensorId>& out) const {
  support::require(radius >= 0.0, "radius must be non-negative");
  out.clear();
  const double r2 = radius * radius;
  // ceil(radius / cell) rings suffice: the query sits inside its own cell,
  // so any point within `radius` is at most that many cells away on each
  // axis. (floor + 1 would scan a whole extra ring whenever the radius is
  // an exact multiple of the cell size — the common r == cell case.)
  const auto reach =
      static_cast<std::ptrdiff_t>(std::ceil(radius / cell_size_));
  const auto qx = static_cast<std::ptrdiff_t>(
      std::floor((query.x - bounds_.lo.x) / cell_size_));
  const auto qy = static_cast<std::ptrdiff_t>(
      std::floor((query.y - bounds_.lo.y) / cell_size_));
  const std::ptrdiff_t gx_lo = std::max<std::ptrdiff_t>(qx - reach, 0);
  const std::ptrdiff_t gx_hi =
      std::min(qx + reach, static_cast<std::ptrdiff_t>(cols_) - 1);
  const std::ptrdiff_t gy_lo = std::max<std::ptrdiff_t>(qy - reach, 0);
  const std::ptrdiff_t gy_hi =
      std::min(qy + reach, static_cast<std::ptrdiff_t>(rows_) - 1);
  if (gx_lo > gx_hi) {
    return;  // query column band entirely off-grid
  }
  for (std::ptrdiff_t gy = gy_lo; gy <= gy_hi; ++gy) {
    // The cells of one row are adjacent in the CSR layout, so the whole
    // gx band is a single contiguous item range — one scan per row
    // instead of a bounds-checked loop per cell.
    const std::size_t row = static_cast<std::size_t>(gy) * cols_;
    const std::uint32_t begin =
        cell_start_[row + static_cast<std::size_t>(gx_lo)];
    const std::uint32_t end =
        cell_start_[row + static_cast<std::size_t>(gx_hi) + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const double dx = item_xs_[i] - query.x;
      const double dy = item_ys_[i] - query.y;
      if (dx * dx + dy * dy <= r2) out.push_back(cell_items_[i]);
    }
  }
  std::sort(out.begin(), out.end());
}

void SpatialIndex::k_nearest(Point2 query, std::size_t k,
                             std::vector<SensorId>& out) const {
  out.clear();
  if (k == 0) return;
  k = std::min(k, positions_.size());

  // Nominal (unclamped) cell coordinates of the query; the query point
  // lies inside that cell's square even when it falls outside the grid,
  // which is what the ring distance bound below relies on.
  const auto qx = static_cast<std::ptrdiff_t>(
      std::floor((query.x - bounds_.lo.x) / cell_size_));
  const auto qy = static_cast<std::ptrdiff_t>(
      std::floor((query.y - bounds_.lo.y) / cell_size_));
  const auto cols = static_cast<std::ptrdiff_t>(cols_);
  const auto rows = static_cast<std::ptrdiff_t>(rows_);
  const std::ptrdiff_t max_ring =
      std::max(std::max(std::abs(qx), std::abs(cols - 1 - qx)),
               std::max(std::abs(qy), std::abs(rows - 1 - qy)));

  std::vector<std::pair<double, SensorId>> found;
  const auto scan_cell_span = [&](std::ptrdiff_t gy, std::ptrdiff_t gx_lo,
                                  std::ptrdiff_t gx_hi) {
    if (gy < 0 || gy >= rows) return;
    gx_lo = std::max<std::ptrdiff_t>(gx_lo, 0);
    gx_hi = std::min(gx_hi, cols - 1);
    if (gx_lo > gx_hi) return;
    const std::size_t row = static_cast<std::size_t>(gy) * cols_;
    const std::uint32_t begin =
        cell_start_[row + static_cast<std::size_t>(gx_lo)];
    const std::uint32_t end =
        cell_start_[row + static_cast<std::size_t>(gx_hi) + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const SensorId id = cell_items_[i];
      found.emplace_back(geometry::distance_squared(positions_[id], query),
                         id);
    }
  };

  for (std::ptrdiff_t ring = 0; ring <= max_ring; ++ring) {
    if (ring == 0) {
      scan_cell_span(qy, qx, qx);
    } else {
      scan_cell_span(qy - ring, qx - ring, qx + ring);
      scan_cell_span(qy + ring, qx - ring, qx + ring);
      for (std::ptrdiff_t gy = qy - ring + 1; gy <= qy + ring - 1; ++gy) {
        scan_cell_span(gy, qx - ring, qx - ring);
        scan_cell_span(gy, qx + ring, qx + ring);
      }
    }
    if (found.size() >= k) {
      // A point in a cell at Chebyshev cell-distance m from the query's
      // cell is at least (m - 1) * cell_size_ away, so everything in rings
      // > `ring` lies beyond ring * cell_size_. Once the k-th best found
      // distance beats that bound, no further ring can improve the answer.
      std::nth_element(found.begin(),
                       found.begin() + static_cast<std::ptrdiff_t>(k) - 1,
                       found.end());
      const double bound = static_cast<double>(ring) * cell_size_;
      if (found[k - 1].first <= bound * bound) break;
    }
  }

  std::sort(found.begin(), found.end());  // (distance asc, id asc)
  found.resize(std::min(found.size(), k));
  out.reserve(found.size());
  for (const auto& [d2, id] : found) out.push_back(id);
}

}  // namespace bc::net
