// Seeded worlds shared by the golden suites: uniform deployments at the
// paper's density and the benchmark's walled waypoint world, plus the
// FNV-1a step the suites hash bit patterns with.
//
// The walled world is a 25 x 25 4-connected waypoint grid over the field
// with 40 horizontal walls, 0.6 cell long, centred in cells
// (1 + w % 23, 1 + 7w % 23).

#ifndef BUNDLECHARGE_TESTS_FIXTURES_PAPER_WORLD_H_
#define BUNDLECHARGE_TESTS_FIXTURES_PAPER_WORLD_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "net/deployment.h"
#include "net/metric.h"
#include "support/rng.h"

namespace bc::fixtures {

// Side of the square field holding n sensors at 200 per km^2.
inline double field_side_m(std::size_t n) {
  return 1000.0 * std::sqrt(static_cast<double>(n) / 200.0);
}

// Uniform sensors at the paper's 200 per km^2, depot at the origin.
inline net::Deployment paper_deployment(std::size_t n, std::uint64_t seed) {
  const double side = field_side_m(n);
  net::FieldSpec spec;
  spec.field = {{0.0, 0.0}, {side, side}};
  spec.depot = {0.0, 0.0};
  support::Rng rng(seed);
  return net::uniform_random_deployment(n, spec, rng);
}

inline net::WaypointGraph obstacle_world(double side_m) {
  constexpr std::uint32_t kPerSide = 25;
  constexpr std::uint32_t kWalls = 40;
  const double step = side_m / (kPerSide - 1);
  net::WaypointGraph graph;
  for (std::uint32_t row = 0; row < kPerSide; ++row) {
    for (std::uint32_t col = 0; col < kPerSide; ++col) {
      graph.nodes.push_back({col * step, row * step});
    }
  }
  for (std::uint32_t row = 0; row < kPerSide; ++row) {
    for (std::uint32_t col = 0; col < kPerSide; ++col) {
      const std::uint32_t at = row * kPerSide + col;
      if (col + 1 < kPerSide) graph.edges.push_back({at, at + 1, step});
      if (row + 1 < kPerSide) graph.edges.push_back({at, at + kPerSide, step});
    }
  }
  for (std::uint32_t w = 0; w < kWalls; ++w) {
    const double cx = (1 + w % 23 + 0.5) * step;
    const double cy = (1 + (7 * w) % 23 + 0.5) * step;
    graph.obstacles.push_back({{cx - 0.3 * step, cy}, {cx + 0.3 * step, cy}});
  }
  return graph;
}

// One FNV-1a step over `size` bytes; start h at 0xcbf29ce484222325.
inline void fnv(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
}

}  // namespace bc::fixtures

#endif  // BUNDLECHARGE_TESTS_FIXTURES_PAPER_WORLD_H_
