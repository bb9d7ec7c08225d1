#include "world.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/rng.h"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::int64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void fnv(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
}

void fnv_double(std::uint64_t& h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  fnv(h, &bits, sizeof bits);
}

}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return splitmix(splitmix(splitmix(seed) ^ stream) ^ index);
}

double paper_side_m(std::size_t n) {
  return 1000.0 * std::sqrt(static_cast<double>(n) / 200.0);
}

bc::net::Deployment paper_deployment(std::size_t n, std::uint64_t rng_seed) {
  const double side = paper_side_m(n);
  bc::net::FieldSpec spec;
  spec.field = {{0.0, 0.0}, {side, side}};
  spec.depot = {0.0, 0.0};
  bc::support::Rng rng(rng_seed);
  return bc::net::uniform_random_deployment(n, spec, rng);
}

bc::net::WaypointGraph obstacle_world(double side_m) {
  constexpr std::uint32_t kPerSide = 25;
  constexpr std::uint32_t kWalls = 40;
  const double step = side_m / (kPerSide - 1);
  bc::net::WaypointGraph graph;
  for (std::uint32_t row = 0; row < kPerSide; ++row) {
    for (std::uint32_t col = 0; col < kPerSide; ++col) {
      graph.nodes.push_back({col * step, row * step});
    }
  }
  const auto id = [](std::uint32_t row, std::uint32_t col) {
    return row * kPerSide + col;
  };
  for (std::uint32_t row = 0; row < kPerSide; ++row) {
    for (std::uint32_t col = 0; col < kPerSide; ++col) {
      if (col + 1 < kPerSide) {
        graph.edges.push_back({id(row, col), id(row, col + 1), step});
      }
      if (row + 1 < kPerSide) {
        graph.edges.push_back({id(row, col), id(row + 1, col), step});
      }
    }
  }
  for (std::uint32_t w = 0; w < kWalls; ++w) {
    const double cx = (1 + w % 23 + 0.5) * step;
    const double cy = (1 + (7 * w) % 23 + 0.5) * step;
    graph.obstacles.push_back({{cx - 0.3 * step, cy}, {cx + 0.3 * step, cy}});
  }
  return graph;
}

std::size_t blocking_walls(const bc::net::GraphMetric& metric) {
  std::size_t blocking = 0;
  for (const bc::geometry::Segment& wall : metric.graph().obstacles) {
    const double mx = 0.5 * (wall.a.x + wall.b.x);
    const double my = 0.5 * (wall.a.y + wall.b.y);
    const double half = 0.25 * std::hypot(wall.b.x - wall.a.x,
                                          wall.b.y - wall.a.y);
    if (!metric.line_of_sight({mx, my - half}, {mx, my + half})) ++blocking;
  }
  return blocking;
}

CountingMetric::CountingMetric(const bc::net::MetricSpace& inner)
    : inner_(inner) {
  std::vector<std::int64_t> empty(1001);
  for (std::int64_t& ns : empty) ns = elapsed_ns(std::chrono::steady_clock::now());
  std::nth_element(empty.begin(), empty.begin() + 500, empty.end());
  clock_ns_ = empty[500];
}

bool CountingMetric::sample() const {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_ % kSampleEvery == 0;
}

void CountingMetric::add_sample(
    std::chrono::steady_clock::time_point t0) const {
  sampled_ns_ += std::max<std::int64_t>(0, elapsed_ns(t0) - clock_ns_);
}

double CountingMetric::distance(bc::geometry::Point2 a,
                                bc::geometry::Point2 b) const {
  ++queries_;
  if (!sample()) return inner_.distance(a, b);
  const auto t0 = std::chrono::steady_clock::now();
  const double d = inner_.distance(a, b);
  add_sample(t0);
  return d;
}

void CountingMetric::path(bc::geometry::Point2 a, bc::geometry::Point2 b,
                          std::vector<bc::geometry::Point2>& out) const {
  ++queries_;
  if (!sample()) return inner_.path(a, b, out);
  const auto t0 = std::chrono::steady_clock::now();
  inner_.path(a, b, out);
  add_sample(t0);
}

void CountingMetric::distances_from(
    bc::geometry::Point2 a, std::span<const bc::geometry::Point2> targets,
    std::span<double> out) const {
  queries_ += targets.size();
  if (!sample()) return inner_.distances_from(a, targets, out);
  const auto t0 = std::chrono::steady_clock::now();
  inner_.distances_from(a, targets, out);
  add_sample(t0);
}

std::uint64_t plan_hash(const bc::tour::ChargingPlan& plan) {
  std::uint64_t h = kFnvOffset;
  fnv(h, plan.algorithm.data(), plan.algorithm.size());
  fnv_double(h, plan.depot.x);
  fnv_double(h, plan.depot.y);
  for (const bc::tour::Stop& stop : plan.stops) {
    fnv_double(h, stop.position.x);
    fnv_double(h, stop.position.y);
    const std::uint64_t members = stop.members.size();
    fnv(h, &members, sizeof members);
    for (const bc::net::SensorId id : stop.members) {
      const std::uint64_t wide = id;
      fnv(h, &wide, sizeof wide);
    }
  }
  return h;
}

std::string plan_problem(const bc::net::Deployment& deployment,
                         const bc::tour::ChargingPlan& plan,
                         const bc::sim::PlanMetrics& metrics) {
  for (const bc::tour::Stop& stop : plan.stops) {
    if (!std::isfinite(stop.position.x) || !std::isfinite(stop.position.y)) {
      return "stop at a non-finite position";
    }
  }
  if (!bc::tour::plan_is_partition(deployment, plan)) {
    return "plan is not a partition of the sensors";
  }
  if (!(metrics.min_demand_fraction >= 1.0 - 1e-6)) {
    return "min_demand_fraction " + std::to_string(metrics.min_demand_fraction) +
           " < 1 - 1e-6";
  }
  if (!std::isfinite(metrics.total_energy_j)) return "non-finite energy";
  return "";
}

std::string hexfloat(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

}  // namespace perfbench
