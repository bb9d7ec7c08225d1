#include "sim/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "lp/simplex.h"
#include "obs/metrics.h"
#include "support/require.h"

namespace bc::sim {

std::string_view to_string(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kIsolated:
      return "isolated";
    case SchedulePolicy::kCumulative:
      return "cumulative";
    case SchedulePolicy::kOptimalLp:
      return "optimal-lp";
  }
  return "unknown";
}

namespace {

// The exact Eq. 3 schedule as a linear program over the stop times.
std::vector<double> optimal_lp_times(const net::Deployment& deployment,
                                     const tour::ChargingPlan& plan,
                                     const charging::ChargingModel& model) {
  lp::Problem problem;
  problem.num_vars = plan.stops.size();
  problem.objective.assign(problem.num_vars, 1.0);
  problem.rows.reserve(deployment.size());
  problem.rhs.reserve(deployment.size());
  for (const net::Sensor& s : deployment.sensors()) {
    std::vector<double> row(problem.num_vars);
    for (std::size_t i = 0; i < plan.stops.size(); ++i) {
      // metric-exempt: received power over the air gap (radio physics).
      const double d = geometry::distance(plan.stops[i].position, s.position);
      row[i] = model.received_power_w(d);
    }
    problem.rows.push_back(std::move(row));
    problem.rhs.push_back(s.demand_j);
  }
  const lp::Solution solution = lp::solve(problem);
  support::ensure(solution.status == lp::Status::kOptimal,
                  "the Eq. 3 schedule LP is always feasible and bounded");
  return solution.x;
}

// A stop with t > 0: only these radiate. Kept in tour order.
struct RadiatingStop {
  geometry::Point2 position;
  double time_s;
};

std::vector<RadiatingStop> radiating_stops(
    const tour::ChargingPlan& plan, const std::vector<double>& stop_times_s) {
  support::require(stop_times_s.size() == plan.stops.size(),
                   "one stop time per stop");
  std::vector<RadiatingStop> stops;
  for (std::size_t i = 0; i < plan.stops.size(); ++i) {
    if (stop_times_s[i] <= 0.0) continue;
    stops.push_back({plan.stops[i].position, stop_times_s[i]});
  }
  return stops;
}

// The exact kernel: what a sensor at `at` receives from `stops`, summed in
// stop order. Every exact received-energy figure in sim/ comes from here.
double received_from(geometry::Point2 at, std::span<const RadiatingStop> stops,
                     const charging::ChargingModel& model) {
  double received = 0.0;
  for (const RadiatingStop& stop : stops) {
    // metric-exempt: received power over the air gap (radio physics).
    const double d = geometry::distance(stop.position, at);
    received += model.received_power_w(d) * stop.time_s;
  }
  return received;
}

// The spatial lower bound behind min_demand_fraction (DESIGN.md §8).
//
// Radiating stops per grid cell the bound aims for.
constexpr double kStopsPerCell = 8.0;
// An upper bound on std::hypot(dx, dy) is sqrt(dx^2 + dy^2) scaled up by
// 8 units of 2^-53 (hypot may err by 2 ulp and still be dominated), plus
// a floor that covers dx^2 and dy^2 underflowing.
constexpr double kDistanceRoundUp = 1.0 + 0x1p-50;
constexpr double kDistanceFloor = 0x1p-398;
// Relative margin per summed term, covering the rounding of the exact
// stop-order sum and of the bound's own sums and products.
constexpr double kMarginPerTerm = 0x1p-50;
// A bound below this, or not finite, claims nothing (it becomes 0): the
// rounding margin assumes no underflow, and above it there is room for it.
constexpr double kSmallestBound = 0x1p-900;

// At least the exact kernel's distance of every pair whose rounded
// coordinate differences are at most |dx| and |dy| in magnitude.
double distance_upper_bound(double dx, double dy) {
  return std::sqrt(dx * dx + dy * dy) * kDistanceRoundUp + kDistanceFloor;
}

// The box with no points: expanding it to p gives the box {p, p}.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr geometry::Box2 kEmptyBox{{kInf, kInf}, {-kInf, -kInf}};

// A uniform grid over the radiating stops' bounding box with about
// kStopsPerCell stops per cell, and never more cells along an axis than
// cells in total (collinear stops). Points outside the box clamp to the
// border cells; the bound stays valid because it measures the boxes of
// each cell's actual members, not the cells' nominal extents.
struct Grid {
  geometry::Point2 lo;
  double side = 1.0;
  std::size_t nx = 1;
  std::size_t ny = 1;

  explicit Grid(std::span<const RadiatingStop> stops) {
    geometry::Box2 box = kEmptyBox;
    for (const RadiatingStop& stop : stops) {
      box = box.expanded_to(stop.position);
    }
    lo = box.lo;
    const double width = box.width();
    const double height = box.height();
    const double cells = std::max(
        1.0, std::floor(static_cast<double>(stops.size()) / kStopsPerCell));
    const double s = std::max(std::sqrt(width * height / cells),
                              std::max(width, height) / cells);
    // Coincident stops, or a box too large to measure: one cell.
    if (!(s > 0.0) || !std::isfinite(s)) return;
    side = s;
    nx = static_cast<std::size_t>(std::min(cells, std::floor(width / s))) + 1;
    ny = static_cast<std::size_t>(std::min(cells, std::floor(height / s))) + 1;
  }

  std::size_t column(double x) const { return clamp_index(x - lo.x, nx); }
  std::size_t row(double y) const { return clamp_index(y - lo.y, ny); }

 private:
  std::size_t clamp_index(double offset, std::size_t count) const {
    const double at = std::floor(offset / side);
    if (!(at > 0.0)) return 0;
    const double last = static_cast<double>(count - 1);
    return at >= last ? count - 1 : static_cast<std::size_t>(at);
  }
};

// A grid cell holding radiating stops: its members' box and time sum.
struct StopCell {
  std::size_t column;
  std::size_t row;
  geometry::Box2 box = kEmptyBox;
  double time_s = 0.0;
};

bool in_ring(std::size_t column, std::size_t row, std::size_t other_column,
             std::size_t other_row) {
  const auto near = [](std::size_t a, std::size_t b) {
    return (a > b ? a - b : b - a) <= 1;
  };
  return near(column, other_column) && near(row, other_row);
}

// For every sensor, a value <= received_from(sensor, stops, model).
// Stops in the 3 x 3 cells around the sensor's cell count term by term at
// an upward-rounded distance; every other cell counts once, as its time
// sum at the farthest distance between its box and the sensor cell's.
std::vector<double> received_lower_bounds(
    const net::Deployment& deployment, std::span<const RadiatingStop> stops,
    const charging::ChargingModel& model) {
  std::vector<double> bounds(deployment.size(), 0.0);
  if (stops.empty()) return bounds;
  const Grid grid(stops);
  const std::size_t cell_count = grid.nx * grid.ny;
  const auto cell_of = [&](geometry::Point2 p) {
    return grid.row(p.y) * grid.nx + grid.column(p.x);
  };

  // Stops bucketed by cell (stop order within a cell), with each occupied
  // cell's box and time sum.
  std::vector<std::size_t> first(cell_count + 1, 0);
  for (const RadiatingStop& stop : stops) ++first[cell_of(stop.position) + 1];
  for (std::size_t c = 0; c < cell_count; ++c) first[c + 1] += first[c];
  std::vector<RadiatingStop> bucketed(stops.size());
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (const RadiatingStop& stop : stops) {
    bucketed[fill[cell_of(stop.position)]++] = stop;
  }
  std::vector<StopCell> stop_cells;
  for (std::size_t c = 0; c < cell_count; ++c) {
    if (first[c] == first[c + 1]) continue;
    StopCell cell{c % grid.nx, c / grid.nx};
    for (std::size_t k = first[c]; k < first[c + 1]; ++k) {
      cell.box = cell.box.expanded_to(bucketed[k].position);
      cell.time_s += bucketed[k].time_s;
    }
    stop_cells.push_back(cell);
  }

  // The far term of every cell holding sensors, from its sensors' box.
  std::vector<std::size_t> sensor_cell(deployment.size());
  std::vector<geometry::Box2> sensor_boxes(cell_count, kEmptyBox);
  for (const net::Sensor& s : deployment.sensors()) {
    sensor_cell[s.id] = cell_of(s.position);
    geometry::Box2& box = sensor_boxes[sensor_cell[s.id]];
    box = box.expanded_to(s.position);
  }
  std::vector<double> far(cell_count, 0.0);
  for (std::size_t c = 0; c < cell_count; ++c) {
    const geometry::Box2& box = sensor_boxes[c];
    if (box.lo.x > box.hi.x) continue;  // no sensors
    const std::size_t column = c % grid.nx;
    const std::size_t row = c / grid.nx;
    for (const StopCell& cell : stop_cells) {
      if (in_ring(column, row, cell.column, cell.row)) continue;
      // Differences are stop minus sensor, rounded as the exact kernel
      // rounds them; rounding is monotone, so these are the extremes.
      const double dx = std::max(std::abs(cell.box.hi.x - box.lo.x),
                                 std::abs(cell.box.lo.x - box.hi.x));
      const double dy = std::max(std::abs(cell.box.hi.y - box.lo.y),
                                 std::abs(cell.box.lo.y - box.hi.y));
      far[c] += model.received_power_w(distance_upper_bound(dx, dy)) *
                cell.time_s;
    }
  }

  const double margin =
      1.0 - static_cast<double>(stops.size() + stop_cells.size() + 4) *
                kMarginPerTerm;
  for (const net::Sensor& s : deployment.sensors()) {
    const std::size_t cell = sensor_cell[s.id];
    const std::size_t column = cell % grid.nx;
    const std::size_t row = cell / grid.nx;
    double near = 0.0;
    for (std::size_t r = row > 0 ? row - 1 : 0;
         r <= std::min(row + 1, grid.ny - 1); ++r) {
      for (std::size_t q = column > 0 ? column - 1 : 0;
           q <= std::min(column + 1, grid.nx - 1); ++q) {
        const std::size_t c = r * grid.nx + q;
        for (std::size_t k = first[c]; k < first[c + 1]; ++k) {
          const RadiatingStop& stop = bucketed[k];
          const double d = distance_upper_bound(
              stop.position.x - s.position.x, stop.position.y - s.position.y);
          near += model.received_power_w(d) * stop.time_s;
        }
      }
    }
    const double bound = (near + far[cell]) * margin;
    bounds[s.id] =
        std::isfinite(bound) && bound >= kSmallestBound ? bound : 0.0;
  }
  return bounds;
}

}  // namespace

std::vector<double> schedule_stop_times(const net::Deployment& deployment,
                                        const tour::ChargingPlan& plan,
                                        const charging::ChargingModel& model,
                                        SchedulePolicy policy) {
  support::require(tour::plan_is_partition(deployment, plan),
                   "plan must assign every sensor to exactly one stop");
  std::vector<double> times;
  times.reserve(plan.stops.size());

  if (policy == SchedulePolicy::kIsolated) {
    for (const tour::Stop& stop : plan.stops) {
      times.push_back(tour::isolated_stop_time_s(deployment, stop, model));
    }
    return times;
  }

  if (policy == SchedulePolicy::kOptimalLp) {
    return optimal_lp_times(deployment, plan, model);
  }

  // Cumulative: walk the tour and park only long enough to clear the
  // current stop's members' remaining deficits. A member's credit is what
  // it received from the earlier stops that radiated.
  std::vector<RadiatingStop> radiated;
  for (const tour::Stop& stop : plan.stops) {
    double t = 0.0;
    for (const net::SensorId id : stop.members) {
      const net::Sensor& s = deployment.sensor(id);
      const double deficit =
          s.demand_j - received_from(s.position, radiated, model);
      if (deficit <= 0.0) continue;
      // metric-exempt: received power over the air gap (radio physics).
      const double d = geometry::distance(stop.position, s.position);
      t = std::max(t, deficit / model.received_power_w(d));
    }
    times.push_back(t);
    if (t > 0.0) radiated.push_back({stop.position, t});
  }
  return times;
}

std::vector<double> received_energy_j(const net::Deployment& deployment,
                                      const tour::ChargingPlan& plan,
                                      const charging::ChargingModel& model,
                                      const std::vector<double>& stop_times_s) {
  const std::vector<RadiatingStop> stops =
      radiating_stops(plan, stop_times_s);
  std::vector<double> received(deployment.size());
  for (const net::Sensor& s : deployment.sensors()) {
    received[s.id] = received_from(s.position, stops, model);
  }
  return received;
}

double min_demand_fraction(const net::Deployment& deployment,
                           const tour::ChargingPlan& plan,
                           const charging::ChargingModel& model,
                           const std::vector<double>& stop_times_s) {
  const std::vector<RadiatingStop> stops =
      radiating_stops(plan, stop_times_s);
  const std::vector<double> bounds =
      received_lower_bounds(deployment, stops, model);
  const auto exact = [&](net::SensorId id) {
    const net::Sensor& s = deployment.sensor(id);
    return received_from(s.position, stops, model) / s.demand_j;
  };

  // key = bound / demand <= the exact fraction, by monotone rounding.
  // Sensors get exact sums in ascending (key, id) order until the next
  // key reaches the best fraction so far. The least key goes first, and
  // only keys below its fraction can matter, so only those are sorted.
  // std::min skips NaN fractions, as the full minimum over
  // received_energy_j does.
  std::vector<std::pair<double, net::SensorId>> keys;
  keys.reserve(deployment.size());
  for (const net::Sensor& s : deployment.sensors()) {
    keys.emplace_back(bounds[s.id] / s.demand_j, s.id);
  }
  const net::SensorId first =
      std::min_element(keys.begin(), keys.end())->second;
  double best = std::min(std::numeric_limits<double>::infinity(), exact(first));
  std::uint64_t exact_sums = 1;
  std::erase_if(keys, [&](const auto& key) {
    return key.second == first || !(key.first < best);
  });
  std::sort(keys.begin(), keys.end());
  for (const auto& [key, id] : keys) {
    if (key >= best) break;
    best = std::min(best, exact(id));
    ++exact_sums;
  }

  static const obs::Counter sensors_counter("sim.min_fraction.sensors");
  static const obs::Counter exact_sums_counter("sim.min_fraction.exact_sums");
  sensors_counter.add(deployment.size());
  exact_sums_counter.add(exact_sums);
  return best;
}

}  // namespace bc::sim
