// City-scale end-to-end tier: plans a constant-density deployment with the
// hierarchical BC-SHARD planner at n in the tens of thousands and records
// wall time, deterministic work counters, and memory high-water marks.
//
// Density is pinned to the paper's §VI-A setting (200 sensors per
// 1000 m x 1000 m field), so the field side grows as sqrt(n / 200) * 1 km
// and every tier exercises the same local geometry — n=100k is a ~22.4 km
// square city block, not a denser thicket.
//
// A second case times evaluate_plan on the planned tour and records how
// many sensors its demand check summed exactly.
//
// The n=10k tier runs in the CI perf-smoke job against a committed
// baseline (exact counter equality + wall-time threshold); the n=100k tier
// runs in the manually-triggered / nightly `scale` workflow. The
// --plan-out / --metrics-out / --trace-out outputs are the byte-identity
// artifacts CI diffs across --threads values.
//
// Memory reporting: deterministic high-water gauges (exact_cover arena
// words, shard tile sizes, trace buffers) travel in the observability
// block; the process peak RSS (VmHWM) is also captured as an informational
// metric — it is OS-dependent, so it is never a counter.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bundle/shard.h"
#include "core/bundlecharge.h"
#include "io/plan_io.h"
#include "net/deployment.h"
#include "net/metric.h"
#include "obs/metrics.h"
#include "sim/evaluate.h"
#include "support/cli.h"
#include "support/rng.h"
#include "tour/plan.h"
#include "tour/planner.h"

namespace {

// Peak resident set size in MiB from /proc/self/status (0 when the file or
// the VmHWM line is unavailable — non-Linux or restricted /proc).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

std::string tier_name(std::size_t n) {
  if (n % 1000 == 0) return std::to_string(n / 1000) + "k";
  return std::to_string(n);
}

// Deterministic 25x25 waypoint grid spanning the field, 4-connected with
// chord-weighted edges and zero obstacles. Every query therefore has line
// of sight and returns the exact Euclidean distance — the graph tier
// exercises the GraphMetric dispatch, snapping and cache machinery through
// the whole sharded planner while staying byte-comparable to the euclid
// tier.
bc::net::WaypointGraph field_grid_graph(double side) {
  constexpr std::uint32_t kPerSide = 25;
  bc::net::WaypointGraph graph;
  const double step = side / (kPerSide - 1);
  for (std::uint32_t row = 0; row < kPerSide; ++row) {
    for (std::uint32_t col = 0; col < kPerSide; ++col) {
      graph.nodes.push_back({col * step, row * step});
    }
  }
  auto id = [](std::uint32_t row, std::uint32_t col) {
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
  return graph;
}

}  // namespace

int main(int argc, char** argv) {
  bc::support::CliFlags flags(
      "End-to-end BC-SHARD planning at city scale; writes "
      "BENCH_scale_<tier>.json.");
  flags.define_string("out-dir", ".", "directory for BENCH_scale_<tier>.json");
  flags.define_int("n", 10000, "sensor count (field scales to keep density)");
  flags.define_int("repeats", 3, "timed repetitions (min is kept)");
  flags.define_int("seed", 2019, "deployment RNG seed");
  flags.define_double("radius", 60.0, "bundle generation radius (m)");
  flags.define_int("target-shard", 512, "target sensors per spatial shard");
  flags.define_int("threads", 1,
                   "worker threads (0 = BC_THREADS env or hardware); "
                   "results are identical at every thread count");
  flags.define_string("plan-out", "",
                      "write the planned tour as JSON to this path (a "
                      "byte-identity artifact across thread counts)");
  flags.define_string("metric", "euclid",
                      "movement metric: euclid | graph (zero-obstacle "
                      "waypoint grid over the field; exercises GraphMetric "
                      "dispatch at scale, writes BENCH_scale_<tier>_graph)");
  bc::bench::define_obs_flags(flags);
  if (!flags.parse(argc, argv, std::cerr)) return 2;
  if (flags.help_requested()) return 0;
  bc::bench::ensure_out_dir(flags.get_string("out-dir"));
  bc::bench::ObsControl obs(flags);

  const auto threads = static_cast<std::size_t>(flags.get_int("threads"));
  bc::support::set_thread_count(threads);
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto repeats = static_cast<std::size_t>(flags.get_int("repeats"));
  const double radius = flags.get_double("radius");

  // Constant paper density: 200 sensors per km^2.
  const double side =
      1000.0 * std::sqrt(static_cast<double>(n) / 200.0);
  bc::net::FieldSpec spec;
  spec.field = {{0.0, 0.0}, {side, side}};
  spec.depot = {0.0, 0.0};
  bc::support::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const bc::net::Deployment deployment =
      bc::net::uniform_random_deployment(n, spec, rng);

  bc::tour::PlannerConfig config =
      bc::core::icdcs2019_simulation_profile().planner;
  config.bundle_radius = radius;
  config.shard.target_shard_sensors =
      static_cast<std::size_t>(flags.get_int("target-shard"));

  const std::string metric_flag = flags.get_string("metric");
  if (metric_flag == "graph") {
    config.metric =
        std::make_shared<bc::net::GraphMetric>(field_grid_graph(side));
  } else if (metric_flag != "euclid") {
    std::cerr << "--metric must be euclid or graph; got '" << metric_flag
              << "'\n";
    return 2;
  }

  const bc::bundle::ShardGrid grid =
      bc::bundle::build_shard_grid(deployment, radius, config.shard);

  bc::tour::ChargingPlan plan;
  const std::string bench_name =
      "scale_" + tier_name(n) + (metric_flag == "graph" ? "_graph" : "");
  bc::bench::BenchReporter reporter(bench_name);
  reporter
      .time_case("bc_shard/n=" + std::to_string(n), repeats,
                 [&] {
                   plan = bc::tour::plan_charging_tour(
                       deployment, bc::tour::Algorithm::kBcSharded, config);
                 })
      .counter("stops", static_cast<std::int64_t>(plan.stops.size()))
      .counter("sensors", static_cast<std::int64_t>(n))
      .counter("shard_tiles", static_cast<std::int64_t>(grid.tiles()))
      .metric("tour_len_m",
              bc::tour::plan_tour_length(plan, config.metric.get()))
      .metric("field_side_m", side)
      .metric("peak_rss_mib", peak_rss_mib());

  // The demand check of evaluate_plan on the same plan. Its exact-sum
  // count is deterministic: perf-smoke fails if the spatial bound loosens
  // (more exact sums) or the all-stops loop comes back (wall time).
  const auto evaluation = bc::core::icdcs2019_simulation_profile().evaluation;
  const auto exact_sums = [] {
    return bc::obs::global_metrics().snapshot().counter(
        "sim.min_fraction.exact_sums");
  };
  const std::uint64_t sums_before = exact_sums();
  double min_fraction = 0.0;
  auto& evaluate_case =
      reporter.time_case("evaluate/n=" + std::to_string(n), repeats, [&] {
        min_fraction = bc::sim::evaluate_plan(deployment, plan, evaluation)
                           .min_demand_fraction;
      });
  evaluate_case
      .counter("exact_sums",
               static_cast<std::int64_t>((exact_sums() - sums_before) /
                                         repeats))
      .counter("sensors", static_cast<std::int64_t>(n))
      .metric("min_demand_fraction", min_fraction);
  reporter.write(flags.get_string("out-dir"), threads);

  const std::string plan_out = flags.get_string("plan-out");
  if (!plan_out.empty()) {
    if (!bc::io::write_plan_json_file(deployment, plan, evaluation,
                                      plan_out)) {
      std::cerr << "failed to write " << plan_out << "\n";
      return 1;
    }
  }
  return 0;
}
