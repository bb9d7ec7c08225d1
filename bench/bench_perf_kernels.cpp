// Perf-regression micro benches for the hot kernels of the planning
// pipeline: candidate bundle enumeration, the exact-cover branch & bound,
// Algorithm 2's greedy cover, TSP local search (2-opt / Or-opt), the TSP
// solve over BC's stops and Algorithm 3's relocation. The enumeration,
// exact-cover and TSP local-search kernels are timed on uniform dense
// deployments at n in {100, 300, 800}; the greedy cover runs monolithic at
// the paper's density at n in {2000, 10000}; BC-OPT plans at the paper's
// density at n = 1000 in free space and n = 200 in the walled waypoint
// world; solve_tsp orders BC's stops at the paper's density at n = 1000
// and 2000. The results are written as machine-readable
// `BENCH_<kernel>.json` files (schema: DESIGN.md §8) for the CI
// perf-smoke job to diff against `bench/baselines/`.
//
// Wall times are the minimum over --repeats runs; counters (nodes
// expanded, candidates enumerated, gain evaluations, moves applied) are
// deterministic for a given build at every thread count. The exact-cover
// case pins a node cap so before/after builds expand the same number of
// nodes and the wall-time ratio is a pure per-node-cost comparison. The
// greedy cover's `gain_evals` fails perf-smoke if the rounds x candidates
// rescan comes back, BC-OPT's `anchor_calls` and `radii_pruned` if
// Algorithm 3 loses its radius pruning, and the TSP solve's
// `certify_rows` if Or-opt certification rescans rows it could settle.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bundle/candidates.h"
#include "bundle/exact_cover.h"
#include "bundle/greedy_cover.h"
#include "core/bundlecharge.h"
#include "fixtures/paper_world.h"
#include "net/deployment.h"
#include "net/metric.h"
#include "obs/metrics.h"
#include "support/cli.h"
#include "support/rng.h"
#include "tour/planner.h"
#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/solver.h"
#include "tsp/tour.h"

namespace {

using bc::geometry::Point2;

constexpr std::size_t kSizes[] = {100, 300, 800};
constexpr double kRadius = 60.0;  // paper-scale bundle radius (§VI-A)

bc::net::Deployment make_deployment(std::size_t n, std::uint64_t seed) {
  bc::support::Rng rng(seed);
  return bc::net::uniform_random_deployment(
      n, bc::core::icdcs2019_simulation_profile().field, rng);
}

std::vector<Point2> random_points(std::size_t n, std::uint64_t seed) {
  bc::support::Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  return pts;
}

std::string case_name(std::size_t n) { return "n=" + std::to_string(n); }

void bench_candidates(const std::string& out_dir, std::size_t repeats,
                      std::size_t threads) {
  bc::bench::BenchReporter reporter("candidates");
  for (const std::size_t n : kSizes) {
    const auto d = make_deployment(n, 1000 + n);
    std::vector<bc::bundle::Bundle> result;
    reporter
        .time_case(case_name(n), repeats,
                   [&] { result = bc::bundle::enumerate_candidates(d, kRadius); })
        .counter("candidates", static_cast<std::int64_t>(result.size()));
  }
  reporter.write(out_dir, threads);
}

void bench_exact_cover(const std::string& out_dir, std::size_t repeats,
                       std::size_t threads) {
  bc::bench::BenchReporter reporter("exact_cover");
  for (const std::size_t n : kSizes) {
    const auto d = make_deployment(n, 1000 + n);
    const auto candidates = bc::bundle::enumerate_candidates(d, kRadius);
    bc::bundle::ExactCoverOptions options;
    // Fixed node cap: every build expands exactly the same node count, so
    // the wall-time ratio measures per-node cost. (Bigger instances get a
    // smaller cap to keep the suite fast.)
    options.max_nodes = n >= 800 ? 20'000 : 50'000;
    bc::bundle::CoverSolution solution;
    reporter
        .time_case(case_name(n), repeats,
                   [&] {
                     auto result = bc::bundle::exact_cover_anytime(
                         d, candidates, options);
                     solution = std::move(result.value());
                   })
        .counter("nodes_expanded",
                 static_cast<std::int64_t>(solution.nodes_expanded))
        .counter("cover_size",
                 static_cast<std::int64_t>(solution.bundles.size()))
        .counter("candidates", static_cast<std::int64_t>(candidates.size()));
  }
  reporter.write(out_dir, threads);
}

void bench_greedy_cover(const std::string& out_dir, std::size_t repeats,
                        std::size_t threads) {
  bc::bench::BenchReporter reporter("greedy_cover");
  const auto gain_evals = [] {
    return bc::obs::global_metrics().snapshot().counter(
        "greedy_cover.gain_evals");
  };
  for (const std::size_t n : {std::size_t{2000}, std::size_t{10000}}) {
    const auto d = bc::fixtures::paper_deployment(n, 3000 + n);
    const auto candidates = bc::bundle::enumerate_candidates(d, kRadius);
    std::vector<bc::bundle::Bundle> cover;
    const std::uint64_t evals_before = gain_evals();
    auto& timed = reporter.time_case(case_name(n), repeats, [&] {
      cover = bc::bundle::greedy_cover(d, candidates);
    });
    timed.counter("cover_size", static_cast<std::int64_t>(cover.size()))
        .counter("gain_evals",
                 static_cast<std::int64_t>((gain_evals() - evals_before) /
                                           repeats))
        .counter("candidates", static_cast<std::int64_t>(candidates.size()));
  }
  reporter.write(out_dir, threads);
}

void bench_bc_opt_relocate(const std::string& out_dir, std::size_t repeats,
                           std::size_t threads) {
  bc::bench::BenchReporter reporter("bc_opt_relocate");
  const auto counter = [](const char* name) {
    return bc::obs::global_metrics().snapshot().counter(name);
  };
  for (const bool walled : {false, true}) {
    const std::size_t n = walled ? 200 : 1000;
    const auto d = bc::fixtures::paper_deployment(n, 4000 + n);
    bc::tour::PlannerConfig config =
        bc::core::icdcs2019_simulation_profile().planner;
    config.bundle_radius = kRadius;
    if (walled) {
      config.metric = std::make_shared<const bc::net::GraphMetric>(
          bc::fixtures::obstacle_world(bc::fixtures::field_side_m(n)));
    }
    bc::tour::ChargingPlan plan;
    const std::uint64_t calls_before = counter("anchor.calls");
    const std::uint64_t pruned_before = counter("bc_opt.radii_pruned");
    auto& timed = reporter.time_case(
        (walled ? "walled/" : "euclid/") + case_name(n), repeats,
        [&] { plan = bc::tour::plan_bc_opt(d, config); });
    const auto per_plan = [&](const char* name, std::uint64_t before) {
      return static_cast<std::int64_t>((counter(name) - before) / repeats);
    };
    timed.counter("anchor_calls", per_plan("anchor.calls", calls_before))
        .counter("radii_pruned",
                 per_plan("bc_opt.radii_pruned", pruned_before))
        .counter("stops", static_cast<std::int64_t>(plan.stops.size()));
  }
  reporter.write(out_dir, threads);
}

void bench_tsp_improve(const std::string& out_dir, std::size_t repeats,
                       std::size_t threads) {
  bc::bench::BenchReporter reporter("tsp_improve");
  for (const std::size_t n : kSizes) {
    const auto pts = random_points(n, 2000 + n);
    const bc::tsp::Tour start = bc::tsp::nearest_neighbor_tour(pts, 0);
    const double len_before = bc::tsp::tour_length(pts, start);

    bc::tsp::Tour improved;
    reporter
        .time_case("two_opt/" + case_name(n), repeats,
                   [&] {
                     improved = start;
                     bc::tsp::two_opt(pts, improved);
                   })
        .metric("tour_len_before", len_before)
        .metric("tour_len_after", bc::tsp::tour_length(pts, improved));

    reporter
        .time_case("or_opt/" + case_name(n), repeats,
                   [&] {
                     improved = start;
                     bc::tsp::or_opt(pts, improved);
                   })
        .metric("tour_len_after", bc::tsp::tour_length(pts, improved));
  }
  reporter.write(out_dir, threads);
}

// BC's tour solve alone: solve_tsp over the depot and BC's stops at the
// paper's density, as plan_bc orders them. `certify_rows` counts the
// Or-opt certification rows scanned in full rather than settled from a
// record; it fails perf-smoke if certification goes back to full sweeps.
void bench_tsp_solve(const std::string& out_dir, std::size_t repeats,
                     std::size_t threads) {
  bc::bench::BenchReporter reporter("tsp_solve");
  const auto counter = [](const char* name) {
    return bc::obs::global_metrics().snapshot().counter(name);
  };
  for (const std::size_t n : {std::size_t{1000}, std::size_t{2000}}) {
    const auto d = bc::fixtures::paper_deployment(n, 5000 + n);
    bc::tour::PlannerConfig config =
        bc::core::icdcs2019_simulation_profile().planner;
    config.bundle_radius = kRadius;
    std::vector<Point2> points{d.depot()};
    for (const auto& stop : bc::tour::plan_bc(d, config).stops) {
      points.push_back(stop.position);
    }
    bc::tsp::Tour tour;
    const std::uint64_t moves_before = counter("tsp.or_opt.moves");
    const std::uint64_t rows_before = counter("tsp.or_opt.certify_rows");
    auto& timed = reporter.time_case(case_name(n), repeats, [&] {
      tour = bc::tsp::solve_tsp(points, config.tsp);
    });
    const auto per_solve = [&](const char* name, std::uint64_t before) {
      return static_cast<std::int64_t>((counter(name) - before) / repeats);
    };
    timed.counter("or_opt_moves", per_solve("tsp.or_opt.moves", moves_before))
        .counter("certify_rows",
                 per_solve("tsp.or_opt.certify_rows", rows_before))
        .counter("stops", static_cast<std::int64_t>(points.size() - 1))
        .metric("tour_len", bc::tsp::tour_length(points, tour));
  }
  reporter.write(out_dir, threads);
}

}  // namespace

int main(int argc, char** argv) {
  bc::support::CliFlags flags(
      "Hot-kernel perf benches; writes BENCH_<kernel>.json per kernel.");
  flags.define_string("out-dir", ".", "directory for BENCH_<kernel>.json");
  flags.define_int("repeats", 5, "timed repetitions per case (min is kept)");
  flags.define_int("threads", 1,
                   "worker threads (acceptance numbers use 1; counters are "
                   "identical at every thread count)");
  bc::bench::define_obs_flags(flags);
  if (!flags.parse(argc, argv, std::cerr)) return 2;
  if (flags.help_requested()) return 0;
  bc::bench::ensure_out_dir(flags.get_string("out-dir"));
  bc::bench::ObsControl obs(flags);

  const auto threads = static_cast<std::size_t>(flags.get_int("threads"));
  const auto repeats = static_cast<std::size_t>(flags.get_int("repeats"));
  bc::support::set_thread_count(threads);
  const std::string out_dir = flags.get_string("out-dir");

  bench_candidates(out_dir, repeats, threads);
  bench_exact_cover(out_dir, repeats, threads);
  bench_greedy_cover(out_dir, repeats, threads);
  bench_bc_opt_relocate(out_dir, repeats, threads);
  bench_tsp_improve(out_dir, repeats, threads);
  bench_tsp_solve(out_dir, repeats, threads);
  return 0;
}
