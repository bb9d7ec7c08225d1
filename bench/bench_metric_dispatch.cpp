// Metric-dispatch overhead gate: the MetricSpace abstraction must not tax
// the Euclidean hot path.
//
// The repo-wide convention is that a null metric pointer *is* Euclidean —
// net::metric_distance folds the null check into a predicted branch ahead
// of the inline geometry::distance call, so pre-metric code keeps its
// exact FP sequence and its speed. This bench measures that claim on the
// n=300 TSP-improvement kernel (the hottest distance consumer) and on a
// raw pairwise distance-sum loop, comparing in one process:
//
//   null      metric == nullptr            (the production fast path)
//   virtual   &EuclideanMetric::instance() (full virtual dispatch)
//
// Both paths must return bit-identical results, and the virtual path must
// stay within --max-ratio (default 1.05) of the null path — the dispatch
// overhead itself, measured in one process so shared-runner noise cancels
// instead of flaking the way a cross-machine wall-clock diff at 5% would.
// The null path needs no in-process reference: it *is* the pre-metric
// inline code (same FP sequence, same instructions), so its absolute cost
// is guarded by the committed n=300 kernel baselines that
// check_bench_regression.py already diffs in the same CI job.
//
// Exit status: 0 = within the gate, 1 = overhead above --max-ratio or a
// result mismatch, 2 = bad flags.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/metric.h"
#include "support/cli.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/tour.h"

namespace {

using bc::geometry::Point2;

std::vector<Point2> random_points(std::size_t n, std::uint64_t seed) {
  bc::support::Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  return pts;
}

// Minimum wall time over `repeats` runs — the least noisy estimator of
// the true kernel cost on a shared machine (same policy as
// BenchReporter::time_case, which keeps its minimum private).
template <typename Fn>
double min_wall_ms(std::size_t repeats, Fn&& fn) {
  double best_ms = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

// Pairwise distance sum through the metric_distance idiom; isolates the
// per-call dispatch cost from the 2-opt bookkeeping around it.
double distance_sum(const std::vector<Point2>& pts,
                    const bc::net::MetricSpace* metric) {
  double total = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      total += bc::net::metric_distance(metric, pts[i], pts[j]);
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bc::support::CliFlags flags(
      "Euclidean metric-dispatch overhead gate (null pointer vs virtual "
      "EuclideanMetric); writes BENCH_metric_dispatch.json.");
  flags.define_string("out-dir", ".", "directory for the JSON report");
  flags.define_int("repeats", 15, "timed repetitions per case (min is kept)");
  flags.define_int("n", 300, "kernel size (matches the committed baselines)");
  flags.define_double("max-ratio", 1.05,
                      "gate: virtual Euclidean dispatch must stay within "
                      "this factor of the null-metric fast path");
  if (!flags.parse(argc, argv, std::cerr)) return 2;
  if (flags.help_requested()) return 0;
  bc::bench::ensure_out_dir(flags.get_string("out-dir"));

  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto repeats = static_cast<std::size_t>(flags.get_int("repeats"));
  const double max_ratio = flags.get_double("max-ratio");
  const std::string out_dir = flags.get_string("out-dir");
  bc::support::set_thread_count(1);  // single-threaded kernels; no pool noise

  const std::vector<Point2> pts = random_points(n, 2000 + n);
  const bc::tsp::Tour start = bc::tsp::nearest_neighbor_tour(pts, 0);
  const bc::net::EuclideanMetric& euclid = bc::net::EuclideanMetric::instance();

  bc::tsp::ImproveOptions null_options;  // metric == nullptr
  bc::tsp::ImproveOptions virtual_options;
  virtual_options.metric = &euclid;

  bc::tsp::Tour null_tour;
  const double null_ms = min_wall_ms(repeats, [&] {
    null_tour = start;
    bc::tsp::two_opt(pts, null_tour, null_options);
  });
  bc::tsp::Tour virtual_tour;
  const double virtual_ms = min_wall_ms(repeats, [&] {
    virtual_tour = start;
    bc::tsp::two_opt(pts, virtual_tour, virtual_options);
  });

  double null_sum = 0.0;
  const double raw_null_ms =
      min_wall_ms(repeats, [&] { null_sum = distance_sum(pts, nullptr); });
  double virtual_sum = 0.0;
  const double raw_virtual_ms =
      min_wall_ms(repeats, [&] { virtual_sum = distance_sum(pts, &euclid); });

  const double two_opt_ratio = virtual_ms / null_ms;
  const double raw_ratio = raw_virtual_ms / raw_null_ms;
  const std::string suffix = "/n=" + std::to_string(n);

  bc::bench::BenchReporter reporter("metric_dispatch");
  reporter.add_case("two_opt_null" + suffix, null_ms, repeats)
      .metric("tour_len", bc::tsp::tour_length(pts, null_tour));
  reporter.add_case("two_opt_virtual" + suffix, virtual_ms, repeats)
      .metric("tour_len", bc::tsp::tour_length(pts, virtual_tour))
      .metric("virtual_over_null", two_opt_ratio);
  reporter.add_case("distance_sum_null" + suffix, raw_null_ms, repeats)
      .metric("sum_m", null_sum);
  reporter.add_case("distance_sum_virtual" + suffix, raw_virtual_ms, repeats)
      .metric("sum_m", virtual_sum)
      .metric("virtual_over_null", raw_ratio);
  reporter.write(out_dir, 1);

  // Differential check: both dispatch paths must be bit-identical.
  if (null_tour != virtual_tour) {
    std::cerr << "FAIL: null-metric and virtual-Euclidean two_opt tours "
                 "diverged\n";
    return 1;
  }
  if (null_sum != virtual_sum) {
    std::cerr << "FAIL: null-metric and virtual-Euclidean distance sums "
                 "diverged\n";
    return 1;
  }

  // The gate: explicit virtual dispatch must not cost more than
  // max_ratio x the inline null fast path on either kernel. (Virtual
  // being *faster* is fine — that is code-layout noise, not overhead.)
  if (virtual_ms > max_ratio * null_ms ||
      raw_virtual_ms > max_ratio * raw_null_ms) {
    std::cerr << "FAIL: virtual Euclidean dispatch exceeds " << max_ratio
              << "x the null fast path (two_opt " << virtual_ms << " vs "
              << null_ms << " ms, distance_sum " << raw_virtual_ms << " vs "
              << raw_null_ms << " ms)\n";
    return 1;
  }
  std::cout << "dispatch gate passed (max-ratio " << max_ratio << ")\n";
  return 0;
}
