// Metric-invariant suite (`ctest -L obs`): the observability counters
// must agree with the ground truth the solvers already report through
// their return values — a drifting counter is an instrumentation bug
// (or a behaviour change) even when the solver output is right.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bundle/candidates.h"
#include "bundle/exact_cover.h"
#include "bundle/greedy_cover.h"
#include "core/bundlecharge.h"
#include "fixtures/paper_world.h"
#include "net/deployment.h"
#include "obs/metrics.h"
#include "oracles/improve_reference.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tour/planner.h"
#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/tour.h"

namespace bc::obs {
namespace {

using geometry::Point2;

net::Deployment make_deployment(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return net::uniform_random_deployment(
      n, core::icdcs2019_simulation_profile().field, rng);
}

std::vector<Point2> random_points(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  return pts;
}

TEST(MetricInvariantsTest, ExactCoverNodeCounterMatchesReturnedCount) {
  // The obs counter is flushed from the searcher's own node count, summed
  // over calls; the per-call ground truth is CoverSolution::nodes_expanded.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(registry);
  std::uint64_t expected_nodes = 0;
  std::uint64_t expected_calls = 0;
  for (const std::size_t n : {40u, 80u, 120u}) {
    const auto deployment = make_deployment(n, 9000 + n);
    const auto candidates =
        bundle::enumerate_candidates(deployment, /*radius=*/60.0);
    bundle::ExactCoverOptions options;
    options.max_nodes = 50'000;
    const auto solution =
        bundle::exact_cover_anytime(deployment, candidates, options);
    ASSERT_TRUE(solution.has_value());
    expected_nodes += solution.value().nodes_expanded;
    ++expected_calls;
  }
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("exact_cover.nodes_expanded"), expected_nodes);
  EXPECT_EQ(snap.counter("exact_cover.calls"), expected_calls);
}

TEST(MetricInvariantsTest, CandidateCountersBalance) {
  // Conservation law of the enumeration pipeline: every emitted pair-set
  // is either dropped inside its seed (equal to or inside a same-seed
  // set), a dedup hit or a distinct survivor, and every survivor (and
  // every singleton) is either pruned as dominated or returned. So, per
  // call:
  //   enumerated == n + sets_emitted - seed_pruned - dedup_hits
  //                   - dominated_pruned
  // and `enumerated` must equal the size of the returned pool.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    support::set_thread_count(threads);
    for (const std::size_t n : {30u, 60u, 120u}) {
      MetricsRegistry registry;
      ScopedMetricsRegistry scope(registry);
      const auto deployment = make_deployment(n, 5000 + n);
      const auto pool =
          bundle::enumerate_candidates(deployment, /*radius=*/60.0);
      const MetricsSnapshot snap = registry.snapshot();
      EXPECT_EQ(snap.counter("candidates.enumerated"), pool.size())
          << "n=" << n << " threads=" << threads;
      EXPECT_EQ(snap.counter("candidates.enumerated"),
                n + snap.counter("candidates.sets_emitted") -
                    snap.counter("candidates.seed_pruned") -
                    snap.counter("candidates.dedup_hits") -
                    snap.counter("candidates.dominated_pruned"))
          << "n=" << n << " threads=" << threads;
      EXPECT_GT(snap.counter("candidates.seed_pruned"), 0u) << "n=" << n;
    }
  }
  support::set_thread_count(0);
}

TEST(MetricInvariantsTest, GreedyCoverCountersBoundTheWork) {
  // One round per picked bundle, at least one gain evaluation per round,
  // and at most one per live candidate per round plus the pick's own
  // re-check — the full scan's rounds x candidates is the ceiling, and the
  // lazy heap must stay well below it on a 1 km^2 field.
  for (const std::size_t n : {60u, 400u}) {
    MetricsRegistry registry;
    ScopedMetricsRegistry scope(registry);
    const auto deployment = make_deployment(n, 8100 + n);
    const auto candidates =
        bundle::enumerate_candidates(deployment, /*radius=*/60.0);
    const auto cover = bundle::greedy_cover(deployment, candidates);
    const MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t rounds = snap.counter("greedy_cover.rounds");
    const std::uint64_t evals = snap.counter("greedy_cover.gain_evals");
    EXPECT_EQ(rounds, cover.size()) << "n=" << n;
    EXPECT_LE(rounds, evals) << "n=" << n;
    EXPECT_LE(evals, rounds * (candidates.size() + 1)) << "n=" << n;
    if (n >= 400) {
      EXPECT_LT(evals * 10, rounds * candidates.size()) << "n=" << n;
    }
  }
}

TEST(MetricInvariantsTest, TwoOptMoveCounterConsistentWithGain) {
  // moves > 0 exactly when the returned gain is positive, and the move
  // histogram records one observation per accepted move.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(registry);
  const auto pts = random_points(120, 4242);
  tsp::Tour tour = tsp::nearest_neighbor_tour(pts, 0);
  const double gain = tsp::two_opt(pts, tour);
  const MetricsSnapshot snap = registry.snapshot();
  const std::uint64_t moves = snap.counter("tsp.two_opt.moves");
  ASSERT_GT(gain, 0.0);  // NN tours on random points always improve
  EXPECT_GT(moves, 0u);
  const auto* hist = snap.histogram("tsp.two_opt.move_gain");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total, moves);
  EXPECT_GE(snap.counter("tsp.two_opt.passes"), 1u);
  EXPECT_GE(snap.counter("tsp.two_opt.certify_sweeps"), 1u);
}

TEST(MetricInvariantsTest, TwoOptCounterConsistentWithReference) {
  // Cross-implementation consistency: the neighbour-list 2-opt certifies
  // a full-neighbourhood local optimum, so the reference scanner must
  // find zero improving moves on its output — checked here through the
  // reference's own obs counter, not just its return value. And on an
  // already-optimal tour the production improver must report zero moves.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(registry);
  const auto pts = random_points(90, 1717);
  tsp::Tour tour = tsp::nearest_neighbor_tour(pts, 0);
  tsp::two_opt(pts, tour);

  MetricsRegistry after;
  {
    ScopedMetricsRegistry after_scope(after);
    const double ref_gain = tsp::two_opt_reference(pts, tour);
    EXPECT_DOUBLE_EQ(ref_gain, 0.0);
    const double prod_gain = tsp::two_opt(pts, tour);
    EXPECT_DOUBLE_EQ(prod_gain, 0.0);
  }
  const MetricsSnapshot snap = after.snapshot();
  EXPECT_EQ(snap.counter("tsp.two_opt_reference.moves"), 0u);
  EXPECT_EQ(snap.counter("tsp.two_opt_reference.calls"), 1u);
  EXPECT_EQ(snap.counter("tsp.two_opt.moves"), 0u);
  EXPECT_EQ(snap.histogram("tsp.two_opt.move_gain"), nullptr)
      << "no moves were applied, so the gain histogram must stay empty";
}

TEST(MetricInvariantsTest, ReferenceMovesMatchItsOwnGainAccounting) {
  // The reference improver flushes one counter per accepted move; on a
  // fresh NN tour that count must be positive exactly when gain is.
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(registry);
  const auto pts = random_points(80, 2626);
  tsp::Tour tour = tsp::nearest_neighbor_tour(pts, 0);
  const double gain = tsp::two_opt_reference(pts, tour);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_GT(gain, 0.0);
  EXPECT_GT(snap.counter("tsp.two_opt_reference.moves"), 0u);
}

TEST(MetricInvariantsTest, DemandCheckSumsBetweenOneAndEverySensor) {
  // Each evaluate_plan adds its sensor count and the exact received-energy
  // sums its demand check spent: at least one (the minimum is always a
  // real sum) and at most one per sensor.
  const core::BundleChargingPlanner planner(
      core::icdcs2019_simulation_profile());
  for (const std::size_t n : {1u, 30u, 400u}) {
    for (const auto algorithm : {tour::Algorithm::kSc, tour::Algorithm::kBc}) {
      MetricsRegistry registry;
      ScopedMetricsRegistry scope(registry);
      planner.plan(make_deployment(n, 7000 + n), algorithm);
      const MetricsSnapshot snap = registry.snapshot();
      const std::uint64_t sums = snap.counter("sim.min_fraction.exact_sums");
      EXPECT_EQ(snap.counter("sim.min_fraction.sensors"), n);
      EXPECT_GE(sums, 1u) << "n=" << n;
      EXPECT_LE(sums, n) << "n=" << n;
    }
  }
}

TEST(MetricInvariantsTest, RelocationSearchesAreTheRadiiNotPruned) {
  // Algorithm 3 runs one anchor search per displacement radius k >= 1 of
  // each stop it evaluates, unless the radius's certified bound prices it
  // out first; BC's own stages run none. At paper density the bound must
  // actually prune.
  for (const std::size_t n : {60u, 200u}) {
    MetricsRegistry registry;
    ScopedMetricsRegistry scope(registry);
    tour::PlannerConfig config = core::icdcs2019_simulation_profile().planner;
    config.bundle_radius = 60.0;
    tour::plan_bc_opt(fixtures::paper_deployment(n, 6100 + n), config);
    const MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t radii = snap.counter("bc_opt.radii");
    const std::uint64_t pruned = snap.counter("bc_opt.radii_pruned");
    EXPECT_EQ(snap.counter("anchor.calls"), radii - pruned) << "n=" << n;
    EXPECT_GT(pruned, 0u) << "n=" << n;
    EXPECT_LT(pruned, radii) << "n=" << n;
  }
}

TEST(MetricInvariantsTest, CountersAreThreadCountInvariant) {
  // The full solver-ladder metric snapshot is part of the determinism
  // contract: identical at every BC_THREADS, not merely "all events
  // counted". (The golden-trace suite pins the serialised bytes; this
  // pins the semantic values through the lookup API.)
  const auto deployment = make_deployment(100, 3131);
  auto run = [&](std::size_t threads) {
    support::set_thread_count(threads);
    MetricsRegistry registry;
    ScopedMetricsRegistry scope(registry);
    const core::BundleChargingPlanner planner(
        core::icdcs2019_simulation_profile());
    planner.plan(deployment, tour::Algorithm::kBcOpt);
    const MetricsSnapshot snap = registry.snapshot();
    support::set_thread_count(0);
    return snap;
  };
  const MetricsSnapshot at1 = run(1);
  const MetricsSnapshot at8 = run(8);
  EXPECT_EQ(at1.counter("exact_cover.nodes_expanded"),
            at8.counter("exact_cover.nodes_expanded"));
  EXPECT_EQ(at1.counter("candidates.enumerated"),
            at8.counter("candidates.enumerated"));
  EXPECT_EQ(at1.counter("tsp.two_opt.moves"),
            at8.counter("tsp.two_opt.moves"));
  EXPECT_EQ(at1.counter("anchor.bisection_iters"),
            at8.counter("anchor.bisection_iters"));
  EXPECT_EQ(at1.to_json(), at8.to_json());
}

}  // namespace
}  // namespace bc::obs
