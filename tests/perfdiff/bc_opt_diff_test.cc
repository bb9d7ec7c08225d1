// Differential suite for Algorithm 3's certified radius pruning (`ctest -L
// perf-diff`): plan_bc_opt must return the plans of the unpruned sweep in
// tests/oracles/bc_opt_reference bit for bit, and leave a node-capped meter
// where the sweep leaves it, on paper-density fields from n = 50 to 1000
// at r = 15 to 100 m, with exact charging evaluation, a displacement cap,
// a charging profile costly enough to freeze every anchor, and caps that
// trip inside the relocation sweep. The walled-world and graph-metric
// cases are in tests/metric/bc_opt_metric_diff_test.cc.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/profiles.h"
#include "fixtures/bc_opt_diff.h"
#include "fixtures/paper_world.h"
#include "support/deadline.h"
#include "tour/planner.h"

namespace bc::tour {
namespace {

using fixtures::expect_matches_reference;
using fixtures::paper_deployment;
using fixtures::run_label;

PlannerConfig paper_config(double radius) {
  PlannerConfig config = core::icdcs2019_simulation_profile().planner;
  config.bundle_radius = radius;
  return config;
}

TEST(BcOptDifferentialTest, MatchesTheUnprunedSweepOnPaperFields) {
  struct Field {
    std::size_t n;
    std::uint64_t seed;
  };
  constexpr Field kFields[] = {{50, 31}, {120, 32}, {300, 33}, {1000, 34}};
  std::uint64_t calls = 0;
  std::uint64_t reference_calls = 0;
  for (const Field& f : kFields) {
    const net::Deployment d = paper_deployment(f.n, f.seed);
    for (const double r : {15.0, 30.0, 60.0, 100.0}) {
      const auto counts = expect_matches_reference(d, paper_config(r),
                                                   run_label(f.n, f.seed, r));
      calls += counts.anchor_calls;
      reference_calls += counts.reference_anchor_calls;
    }
  }
  // The pruning must actually skip searches, or this suite diffs nothing.
  EXPECT_LT(calls * 2, reference_calls);
}

TEST(BcOptDifferentialTest, ExactChargingEvalIsNotPruned) {
  // Its charging term depends on the candidate point, not on d alone.
  for (const std::uint64_t seed : {41u, 42u}) {
    const net::Deployment d = paper_deployment(200, seed);
    PlannerConfig config = paper_config(60.0);
    config.opt.exact_charging_eval = true;
    const auto counts =
        expect_matches_reference(d, config, run_label(200, seed, 60.0));
    EXPECT_EQ(counts.radii_pruned, 0u);
    EXPECT_EQ(counts.anchor_calls, counts.reference_anchor_calls);
  }
}

TEST(BcOptDifferentialTest, DisplacementCapsAndStepCounts) {
  const net::Deployment d = paper_deployment(200, 43);
  for (const double cap_m : {0.5, 5.0, 40.0, 400.0}) {
    for (const std::size_t steps : {1u, 7u, 24u}) {
      PlannerConfig config = paper_config(30.0);
      config.opt.max_displacement_m = cap_m;
      config.opt.radius_steps = steps;
      std::string label = "cap=" + std::to_string(cap_m);
      label += " steps=" + std::to_string(steps);
      expect_matches_reference(d, config, label);
    }
  }
}

TEST(BcOptDifferentialTest, CostlyChargingFreezesAnchorsAlike) {
  // BcOptPlannerTest.ExpensiveChargingFreezesAnchors's profile: no move
  // pays. Its marginal-cost cap is 0, so no radius is swept; forced to
  // sweep 30 m, nearly every radius is priced out before its search.
  for (const std::uint64_t seed : {10u, 44u}) {
    const net::Deployment d = paper_deployment(100, seed);
    PlannerConfig config = paper_config(20.0);
    config.charging = charging::ChargingModel(36.0, 30.0, 3.0, 3000.0);
    expect_matches_reference(d, config, run_label(100, seed, 20.0));
    config.opt.max_displacement_m = 30.0;
    const auto counts = expect_matches_reference(
        d, config, run_label(100, seed, 20.0) + " cap=30");
    EXPECT_GT(counts.radii_pruned * 10, counts.radii * 9);
  }
}

TEST(BcOptDifferentialTest, NodeCapsTrippingInsideTheSweep) {
  // The meter is charged once per stop visit, so caps between BC's own
  // units and the unpruned plan's total trip at stops spread over every
  // relocation round; the last caps never trip.
  for (const std::uint64_t seed : {45u, 46u}) {
    const net::Deployment d = paper_deployment(200, seed);
    const PlannerConfig base = paper_config(60.0);
    support::BudgetMeter bc_units;
    plan_bc(d, base, &bc_units);
    support::BudgetMeter total_units;
    plan_bc_opt_reference(d, base, &total_units);
    const std::size_t lo = bc_units.nodes_used();
    const std::size_t hi = total_units.nodes_used();
    ASSERT_GT(hi, lo + 20);
    std::vector<std::size_t> caps = {lo - 1, lo, lo + 1, hi, hi + 1};
    for (std::size_t cap = lo + 2; cap < hi; cap += 1 + (hi - lo) / 23) {
      caps.push_back(cap);
    }
    for (const std::size_t cap : caps) {
      PlannerConfig config = base;
      config.budget.node_cap = cap;
      std::string label = run_label(200, seed, 60.0);
      label += " cap=" + std::to_string(cap);
      expect_matches_reference(d, config, label);
    }
  }
}

}  // namespace
}  // namespace bc::tour
