// The check shared by the Algorithm 3 differential suites: plan_bc_opt
// against the unpruned sweep in tests/oracles/bc_opt_reference, bit for
// bit, with the relocation counters of both runs.

#ifndef BUNDLECHARGE_TESTS_FIXTURES_BC_OPT_DIFF_H_
#define BUNDLECHARGE_TESTS_FIXTURES_BC_OPT_DIFF_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "net/deployment.h"
#include "obs/metrics.h"
#include "oracles/bc_opt_reference.h"
#include "support/deadline.h"
#include "tour/planner.h"

namespace bc::fixtures {

struct RelocationCounts {
  std::uint64_t anchor_calls = 0;
  std::uint64_t reference_anchor_calls = 0;
  std::uint64_t radii = 0;
  std::uint64_t radii_pruned = 0;
};

// "n=200 seed=11 r=60".
inline std::string run_label(std::size_t n, std::uint64_t seed, double r) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "n=%zu seed=%llu r=%g", n,
                static_cast<unsigned long long>(seed), r);
  return buffer;
}

inline void expect_same_plan(const tour::ChargingPlan& got,
                             const tour::ChargingPlan& want,
                             const std::string& label) {
  ASSERT_EQ(got.stops.size(), want.stops.size()) << label;
  EXPECT_EQ(got.algorithm, want.algorithm) << label;
  for (std::size_t k = 0; k < got.stops.size(); ++k) {
    const geometry::Point2 g = got.stops[k].position;
    const geometry::Point2 w = want.stops[k].position;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.x),
              std::bit_cast<std::uint64_t>(w.x))
        << label << " stop " << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.y),
              std::bit_cast<std::uint64_t>(w.y))
        << label << " stop " << k;
    ASSERT_EQ(got.stops[k].members, want.stops[k].members)
        << label << " stop " << k;
  }
}

// Plans with both and expects the same plan. A node-capped config runs
// each planner on its own meter, and both meters must end alike.
inline RelocationCounts expect_matches_reference(
    const net::Deployment& deployment, const tour::PlannerConfig& config,
    const std::string& label) {
  const bool capped = config.budget.node_cap != 0;
  support::BudgetMeter want_meter(config.budget);
  support::BudgetMeter got_meter(config.budget);
  RelocationCounts counts;
  tour::ChargingPlan want;
  {
    obs::MetricsRegistry registry;
    obs::ScopedMetricsRegistry scope(registry);
    want = tour::plan_bc_opt_reference(deployment, config,
                                       capped ? &want_meter : nullptr);
    counts.reference_anchor_calls =
        registry.snapshot().counter("anchor.calls");
  }
  tour::ChargingPlan got;
  {
    obs::MetricsRegistry registry;
    obs::ScopedMetricsRegistry scope(registry);
    got = tour::plan_bc_opt(deployment, config, capped ? &got_meter : nullptr);
    const obs::MetricsSnapshot snap = registry.snapshot();
    counts.anchor_calls = snap.counter("anchor.calls");
    counts.radii = snap.counter("bc_opt.radii");
    counts.radii_pruned = snap.counter("bc_opt.radii_pruned");
  }
  expect_same_plan(got, want, label);
  EXPECT_EQ(got_meter.nodes_used(), want_meter.nodes_used()) << label;
  EXPECT_EQ(got_meter.trip(), want_meter.trip()) << label;
  EXPECT_EQ(counts.anchor_calls, counts.radii - counts.radii_pruned) << label;
  EXPECT_LE(counts.anchor_calls, counts.reference_anchor_calls) << label;
  return counts;
}

}  // namespace bc::fixtures

#endif  // BUNDLECHARGE_TESTS_FIXTURES_BC_OPT_DIFF_H_
