// Golden-trace determinism suite (`ctest -L obs`): under the virtual
// clock, a full planning workload must serialise to *byte-identical*
// trace journals and metrics snapshots at BC_THREADS = 1, 2 and 8, and
// across back-to-back reruns. This is the executable form of the
// observability determinism contract (DESIGN.md §9): spans only from
// serial control flow, integer-only metric merges.

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundlecharge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace bc::obs {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

struct GoldenCapture {
  std::string trace_jsonl;
  std::string metrics_json;
};

// The workload walks the whole solver ladder: three planning algorithms
// (candidate enumeration, exact cover, 2-opt/Or-opt, anchor search) plus
// a parallel radius sweep whose per-cell planning runs on pool workers —
// exactly the place where naive tracing would diverge across BC_THREADS.
void run_workload(const net::Deployment& deployment) {
  const core::BundleChargingPlanner planner(
      core::icdcs2019_simulation_profile());
  for (const auto algorithm :
       {tour::Algorithm::kSc, tour::Algorithm::kBc, tour::Algorithm::kBcOpt}) {
    planner.plan(deployment, algorithm);
  }
  // The default generator covers greedily; one exact-generator plan pulls
  // the branch & bound into the journal too (capped so the suite stays
  // fast — the cap itself is part of the pinned behaviour).
  core::Profile exact_profile = core::icdcs2019_simulation_profile();
  exact_profile.planner.generator.kind = bundle::GeneratorKind::kExact;
  exact_profile.planner.generator.exact.max_nodes = 20'000;
  core::BundleChargingPlanner(exact_profile)
      .plan(deployment, tour::Algorithm::kBc);
  planner.sweep_radius(deployment, tour::Algorithm::kBc, /*min_radius=*/30.0,
                       /*max_radius=*/80.0, /*steps=*/4);
}

GoldenCapture capture(const net::Deployment& deployment, std::size_t threads) {
  support::set_thread_count(threads);
  MetricsRegistry registry;
  ScopedMetricsRegistry metrics_scope(registry);
  TraceJournal journal(std::make_unique<VirtualTraceClock>());
  {
    ScopedTraceJournal trace_scope(journal);
    run_workload(deployment);
  }
  GoldenCapture out;
  out.trace_jsonl = journal.to_jsonl();
  out.metrics_json = registry.snapshot().to_json();
  support::set_thread_count(0);
  return out;
}

net::Deployment golden_deployment() {
  support::Rng rng(7);
  return net::uniform_random_deployment(
      60, core::icdcs2019_simulation_profile().field, rng);
}

TEST(GoldenTraceTest, ByteIdenticalAcrossThreadCounts) {
  const net::Deployment deployment = golden_deployment();
  const GoldenCapture reference = capture(deployment, kThreadCounts[0]);
  ASSERT_FALSE(reference.trace_jsonl.empty());
  ASSERT_FALSE(reference.metrics_json.empty());
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    const GoldenCapture other = capture(deployment, kThreadCounts[i]);
    EXPECT_EQ(reference.trace_jsonl, other.trace_jsonl)
        << "trace journal diverged at BC_THREADS=" << kThreadCounts[i];
    EXPECT_EQ(reference.metrics_json, other.metrics_json)
        << "metrics snapshot diverged at BC_THREADS=" << kThreadCounts[i];
  }
}

TEST(GoldenTraceTest, ByteIdenticalAcrossReruns) {
  const net::Deployment deployment = golden_deployment();
  const GoldenCapture first = capture(deployment, 2);
  const GoldenCapture second = capture(deployment, 2);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(GoldenTraceTest, JournalCoversTheSolverLadder) {
  const net::Deployment deployment = golden_deployment();
  const GoldenCapture captured = capture(deployment, 1);

  // Header first, then every record carries a seq in order.
  EXPECT_EQ(captured.trace_jsonl.rfind(
                "{\"schema\": \"bc-trace\", \"version\": 1, "
                "\"clock\": \"virtual\"}\n",
                0),
            0u);

  const std::set<std::string> expected = {
      "\"name\": \"core.plan\"",
      "\"name\": \"core.sweep_radius\"",
      "\"name\": \"plan\"",
      "\"name\": \"candidates.enumerate\"",
      "\"name\": \"exact_cover.search\"",
      "\"name\": \"tsp.two_opt\"",
      "\"name\": \"tsp.or_opt\"",
      "\"name\": \"tour.relocate\"",
  };
  for (const std::string& needle : expected) {
    EXPECT_NE(captured.trace_jsonl.find(needle), std::string::npos)
        << "journal is missing " << needle;
  }

  // The parallel sweep's per-cell plans run on workers: suppressed. The
  // sweep span itself is the only record between its own t0 and the
  // preceding serial record, so no "plan" span may sit inside the sweep.
  // Cheap structural proxy: the last record is the sweep span (it closes
  // last), and record count matches the three serial plans exactly.
  const auto sweep_pos = captured.trace_jsonl.find("core.sweep_radius");
  ASSERT_NE(sweep_pos, std::string::npos);
  EXPECT_EQ(captured.trace_jsonl.find("\"name\": \"plan\"", sweep_pos),
            std::string::npos)
      << "a per-cell plan span leaked out of the parallel radius sweep";
}

TEST(GoldenTraceTest, MetricsCoverTheSolverLadder) {
  const net::Deployment deployment = golden_deployment();
  support::set_thread_count(1);
  MetricsRegistry registry;
  ScopedMetricsRegistry scope(registry);
  run_workload(deployment);
  const MetricsSnapshot snap = registry.snapshot();
  support::set_thread_count(0);

  for (const char* name :
       {"candidates.calls", "candidates.enumerated", "exact_cover.calls",
        "exact_cover.nodes_expanded", "tsp.two_opt.calls", "tsp.or_opt.calls",
        "anchor.calls", "planner.plans"}) {
    EXPECT_GT(snap.counter(name), 0u) << "metric " << name << " never fired";
  }
  EXPECT_GT(snap.gauge("exact_cover.max_depth"), 0u);
  // 3 direct plans + 1 exact-generator plan + 4 sweep cells.
  EXPECT_EQ(snap.counter("planner.plans"), 8u);
}

}  // namespace
}  // namespace bc::obs
