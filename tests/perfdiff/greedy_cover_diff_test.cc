// Differential suite for Algorithm 2's lazy greedy cover (`ctest -L
// perf-diff`): `greedy_cover` must return the bundles of the round-by-round
// scan in tests/oracles/greedy_cover_reference bit for bit — on uniform,
// clustered, collinear and coincident fields and on grids whose congruent
// bundles tie on radius, so the (radius, front member, index) order
// decides picks — and leave a node-capped meter exactly where the scan
// leaves it, whether the cap falls on a round boundary or inside a round.

#include "bundle/greedy_cover.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bundle/candidates.h"
#include "fixtures/cover_fields.h"
#include "oracles/candidates_reference.h"
#include "oracles/greedy_cover_reference.h"
#include "support/deadline.h"
#include "support/parallel.h"

namespace bc::bundle {
namespace {

void expect_same_bundles(const std::vector<Bundle>& got,
                         const std::vector<Bundle>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].members, want[k].members) << label << " k=" << k;
    ASSERT_EQ(got[k].radius, want[k].radius) << label << " k=" << k;
    ASSERT_EQ(got[k].anchor.x, want[k].anchor.x) << label << " k=" << k;
    ASSERT_EQ(got[k].anchor.y, want[k].anchor.y) << label << " k=" << k;
  }
}

// Candidate universes over one field: the maximal family, the unpruned
// family (nested sets, so gains tie often), and the maximal family with
// its first half repeated at the end (identical keys, index decides).
std::vector<std::pair<std::string, std::vector<Bundle>>> universes(
    const net::Deployment& d, double r) {
  std::vector<Bundle> maximal = enumerate_candidates(d, r);
  std::vector<Bundle> repeated = maximal;
  repeated.insert(repeated.end(), maximal.begin(),
                  maximal.begin() + static_cast<std::ptrdiff_t>(
                                        maximal.size() / 2));
  return {{"maximal", std::move(maximal)},
          {"unpruned", enumerate_candidates_reference(d, r, false)},
          {"repeated", std::move(repeated)}};
}

TEST(GreedyCoverDifferentialTest, MatchesTheScanOnTheCorpus) {
  for (const fixtures::CoverCase& c : fixtures::cover_corpus()) {
    const net::Deployment& d = c.field.deployment;
    for (const auto& [kind, candidates] : universes(d, c.r)) {
      expect_same_bundles(greedy_cover(d, candidates),
                          greedy_cover_reference(d, candidates),
                          c.field.name + " " + kind);
    }
  }
}

TEST(GreedyCoverDifferentialTest, GridCorpusReallyTiesOnRadius) {
  // Guard on the corpus: on the exact grid some round must face two
  // useful candidates with equal gain and equal radius, or the tie order
  // goes untested.
  const fixtures::CoverCase grid = fixtures::cover_corpus()[4];
  ASSERT_EQ(grid.field.name, "grid/0");
  const std::vector<Bundle> candidates =
      enumerate_candidates(grid.field.deployment, grid.r);
  std::size_t ties = 0;
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    for (std::size_t b = a + 1; b < candidates.size(); ++b) {
      ties += candidates[a].members.size() == candidates[b].members.size() &&
              candidates[a].radius == candidates[b].radius;
    }
  }
  EXPECT_GT(ties, 10u);
}

TEST(GreedyCoverDifferentialTest, NodeCapSweepAtEveryRoundBoundary) {
  // An uncapped scan charges candidates.size() units per round, so round k
  // ends at k * m units. Caps one below, at and one above every boundary
  // trip the meter at a round's last candidate, between rounds and at a
  // round's first candidate.
  const auto corpus = fixtures::cover_corpus();
  for (const std::size_t pick : {0u, 1u, 3u, 4u, 5u, 8u}) {
    const fixtures::CoverCase& c = corpus[pick];
    const net::Deployment& d = c.field.deployment;
    for (const auto& [kind, candidates] : universes(d, c.r)) {
      const std::size_t m = candidates.size();
      const std::size_t rounds = greedy_cover_reference(d, candidates).size();
      for (std::size_t k = 1; k <= rounds + 1; ++k) {
        for (const std::size_t cap : {k * m - 1, k * m, k * m + 1}) {
          if (cap == 0) continue;  // 0 means no cap
          support::Budget budget;
          budget.node_cap = cap;
          support::BudgetMeter want_meter(budget);
          support::BudgetMeter got_meter(budget);
          const std::string label = c.field.name + " " + kind +
                                    " cap=" + std::to_string(cap);
          expect_same_bundles(greedy_cover(d, candidates, &got_meter),
                              greedy_cover_reference(d, candidates,
                                                     &want_meter),
                              label);
          EXPECT_EQ(got_meter.nodes_used(), want_meter.nodes_used()) << label;
          EXPECT_EQ(got_meter.trip(), want_meter.trip()) << label;
        }
      }
    }
  }
}

TEST(GreedyCoverDifferentialTest, NodeCapsInsideRoundsAndEnumeration) {
  // One meter spans enumeration and cover (greedy_bundles): caps spread
  // over both phases, landing mid-seed and mid-round, at any thread count.
  for (const fixtures::CoverCase& c : fixtures::cover_corpus()) {
    const net::Deployment& d = c.field.deployment;
    support::BudgetMeter unlimited;
    const auto full = enumerate_candidates_reference(d, c.r, true, &unlimited);
    greedy_cover_reference(d, full, &unlimited);
    const std::size_t total = unlimited.nodes_used();
    for (std::size_t cap = 1; cap <= total + 1; cap += 1 + total / 37) {
      support::Budget budget;
      budget.node_cap = cap;
      support::BudgetMeter want_meter(budget);
      const auto pool = enumerate_candidates_reference(d, c.r, true,
                                                       &want_meter);
      const auto want = greedy_cover_reference(d, pool, &want_meter);
      for (const std::size_t threads : {1, 8}) {
        support::set_thread_count(threads);
        support::BudgetMeter got_meter(budget);
        const std::string label = c.field.name + " cap=" +
                                  std::to_string(cap) + " threads=" +
                                  std::to_string(threads);
        expect_same_bundles(greedy_bundles(d, c.r, &got_meter), want, label);
        EXPECT_EQ(got_meter.nodes_used(), want_meter.nodes_used()) << label;
        EXPECT_EQ(got_meter.trip(), want_meter.trip()) << label;
      }
    }
  }
  support::set_thread_count(1);
}

TEST(GreedyCoverDifferentialTest, ExhaustedMeterYieldsSingletons) {
  const fixtures::CoverCase c = fixtures::cover_corpus()[0];
  const net::Deployment& d = c.field.deployment;
  const std::vector<Bundle> candidates = enumerate_candidates(d, c.r);
  support::Budget budget;
  budget.node_cap = 1;
  support::BudgetMeter got_meter(budget);
  support::BudgetMeter want_meter(budget);
  got_meter.charge(2);
  want_meter.charge(2);
  const auto got = greedy_cover(d, candidates, &got_meter);
  expect_same_bundles(got, greedy_cover_reference(d, candidates, &want_meter),
                      "exhausted");
  EXPECT_EQ(got.size(), d.size());
  EXPECT_EQ(got_meter.nodes_used(), want_meter.nodes_used());
}

}  // namespace
}  // namespace bc::bundle
