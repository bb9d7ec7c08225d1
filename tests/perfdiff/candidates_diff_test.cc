// Differential suite for candidate enumeration (`ctest -L perf-diff`).
// Two references rebuild the result the slow way:
// - an in-test one: `std::set` dedup of every pair-circle set (each circle
//   re-queries the grid), then an O(m^2) `std::includes` domination scan
//   with the pinned (size desc, lexicographic asc) survivor order;
// - the pipeline before seed-local maxima (tests/oracles/
//   candidates_reference), which also honours a meter, so node-capped
//   enumerations are compared at the same pair prefix.
// `enumerate_candidates` must match them exactly at BC_THREADS = 1, 2
// and 8, including 2r pools of more than 64 sensors (multi-word masks),
// coincident and collinear sensors, and caps that trip mid-seed.

#include "bundle/candidates.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundlecharge.h"
#include "fixtures/cover_fields.h"
#include "geometry/circle.h"
#include "net/deployment.h"
#include "net/spatial_index.h"
#include "oracles/candidates_reference.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace bc::bundle {
namespace {

using geometry::Point2;
using MemberLists = std::vector<std::vector<net::SensorId>>;

// Old-style enumeration: singletons plus both radius-r circles through
// every sensor pair within 2r, deduplicated through an ordered set.
MemberLists reference_candidates(const net::Deployment& deployment, double r,
                                 bool prune_dominated) {
  const auto positions = deployment.positions();
  const std::size_t n = deployment.size();
  std::set<std::vector<net::SensorId>> member_sets;
  for (net::SensorId id = 0; id < n; ++id) member_sets.insert({id});
  if (r > 0.0 && n > 1) {
    const net::SpatialIndex index(positions, std::max(r, 1e-9));
    for (std::size_t i = 0; i < n; ++i) {
      for (const net::SensorId j : index.within(positions[i], 2.0 * r)) {
        if (j <= i) continue;
        const auto centers =
            geometry::circles_through_pair(positions[i], positions[j], r);
        if (!centers.has_value()) continue;
        for (const Point2 center : {centers->first, centers->second}) {
          const auto members =
              index.within(center, r * (1.0 + 1e-9) + 1e-12);
          if (members.size() >= 2) member_sets.insert(members);
        }
      }
    }
  }
  MemberLists sets(member_sets.begin(), member_sets.end());
  if (prune_dominated) {
    std::stable_sort(sets.begin(), sets.end(),
                     [](const auto& a, const auto& b) {
                       return a.size() > b.size();
                     });
    MemberLists kept;
    for (const auto& candidate : sets) {
      bool dominated = false;
      for (const auto& other : kept) {
        if (other.size() > candidate.size() &&
            std::includes(other.begin(), other.end(), candidate.begin(),
                          candidate.end())) {
          dominated = true;
          break;
        }
      }
      if (!dominated) kept.push_back(candidate);
    }
    sets = std::move(kept);
  }
  return sets;
}

MemberLists members_of(const std::vector<Bundle>& bundles) {
  MemberLists out;
  for (const Bundle& b : bundles) out.push_back(b.members);
  return out;
}

MemberLists enumerated_members(const net::Deployment& deployment, double r) {
  return members_of(enumerate_candidates(deployment, r));
}

// The bundles must agree bit for bit, not only their member lists.
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

TEST(CandidatesDifferentialTest, MatchesSetBasedReferenceAcrossThreadCounts) {
  for (const std::size_t n : {10, 40, 120}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      support::Rng rng(6000 + 7 * n + seed);
      const auto deployment = net::uniform_random_deployment(
          n, core::icdcs2019_simulation_profile().field, rng);
      for (const double r : {25.0, 60.0}) {
        // The unpruned family: the moved oracle against the in-test one.
        ASSERT_EQ(members_of(enumerate_candidates_reference(
                      deployment, r, /*prune_dominated=*/false)),
                  reference_candidates(deployment, r, false))
            << "n=" << n << " seed=" << seed << " r=" << r;
        const MemberLists expected =
            reference_candidates(deployment, r, /*prune_dominated=*/true);
        for (const std::size_t threads : {1, 2, 8}) {
          support::set_thread_count(threads);
          ASSERT_EQ(enumerated_members(deployment, r), expected)
              << "n=" << n << " seed=" << seed << " r=" << r
              << " threads=" << threads;
        }
      }
    }
  }
  support::set_thread_count(1);
}

TEST(CandidatesDifferentialTest, CorpusMatchesOracleAcrossThreadCounts) {
  std::vector<fixtures::CoverCase> corpus = fixtures::cover_corpus();
  // A dense clump: every 2r pool holds 150-300 sensors (3-5 mask words).
  corpus.push_back(
      {{"dense/300", fixtures::uniform_field(300, 60.0, 7001)}, 40.0});
  corpus.push_back(
      {{"dense/150", fixtures::clustered_field(150, 2, 90.0, 12.0, 7002)},
       45.0});
  for (const fixtures::CoverCase& c : corpus) {
    const net::Deployment& d = c.field.deployment;
    const std::vector<Bundle> expected =
        enumerate_candidates_reference(d, c.r, /*prune_dominated=*/true);
    ASSERT_EQ(members_of(expected), reference_candidates(d, c.r, true))
        << c.field.name;
    for (const std::size_t threads : {1, 2, 8}) {
      support::set_thread_count(threads);
      expect_same_bundles(enumerate_candidates(d, c.r), expected,
                          c.field.name + " threads=" +
                              std::to_string(threads));
    }
  }
  support::set_thread_count(1);
}

TEST(CandidatesDifferentialTest, DensePoolsSpanSeveralMaskWords) {
  // Guard on the corpus itself: the dense case must really exceed one
  // 64-bit word per pool, or the multi-word path goes untested.
  const net::Deployment d = fixtures::uniform_field(300, 60.0, 7001);
  const net::SpatialIndex index(d.positions(), 40.0);
  std::size_t largest = 0;
  for (const Point2 p : d.positions()) {
    largest = std::max(largest, index.within(p, 80.0).size());
  }
  EXPECT_GT(largest, 128u);
}

TEST(CandidatesDifferentialTest, NodeCapsTripAtTheSamePairAsTheOracle) {
  // The cap cuts the pair scan mid-seed; the result must be the oracle's
  // maximal family of the same pair prefix, with the same meter state.
  std::vector<fixtures::CoverCase> corpus = fixtures::cover_corpus();
  corpus.push_back(
      {{"dense/300", fixtures::uniform_field(300, 60.0, 7001)}, 40.0});
  for (const fixtures::CoverCase& c : corpus) {
    const net::Deployment& d = c.field.deployment;
    support::BudgetMeter unlimited;
    enumerate_candidates_reference(d, c.r, true, &unlimited);
    const std::size_t pairs = unlimited.nodes_used();
    for (std::size_t cap = 1; cap <= pairs + 1; cap += 1 + pairs / 13) {
      support::Budget budget;
      budget.node_cap = cap;
      support::BudgetMeter want_meter(budget);
      const auto want = enumerate_candidates_reference(d, c.r, true,
                                                       &want_meter);
      for (const std::size_t threads : {1, 8}) {
        support::set_thread_count(threads);
        support::BudgetMeter meter(budget);
        const std::string label =
            c.field.name + " cap=" + std::to_string(cap) +
            " threads=" + std::to_string(threads);
        expect_same_bundles(enumerate_candidates(d, c.r, &meter), want,
                            label);
        EXPECT_EQ(meter.nodes_used(), want_meter.nodes_used()) << label;
        EXPECT_EQ(meter.trip(), want_meter.trip()) << label;
      }
    }
  }
  support::set_thread_count(1);
}

}  // namespace
}  // namespace bc::bundle
