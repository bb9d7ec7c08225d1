// Tests for candidate bundle enumeration (pair-circle method).

#include "bundle/candidates.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "geometry/minidisk.h"
#include "oracles/candidates_reference.h"
#include "support/require.h"
#include "support/rng.h"

namespace bc::bundle {
namespace {

using geometry::Box2;
using geometry::Point2;

net::Deployment random_deployment(std::size_t n, std::uint64_t seed,
                                  double side = 100.0) {
  support::Rng rng(seed);
  net::FieldSpec spec;
  spec.field = Box2{{0.0, 0.0}, {side, side}};
  return net::uniform_random_deployment(n, spec, rng);
}

TEST(CandidatesTest, SingletonsAlwaysPresent) {
  // At r = 0 there is no pair circle, so every sensor is its own (and
  // only) candidate.
  const net::Deployment d = random_deployment(10, 1);
  const auto candidates = enumerate_candidates(d, 0.0);
  EXPECT_EQ(candidates.size(), 10u);
  for (const Bundle& b : candidates) {
    EXPECT_EQ(b.members.size(), 1u);
    EXPECT_DOUBLE_EQ(b.radius, 0.0);
  }
}

TEST(CandidatesTest, AllCandidatesRespectRadius) {
  const net::Deployment d = random_deployment(60, 2);
  for (const double r : {5.0, 15.0, 40.0}) {
    for (const Bundle& b : enumerate_candidates(d, r)) {
      ASSERT_LE(b.radius, r * (1.0 + 1e-6) + 1e-9);
      // Anchor really is the members' SED centre.
      for (const net::SensorId id : b.members) {
        ASSERT_LE(geometry::distance(b.anchor, d.sensor(id).position),
                  b.radius + 1e-6);
      }
    }
  }
}

TEST(CandidatesTest, JointCoverageAlwaysHolds) {
  const net::Deployment d = random_deployment(40, 3);
  for (const double r : {0.5, 10.0, 100.0}) {
    EXPECT_TRUE(covers_all_sensors(d, enumerate_candidates(d, r)));
  }
}

TEST(CandidatesTest, CapturesEveryMaximalSubsetExhaustively) {
  // Ground truth: enumerate all subsets of a small instance, keep those
  // with SED radius <= r, and check every one is contained in some
  // candidate. This validates the pair-circle discretisation argument.
  const net::Deployment d = random_deployment(9, 4, 30.0);
  const double r = 12.0;
  const auto candidates = enumerate_candidates(d, r);

  const auto is_subset_of_candidate =
      [&](const std::vector<net::SensorId>& subset) {
        return std::any_of(
            candidates.begin(), candidates.end(), [&](const Bundle& b) {
              return std::includes(b.members.begin(), b.members.end(),
                                   subset.begin(), subset.end());
            });
      };

  const std::size_t n = d.size();
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    std::vector<net::SensorId> subset;
    std::vector<Point2> pts;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) {
        subset.push_back(static_cast<net::SensorId>(i));
        pts.push_back(d.sensor(static_cast<net::SensorId>(i)).position);
      }
    }
    if (!geometry::fits_in_radius(pts, r)) continue;
    ASSERT_TRUE(is_subset_of_candidate(subset)) << "mask=" << mask;
  }
}

TEST(CandidatesTest, DominatedPruningKeepsCoverageEquivalence) {
  const net::Deployment d = random_deployment(50, 5);
  const auto all =
      enumerate_candidates_reference(d, 20.0, /*prune_dominated=*/false);
  const auto pruned = enumerate_candidates(d, 20.0);
  EXPECT_LT(pruned.size(), all.size());
  // Every set of the unpruned family is a subset of some kept candidate,
  // and every kept candidate is a set of that family.
  for (const Bundle& b : all) {
    const bool represented = std::any_of(
        pruned.begin(), pruned.end(), [&](const Bundle& keeper) {
          return std::includes(keeper.members.begin(), keeper.members.end(),
                               b.members.begin(), b.members.end());
        });
    ASSERT_TRUE(represented);
  }
  for (const Bundle& keeper : pruned) {
    ASSERT_TRUE(std::any_of(all.begin(), all.end(), [&](const Bundle& b) {
      return b.members == keeper.members;
    }));
  }
}

TEST(CandidatesTest, SingletonOnlyWhenNoPairCircleHoldsTheSensor) {
  // Two close sensors and one far away: {0, 1} dominates both of their
  // singletons, while sensor 2 sits in no pair circle and keeps {2}.
  const net::Deployment d({{0.0, 0.0}, {1.0, 0.0}, {50.0, 50.0}},
                          Box2{{0.0, 0.0}, {60.0, 60.0}}, {0.0, 0.0}, 2.0);
  const auto candidates = enumerate_candidates(d, 1.0);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].members, (std::vector<net::SensorId>{0, 1}));
  EXPECT_EQ(candidates[1].members, (std::vector<net::SensorId>{2}));
}

TEST(CandidatesTest, NegativeRadiusRejected) {
  const net::Deployment d = random_deployment(5, 7);
  EXPECT_THROW(enumerate_candidates(d, -1.0), support::PreconditionError);
}

TEST(CandidatesTest, DeterministicAcrossCalls) {
  const net::Deployment d = random_deployment(40, 8);
  const auto a = enumerate_candidates(d, 15.0);
  const auto b = enumerate_candidates(d, 15.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].members, b[i].members);
  }
}

}  // namespace
}  // namespace bc::bundle
