// Tests for the Theorem 4/5 anchor search: the bisection search must match
// a dense brute-force scan and, bit for bit, the search that evaluates its
// coarse samples per call (tests/oracles/anchor_search_reference), and the
// optimum must satisfy the bisector property of Theorem 5 and the
// ellipse-tangency property of Theorem 4.

#include "geometry/anchor_search.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "geometry/ellipse.h"
#include "geometry/segment.h"
#include "oracles/anchor_search_reference.h"
#include "support/require.h"
#include "support/rng.h"

namespace bc::geometry {
namespace {

TEST(AnchorSearchTest, ZeroRadiusReturnsCenter) {
  const auto res =
      optimal_point_on_circle({0.0, 0.0}, {10.0, 0.0}, {5.0, 5.0}, 0.0);
  EXPECT_EQ(res.point, (Point2{5.0, 5.0}));
  EXPECT_DOUBLE_EQ(res.detour, focal_sum({0.0, 0.0}, {10.0, 0.0}, {5.0, 5.0}));
}

TEST(AnchorSearchTest, NegativeRadiusRejected) {
  EXPECT_THROW(
      optimal_point_on_circle({0.0, 0.0}, {1.0, 0.0}, {0.0, 0.0}, -1.0),
      support::PreconditionError);
}

TEST(AnchorSearchTest, SymmetricCaseLandsOnAxis) {
  // Foci symmetric about the centre: the optimum is the circle point on
  // the segment side, i.e. directly between the foci.
  const Point2 a{-10.0, -5.0};
  const Point2 b{10.0, -5.0};
  const Point2 center{0.0, 0.0};
  const auto res = optimal_point_on_circle(a, b, center, 2.0);
  EXPECT_NEAR(res.point.x, 0.0, 1e-6);
  EXPECT_NEAR(res.point.y, -2.0, 1e-6);
}

TEST(AnchorSearchTest, FociOnOppositeSidesCrossesSegment) {
  // When the segment ab passes through the circle, the optimum lies on it
  // and the detour equals |ab|.
  const Point2 a{-10.0, 0.0};
  const Point2 b{10.0, 0.0};
  const auto res = optimal_point_on_circle(a, b, {0.0, 0.0}, 3.0);
  EXPECT_NEAR(res.detour, distance(a, b), 1e-9);
  EXPECT_NEAR(res.point.y, 0.0, 1e-5);
}

TEST(AnchorSearchTest, DegenerateCoincidentFoci) {
  // A == B: the best circle point is the one closest to the focus.
  const Point2 f{10.0, 0.0};
  const auto res = optimal_point_on_circle(f, f, {0.0, 0.0}, 2.0);
  EXPECT_NEAR(res.point.x, 2.0, 1e-6);
  EXPECT_NEAR(res.point.y, 0.0, 1e-6);
  EXPECT_NEAR(res.detour, 16.0, 1e-9);
}

TEST(AnchorSearchTest, BruteForceReferenceIsConsistent) {
  const auto res = optimal_point_on_circle_brute({-10.0, -5.0}, {10.0, -5.0},
                                                 {0.0, 0.0}, 2.0, 100000);
  EXPECT_NEAR(res.point.x, 0.0, 1e-3);
  EXPECT_NEAR(res.point.y, -2.0, 1e-3);
}

// Property sweep over random geometries: bisection matches brute force.
class AnchorSearchPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AnchorSearchPropertyTest, MatchesBruteForce) {
  support::Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 40; ++trial) {
    const Point2 a{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Point2 b{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Point2 center{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const double radius = rng.uniform(0.1, 50.0);
    const auto fast = optimal_point_on_circle(a, b, center, radius);
    const auto brute =
        optimal_point_on_circle_brute(a, b, center, radius, 30000);
    // The search must be at least as good as the dense scan (up to the
    // scan's own angular resolution).
    ASSERT_LE(fast.detour, brute.detour + 1e-4)
        << "a=" << a << " b=" << b << " c=" << center << " r=" << radius;
    // And the reported detour must be consistent with the point.
    ASSERT_NEAR(fast.detour, focal_sum(a, b, fast.point), 1e-9);
    ASSERT_NEAR(distance(fast.point, center), radius, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnchorSearchPropertyTest,
                         ::testing::Range(0, 8));

TEST(AnchorSearchTest, TabledSamplesKeepEveryBit) {
  // The coarse scan reads cos and sin from a table built once; the oracle
  // evaluates them per call. Points and detours must agree exactly, from
  // the origin to 10^6 m away and from sub-millimetre to kilometre radii.
  support::Rng rng(1234);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int trial = 0; trial < 3000; ++trial) {
    const double shift = trial % 3 == 0 ? 1e6 : 0.0;
    const auto point = [&] {
      return Point2{shift + rng.uniform(-500, 500),
                    shift + rng.uniform(-500, 500)};
    };
    const Point2 a = point();
    const Point2 b = trial % 7 == 0 ? a : point();
    const Point2 center = trial % 11 == 0 ? b : point();
    const double radius = std::pow(10.0, rng.uniform(-4.0, 3.0));
    const auto got = optimal_point_on_circle(a, b, center, radius);
    const auto want = optimal_point_on_circle_reference(a, b, center, radius);
    ASSERT_EQ(bits(got.point.x), bits(want.point.x)) << "trial " << trial;
    ASSERT_EQ(bits(got.point.y), bits(want.point.y)) << "trial " << trial;
    ASSERT_EQ(bits(got.detour), bits(want.detour)) << "trial " << trial;
  }
}

TEST(AnchorSearchTheoremTest, OptimumSatisfiesBisectorProperty) {
  // Theorem 5: at the optimum P, the radius CP bisects angle A-P-B —
  // except in the degenerate case where the segment ab crosses the circle
  // (the optimum is then interior to the objective's kink).
  support::Rng rng(99);
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 60; ++trial) {
    const Point2 a{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const Point2 b{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const Point2 center{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const double radius = rng.uniform(0.5, 10.0);
    // Skip configurations where the chord ab intersects the circle.
    const Segment seg{a, b};
    if (distance_to_segment(seg, center) <= radius + 0.5) continue;
    const auto res = optimal_point_on_circle(a, b, center, radius);
    EXPECT_NEAR(bisector_residual(a, b, center, res.point), 0.0, 1e-4)
        << "trial " << trial;
    ++checked;
  }
  EXPECT_GE(checked, 30);
}

TEST(AnchorSearchTheoremTest, OptimumIsEllipseTangency) {
  // Theorem 4: the confocal ellipse through the optimum P touches the
  // circle: every other circle point lies strictly outside that ellipse.
  const Point2 a{-20.0, 3.0};
  const Point2 b{15.0, -8.0};
  const Point2 center{2.0, 30.0};
  const double radius = 6.0;
  const auto res = optimal_point_on_circle(a, b, center, radius);
  const Ellipse tangent_ellipse = Ellipse::through_point(a, b, res.point);
  for (int i = 0; i < 720; ++i) {
    const double theta = i * 3.14159265358979 / 360.0;
    const Point2 q{center.x + radius * std::cos(theta),
                   center.y + radius * std::sin(theta)};
    ASSERT_GE(tangent_ellipse.level(q), -1e-6);
  }
}

}  // namespace
}  // namespace bc::geometry
