// Property tests for CircleDetourBound, the certified lower bound that lets
// Algorithm 3 skip displacement radii: over random (A, B, centre, d),
// including a focus at the centre, coincident foci, collinear points,
// radii far below and far above |AB| and coordinates offset by 10^6 m, the
// detour of the production search and of a 20 000-sample scan must both
// be at least the bound, and the search's by 2^-41 of the bound's
// magnitude. Where the bound is exact (collinear points) it must be tight.

#include "geometry/anchor_search.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "geometry/ellipse.h"
#include "support/rng.h"

namespace bc::geometry {
namespace {

struct Case {
  Point2 a;
  Point2 b;
  Point2 center;
  double radius;
};

std::string describe(const Case& c) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, "a=(%a,%a) b=(%a,%a) c=(%a,%a) d=%a",
                c.a.x, c.a.y, c.b.x, c.b.y, c.center.x, c.center.y, c.radius);
  return buffer;
}

void expect_bound_holds(const Case& c) {
  const double bound = CircleDetourBound(c.a, c.b, c.center).at(c.radius);
  const AnchorSearchResult search =
      optimal_point_on_circle(c.a, c.b, c.center, c.radius);
  const AnchorSearchResult brute =
      optimal_point_on_circle_brute(c.a, c.b, c.center, c.radius, 20000);
  ASSERT_GE(search.detour, bound + 0x1p-41 * std::abs(bound)) << describe(c);
  ASSERT_GE(brute.detour, bound) << describe(c);
}

// Random cases of one shape: generic, a focus at the centre, coincident
// foci (also at the centre), or A, B and the centre on one line.
Case random_case(support::Rng& rng, int shape, Point2 offset) {
  const auto point = [&] {
    return Point2{rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)};
  };
  Case c{point(), point(), point(), 0.0};
  if (shape == 1) c.a = c.center;
  if (shape == 2) c.b = c.center;
  if (shape == 3) c.b = c.a;
  if (shape == 4) c.a = c.b = c.center;
  if (shape == 5) {
    // On a horizontal line or the diagonal, so exactly collinear.
    const bool diagonal = rng.below(2) == 0;
    const auto on_line = [&] {
      const double t = rng.uniform(-100.0, 100.0);
      return diagonal ? Point2{t, t} : Point2{t, 7.0};
    };
    c.a = on_line();
    c.b = on_line();
    c.center = on_line();
  }
  // Radii far below, around and far above |AB| (and the centre's reach).
  const double scale = std::max(1.0, distance(c.a, c.b));
  const double factors[] = {0.0, 1e-9, 1e-4, 0.1, 0.5, 1.0, 2.0, 30.0, 1e4};
  c.radius = scale * factors[rng.below(std::size(factors))] *
             rng.uniform(0.5, 1.5);
  c.a = c.a + offset;
  c.b = c.b + offset;
  c.center = c.center + offset;
  return c;
}

TEST(CircleDetourBoundTest, NeverAboveAnyDetourOnTheCircle) {
  support::Rng rng(2026);
  for (const Point2 offset : {Point2{0.0, 0.0}, Point2{1e6, -1e6}}) {
    for (int shape = 0; shape <= 5; ++shape) {
      for (int trial = 0; trial < 50; ++trial) {
        expect_bound_holds(random_case(rng, shape, offset));
      }
    }
  }
}

TEST(CircleDetourBoundTest, TinyRadiiFarFromTheOrigin) {
  // The search's point carries the rounding of centre + d cos(theta): an
  // absolute error on the scale of the coordinates, not of d. The bound's
  // slack must cover it where d and the detour are small against 10^6 m.
  support::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Point2 center{1e6 + rng.uniform(0.0, 1.0), 1e6};
    const Point2 a = center + Point2{rng.uniform(0.5, 2.0), 0.0};
    const Point2 b = trial % 2 == 0 ? a : center + Point2{3.0, 0.0};
    expect_bound_holds(Case{a, b, center, rng.uniform(1e-9, 0.4)});
  }
}

TEST(CircleDetourBoundTest, TightWherePointsAreCollinear) {
  // Centre beyond B on the line AB: the nearest circle point P = H - d u
  // has f(P) = f(H) - 2d exactly, so the bound is the minimum up to its
  // slack (2^-40 of the coordinates' scale), at the origin and 10^6 m
  // away.
  for (const double shift : {0.0, 1e6}) {
    const Point2 a{shift, shift};
    const Point2 b{shift + 10.0, shift};
    const Point2 center{shift + 30.0, shift};
    const double slack = 1e-9 + 4e-12 * shift;
    for (const double d : {0.5, 5.0, 19.0}) {
      const Case c{a, b, center, d};
      expect_bound_holds(c);
      const double bound = CircleDetourBound(a, b, center).at(d);
      EXPECT_NEAR(bound, 50.0 - 2.0 * d, slack) << describe(c);
    }
    // Past B the circle crosses the segment: the bound is |AB|.
    EXPECT_NEAR(CircleDetourBound(a, b, center).at(25.0), 10.0, slack);
  }
}

TEST(CircleDetourBoundTest, AtZeroRadiusIsBelowTheCentresDetour) {
  support::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const Point2 a{rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)};
    const Point2 b{rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)};
    const Point2 c{rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)};
    EXPECT_LT(CircleDetourBound(a, b, c).at(0.0), focal_sum(a, b, c));
  }
}

}  // namespace
}  // namespace bc::geometry
