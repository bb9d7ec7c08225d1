// Optimal point on a circle minimising the detour through it —
// the computational core of the paper's Theorems 4 and 5.
//
// Given the previous tour stop A, the next stop B, and a circle of radius d
// around the current anchor C, BC-OPT must find the point P on the circle
// minimising |AP| + |PB|. Theorem 4 identifies P as the tangency point of
// the smallest confocal ellipse (foci A, B) touching the circle; Theorem 5
// shows that at P the radius CP bisects the angle ∠APB, which lets the
// point be located by a 1-D root search in O(log h) instead of scanning h²
// grid positions.
//
// We expose both the production search (coarse angular scan to bracket the
// bisector-condition sign change, then bisection on the derivative) and a
// brute-force reference used by tests, plus a certified lower bound on the
// detour over a whole circle that lets Algorithm 3 skip radii whose search
// cannot win.

#ifndef BUNDLECHARGE_GEOMETRY_ANCHOR_SEARCH_H_
#define BUNDLECHARGE_GEOMETRY_ANCHOR_SEARCH_H_

#include <cstddef>

#include "geometry/point.h"

namespace bc::geometry {

struct AnchorSearchResult {
  Point2 point;       // argmin over the circle
  double detour = 0;  // |A point| + |point B|
};

// Minimises |A P| + |P B| over P on the circle centred at `center` with
// radius `radius`. Preconditions: radius >= 0. When radius == 0 the answer
// is `center` itself. Works for any placement of A/B including A == B and
// foci inside the circle.
AnchorSearchResult optimal_point_on_circle(Point2 a, Point2 b, Point2 center,
                                           double radius);

// O(h) reference: evaluates `samples` evenly spaced angles and returns the
// best. Used by property tests to validate the bisection search.
AnchorSearchResult optimal_point_on_circle_brute(Point2 a, Point2 b,
                                                 Point2 center, double radius,
                                                 std::size_t samples = 20000);

// A lower bound on |A P| + |P B| over the circle |P - center| = d, for
// every d >= 0 at once (DESIGN.md §8, "Algorithm 3: certified radius
// pruning"). The focal sum f is convex, so on that circle
//   f(P) >= max(|AB|, f(center) - d |grad f(center)|),
// with 2 (f's Lipschitz constant) in place of |grad f| at a focus, where f
// has a kink. at(d) subtracts a slack of 2^-40 of a scale that dominates
// every rounded term, so it is at most the computed detour of every point
// optimal_point_on_circle or optimal_point_on_circle_brute returns for
// radius d, and below it by at least 2^-41 of its own magnitude: room for
// a caller's own roundings.
class CircleDetourBound {
 public:
  CircleDetourBound(Point2 a, Point2 b, Point2 center);

  double at(double radius) const;

 private:
  double chord_;      // |AB|
  double at_center_;  // f(center)
  double slope_;      // |grad f(center)|, or 2 at a focus
  double offset_;     // |center.x| + |center.y|
};

// Theorem 5 residual: difference of cosines between the inward radius
// direction and the two focal directions at P (zero when CP bisects ∠APB).
// Exposed for tests that validate the bisector property at the optimum.
double bisector_residual(Point2 a, Point2 b, Point2 center, Point2 p);

}  // namespace bc::geometry

#endif  // BUNDLECHARGE_GEOMETRY_ANCHOR_SEARCH_H_
