#include "geometry/anchor_search.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "geometry/ellipse.h"
#include "obs/metrics.h"
#include "support/require.h"

namespace bc::geometry {

namespace {

// Coarse samples that bracket the optimum before the bisection refines it.
// 32 is ample: the objective has at most two local minima on the circle.
constexpr std::size_t kCoarseSamples = 32;
constexpr double kCoarseStep =
    2.0 * std::numbers::pi / static_cast<double>(kCoarseSamples);
// The refinement stops when the angular bracket is below this (radians).
constexpr double kAngleTolerance = 1e-10;

Point2 on_circle(Point2 center, double radius, double theta) {
  return {center.x + radius * std::cos(theta),
          center.y + radius * std::sin(theta)};
}

// (cos, sin) of every coarse sample angle, evaluated once with the very
// expressions on_circle applies to them, so each sample point keeps the
// bits a per-call evaluation gives. The step is read from a static
// volatile so that the run-time libm computes them, as it does per call,
// and the compiler cannot fold them with its own correctly rounded
// arithmetic (a const volatile local does not stop GCC from folding).
const std::array<Point2, kCoarseSamples>& coarse_directions() {
  static const std::array<Point2, kCoarseSamples> directions = [] {
    static const volatile double step = kCoarseStep;
    std::array<Point2, kCoarseSamples> out;
    for (std::size_t i = 0; i < kCoarseSamples; ++i) {
      const double theta = step * static_cast<double>(i);
      out[i] = {std::cos(theta), std::sin(theta)};
    }
    return out;
  }();
  return directions;
}

// Derivative of theta -> |A P(theta)| + |P(theta) B| (up to the positive
// factor `radius`). A root with positive curvature is a local minimum; by
// Theorem 5 the root satisfies the bisector property.
double detour_derivative(Point2 a, Point2 b, Point2 center, double radius,
                         double theta) {
  const Point2 p = on_circle(center, radius, theta);
  const Point2 tangent{-std::sin(theta), std::cos(theta)};
  double d = 0.0;
  const double da = distance(a, p);
  if (da > 0.0) d += (p - a).dot(tangent) / da;
  const double db = distance(b, p);
  if (db > 0.0) d += (p - b).dot(tangent) / db;
  return d;
}

}  // namespace

double bisector_residual(Point2 a, Point2 b, Point2 center, Point2 p) {
  const Point2 w = (center - p).normalized();
  const Point2 u = (a - p).normalized();
  const Point2 v = (b - p).normalized();
  return w.dot(u) - w.dot(v);
}

CircleDetourBound::CircleDetourBound(Point2 a, Point2 b, Point2 center)
    : chord_(distance(a, b)),
      at_center_(focal_sum(a, b, center)),
      slope_(2.0),
      offset_(std::abs(center.x) + std::abs(center.y)) {
  const double to_a = distance(center, a);
  const double to_b = distance(center, b);
  if (to_a > 0.0 && to_b > 0.0) {
    // |grad f| <= 2; std::min also maps a NaN norm to 2.
    slope_ = std::min(2.0, ((center - a) / to_a + (center - b) / to_b).norm());
  }
}

double CircleDetourBound::at(double radius) const {
  // 2^-40 of the scale is about 8000 units of roundoff; DESIGN.md §8
  // needs under 40 of them for the bound's and the point's own rounding.
  constexpr double kSlack = 0x1p-40;
  const double bound = std::max(chord_, at_center_ - radius * slope_);
  return bound - kSlack * (at_center_ + 2.0 * radius + offset_);
}

AnchorSearchResult optimal_point_on_circle(Point2 a, Point2 b, Point2 center,
                                           double radius) {
  bc::support::require(radius >= 0.0,
                       "optimal_point_on_circle needs radius >= 0");
  if (radius == 0.0) {
    return AnchorSearchResult{center, focal_sum(a, b, center)};
  }

  // Coarse scan: find the best sampled angle. The objective is smooth with
  // at most two local minima, so the global optimum lies within one sample
  // step of the best sample.
  const auto& directions = coarse_directions();
  const auto sample = [&](std::size_t i) {
    return Point2{center.x + radius * directions[i].x,
                  center.y + radius * directions[i].y};
  };
  double best_theta = 0.0;
  double best_value = focal_sum(a, b, sample(0));
  for (std::size_t i = 1; i < kCoarseSamples; ++i) {
    const double value = focal_sum(a, b, sample(i));
    if (value < best_value) {
      best_value = value;
      best_theta = kCoarseStep * static_cast<double>(i);
    }
  }

  // Refine inside [best - step, best + step] — this bracket contains the
  // minimum, so the derivative changes sign across it. Bisection on the
  // derivative realises the paper's O(log h) search of Theorem 5; if the
  // derivative does not bracket a root (flat/degenerate geometry, e.g.
  // A == B == center), fall back to golden-section on the objective.
  double lo = best_theta - kCoarseStep;
  double hi = best_theta + kCoarseStep;
  const double d_lo = detour_derivative(a, b, center, radius, lo);
  const double d_hi = detour_derivative(a, b, center, radius, hi);

  // This runs per tour edge inside hot solver loops: counters only (one
  // batched flush below), no trace spans.
  std::uint64_t bisection_iters = 0;
  std::uint64_t golden_iters = 0;
  const bool bracketed = d_lo < 0.0 && d_hi > 0.0;
  double theta = best_theta;
  if (bracketed) {
    while (hi - lo > kAngleTolerance) {
      ++bisection_iters;
      const double mid = (lo + hi) / 2.0;
      if (detour_derivative(a, b, center, radius, mid) < 0.0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    theta = (lo + hi) / 2.0;
  } else {
    constexpr double kInvPhi = 0.6180339887498949;
    double x1 = hi - kInvPhi * (hi - lo);
    double x2 = lo + kInvPhi * (hi - lo);
    double f1 = focal_sum(a, b, on_circle(center, radius, x1));
    double f2 = focal_sum(a, b, on_circle(center, radius, x2));
    while (hi - lo > kAngleTolerance) {
      ++golden_iters;
      if (f1 <= f2) {
        hi = x2;
        x2 = x1;
        f2 = f1;
        x1 = hi - kInvPhi * (hi - lo);
        f1 = focal_sum(a, b, on_circle(center, radius, x1));
      } else {
        lo = x1;
        x1 = x2;
        f1 = f2;
        x2 = lo + kInvPhi * (hi - lo);
        f2 = focal_sum(a, b, on_circle(center, radius, x2));
      }
    }
    theta = (lo + hi) / 2.0;
  }
  {
    static const obs::Counter calls("anchor.calls");
    static const obs::Counter bisections("anchor.bisection_iters");
    static const obs::Counter goldens("anchor.golden_iters");
    static const obs::Counter fallbacks("anchor.golden_fallbacks");
    calls.add();
    bisections.add(bisection_iters);
    goldens.add(golden_iters);
    fallbacks.add(bracketed ? 0 : 1);
  }

  const Point2 p = on_circle(center, radius, theta);
  const double value = focal_sum(a, b, p);
  // Guard against a refinement that somehow regressed below the coarse
  // sample (cannot happen, but keep the cheaper answer if it did).
  if (value <= best_value) {
    return AnchorSearchResult{p, value};
  }
  return AnchorSearchResult{on_circle(center, radius, best_theta), best_value};
}

AnchorSearchResult optimal_point_on_circle_brute(Point2 a, Point2 b,
                                                 Point2 center, double radius,
                                                 std::size_t samples) {
  bc::support::require(samples >= 1, "need at least one sample");
  const double two_pi = 2.0 * std::numbers::pi;
  AnchorSearchResult best{on_circle(center, radius, 0.0), 0.0};
  best.detour = focal_sum(a, b, best.point);
  for (std::size_t i = 1; i < samples; ++i) {
    const double theta = two_pi * static_cast<double>(i) /
                         static_cast<double>(samples);
    const Point2 p = on_circle(center, radius, theta);
    const double value = focal_sum(a, b, p);
    if (value < best.detour) {
      best = AnchorSearchResult{p, value};
    }
  }
  return best;
}

}  // namespace bc::geometry
