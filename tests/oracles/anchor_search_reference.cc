// The circle search as it stood before its coarse samples came from a
// table, minus the obs counters.

#include "oracles/anchor_search_reference.h"

#include <cmath>
#include <numbers>

#include "geometry/ellipse.h"
#include "support/require.h"

namespace bc::geometry {

namespace {

Point2 on_circle(Point2 center, double radius, double theta) {
  return {center.x + radius * std::cos(theta),
          center.y + radius * std::sin(theta)};
}

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

AnchorSearchResult optimal_point_on_circle_reference(
    Point2 a, Point2 b, Point2 center, double radius,
    std::size_t coarse_samples, double angle_tolerance) {
  bc::support::require(radius >= 0.0,
                       "optimal_point_on_circle needs radius >= 0");
  bc::support::require(coarse_samples >= 4, "need at least 4 coarse samples");
  if (radius == 0.0) {
    return AnchorSearchResult{center, focal_sum(a, b, center)};
  }

  const double two_pi = 2.0 * std::numbers::pi;
  const double step = two_pi / static_cast<double>(coarse_samples);
  double best_theta = 0.0;
  double best_value = focal_sum(a, b, on_circle(center, radius, 0.0));
  for (std::size_t i = 1; i < coarse_samples; ++i) {
    const double theta = step * static_cast<double>(i);
    const double value = focal_sum(a, b, on_circle(center, radius, theta));
    if (value < best_value) {
      best_value = value;
      best_theta = theta;
    }
  }

  double lo = best_theta - step;
  double hi = best_theta + step;
  const double d_lo = detour_derivative(a, b, center, radius, lo);
  const double d_hi = detour_derivative(a, b, center, radius, hi);
  const bool bracketed = d_lo < 0.0 && d_hi > 0.0;
  double theta = best_theta;
  if (bracketed) {
    while (hi - lo > angle_tolerance) {
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
    while (hi - lo > angle_tolerance) {
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

  const Point2 p = on_circle(center, radius, theta);
  const double value = focal_sum(a, b, p);
  if (value <= best_value) {
    return AnchorSearchResult{p, value};
  }
  return AnchorSearchResult{on_circle(center, radius, best_theta), best_value};
}

}  // namespace bc::geometry
