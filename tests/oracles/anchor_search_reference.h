// Test oracle for the circle search of Theorems 4 and 5
// (src/geometry/anchor_search.h): the search with its sample count and
// angular tolerance as arguments, so every coarse sample's cos and sin are
// evaluated per call. With the defaults, optimal_point_on_circle must
// return its point and detour bit for bit.

#ifndef BUNDLECHARGE_TESTS_ORACLES_ANCHOR_SEARCH_REFERENCE_H_
#define BUNDLECHARGE_TESTS_ORACLES_ANCHOR_SEARCH_REFERENCE_H_

#include <cstddef>

#include "geometry/anchor_search.h"

namespace bc::geometry {

// Coarse scan over `coarse_samples` angles, then bisection on the detour's
// derivative (golden section where it does not bracket a root) down to
// `angle_tolerance` radians. Preconditions: radius >= 0, coarse_samples
// >= 4.
AnchorSearchResult optimal_point_on_circle_reference(
    Point2 a, Point2 b, Point2 center, double radius,
    std::size_t coarse_samples = 32, double angle_tolerance = 1e-10);

}  // namespace bc::geometry

#endif  // BUNDLECHARGE_TESTS_ORACLES_ANCHOR_SEARCH_REFERENCE_H_
