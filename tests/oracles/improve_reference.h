// Test oracles for the tour improvers (src/tsp/improve.h): the naive
// full-scan first-improvement 2-opt and Or-opt. `options.neighbors` and
// `options.certify` are ignored; `options.metric` is queried directly for
// every distance (null = Euclidean).

#ifndef BUNDLECHARGE_TESTS_ORACLES_IMPROVE_REFERENCE_H_
#define BUNDLECHARGE_TESTS_ORACLES_IMPROVE_REFERENCE_H_

#include <span>

#include "support/deadline.h"
#include "tsp/improve.h"
#include "tsp/tour.h"

namespace bc::tsp {

double two_opt_reference(std::span<const geometry::Point2> points, Tour& order,
                         const ImproveOptions& options = ImproveOptions{},
                         support::BudgetMeter* meter = nullptr);
double or_opt_reference(std::span<const geometry::Point2> points, Tour& order,
                        const ImproveOptions& options = ImproveOptions{},
                        support::BudgetMeter* meter = nullptr);

}  // namespace bc::tsp

#endif  // BUNDLECHARGE_TESTS_ORACLES_IMPROVE_REFERENCE_H_
