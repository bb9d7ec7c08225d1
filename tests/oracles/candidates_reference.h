// Test oracle for candidate enumeration (src/bundle/candidates.h): the
// pipeline before seed-local maxima and the flat arena. Every pair-circle
// set is its own heap vector, deduplicated through a hash set, sorted
// lexicographically and, when asked, pruned of dominated sets with
// kept-major bitsets over all n sensors.

#ifndef BUNDLECHARGE_TESTS_ORACLES_CANDIDATES_REFERENCE_H_
#define BUNDLECHARGE_TESTS_ORACLES_CANDIDATES_REFERENCE_H_

#include <vector>

#include "bundle/bundle.h"
#include "net/deployment.h"
#include "support/deadline.h"

namespace bc::bundle {

// Singletons plus every pair-circle set of radius r, deduplicated. With
// `prune_dominated` the inclusion-maximal sets in (size desc, lex asc)
// order; without it the whole family in lexicographic order. A non-null
// `meter` is charged one unit per in-range seed pair and stops the
// (serial) scan when it trips. Records no metrics and no trace spans.
std::vector<Bundle> enumerate_candidates_reference(
    const net::Deployment& deployment, double r, bool prune_dominated,
    support::BudgetMeter* meter = nullptr);

}  // namespace bc::bundle

#endif  // BUNDLECHARGE_TESTS_ORACLES_CANDIDATES_REFERENCE_H_
