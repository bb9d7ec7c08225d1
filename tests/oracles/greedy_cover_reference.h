// Test oracle for Algorithm 2's cover (src/bundle/greedy_cover.h): the
// round-by-round scan that re-evaluates every candidate's gain each round
// and charges the meter one unit per candidate scanned.

#ifndef BUNDLECHARGE_TESTS_ORACLES_GREEDY_COVER_REFERENCE_H_
#define BUNDLECHARGE_TESTS_ORACLES_GREEDY_COVER_REFERENCE_H_

#include <span>
#include <vector>

#include "bundle/bundle.h"
#include "net/deployment.h"
#include "support/deadline.h"

namespace bc::bundle {

// Each round picks the candidate with the most uncovered sensors; ties go
// to the smaller radius, then the lower first member, then the lower
// index. When the meter trips the uncovered tail becomes singletons.
// Precondition: candidates jointly cover all sensors.
std::vector<Bundle> greedy_cover_reference(
    const net::Deployment& deployment, std::span<const Bundle> candidates,
    support::BudgetMeter* meter = nullptr);

}  // namespace bc::bundle

#endif  // BUNDLECHARGE_TESTS_ORACLES_GREEDY_COVER_REFERENCE_H_
