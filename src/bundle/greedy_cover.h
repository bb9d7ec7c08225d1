// Greedy charging-bundle generation — Algorithm 2 of the paper.
//
// Repeatedly selects the candidate bundle covering the most still-uncovered
// sensors, removes those sensors, and repeats until everything is covered.
// This is greedy set cover and inherits its ln n + 1 approximation ratio
// (Theorem 2). The output is post-processed into a partition: a sensor
// grabbed by an earlier bundle is dropped from later ones and each bundle's
// anchor is recomputed, which can only shrink charging distances.

#ifndef BUNDLECHARGE_BUNDLE_GREEDY_COVER_H_
#define BUNDLECHARGE_BUNDLE_GREEDY_COVER_H_

#include <span>
#include <vector>

#include "bundle/bundle.h"
#include "net/deployment.h"
#include "support/deadline.h"

namespace bc::bundle {

// Greedy cover over an explicit candidate universe. Each round picks the
// candidate with the most uncovered sensors; ties go to the smaller SED
// radius (denser bundle), then the lower first member id, then the lower
// candidate index, making the result deterministic. Gains only fall, so a
// lazy max-heap finds each round's pick without rescanning every
// candidate (Minoux 1978).
//
// Meter contract — the charges of a scan that re-evaluates every candidate
// each round, one unit per candidate:
// - each round first polls `check()`; a tripped meter ends the cover;
// - a round charges candidates.size() units in one `charge`;
// - when the node cap falls inside a round (headroom h < candidates.size()),
//   the round charges h + 1 units, tripping the cap, and picks the best of
//   the first h candidates; with h = 0, or no useful candidate among them,
//   it picks nothing. The cover then ends.
// So `nodes_used()`, the trip kind and every pick match the per-candidate
// scan. Whatever is uncovered when the cover ends is finished as singleton
// bundles — a valid (coarser) cover, never a hang.
// Precondition: candidates jointly cover all sensors.
std::vector<Bundle> greedy_cover(const net::Deployment& deployment,
                                 std::span<const Bundle> candidates,
                                 support::BudgetMeter* meter = nullptr);

// Convenience: enumerate candidates of radius r, then run greedy_cover.
// The meter spans both enumeration and covering.
std::vector<Bundle> greedy_bundles(const net::Deployment& deployment,
                                   double r,
                                   support::BudgetMeter* meter = nullptr);

}  // namespace bc::bundle

#endif  // BUNDLECHARGE_BUNDLE_GREEDY_COVER_H_
