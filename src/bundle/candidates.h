// Candidate charging-bundle enumeration.
//
// Algorithm 2 of the paper needs "all potential charging bundle
// candidates" around every node, which is exponential if taken literally.
// We exploit a standard geometric fact: every maximal set of points
// coverable by a disk of radius r admits a covering disk with either two
// points on its boundary or a single point at its centre. Enumerating, for
// each sensor pair closer than 2r, the two radius-r circles through the
// pair — and collecting the sensors inside each — therefore yields every
// maximal candidate bundle. Greedy set cover over this universe is exactly
// the paper's greedy with its ln n + 1 guarantee.

#ifndef BUNDLECHARGE_BUNDLE_CANDIDATES_H_
#define BUNDLECHARGE_BUNDLE_CANDIDATES_H_

#include <vector>

#include "bundle/bundle.h"
#include "net/deployment.h"
#include "support/deadline.h"

namespace bc::bundle {

// The inclusion-maximal member sets of the family {singletons} ∪ {pair-
// circle sets} at generation radius `r`, as bundles (each SED radius is
// <= r by construction; `make_bundle` recomputes the tight anchor),
// ordered by (size desc, member ids lexicographically asc). A singleton
// {i} is returned only when no pair circle holds i, so every sensor lies
// in some candidate and a cover always exists.
// A non-null `meter` is charged one unit per in-range seed pair; when it
// trips, enumeration stops and the result is the maximal family of the
// pairs scanned so far (still covering every sensor). A metered call scans
// serially so node-cap cut points are thread-count-invariant.
// Preconditions: r >= 0.
std::vector<Bundle> enumerate_candidates(const net::Deployment& deployment,
                                         double r,
                                         support::BudgetMeter* meter = nullptr);

}  // namespace bc::bundle

#endif  // BUNDLECHARGE_BUNDLE_CANDIDATES_H_
