// Charging bundle data model (Definitions 1-3 of the paper).
//
// A bundle is a set of sensors charged simultaneously from one anchor
// point; the anchor is the centre of the members' smallest enclosing disk,
// and the bundle radius is that disk's radius (always <= the configured
// generation radius r).

#ifndef BUNDLECHARGE_BUNDLE_BUNDLE_H_
#define BUNDLECHARGE_BUNDLE_BUNDLE_H_

#include <span>
#include <vector>

#include "geometry/point.h"
#include "net/deployment.h"
#include "net/sensor.h"

namespace bc::bundle {

struct Bundle {
  geometry::Point2 anchor;          // SED centre (Definition 2)
  double radius = 0.0;              // SED radius (Definition 3)
  std::vector<net::SensorId> members;  // ascending sensor ids
};

// Recomputes anchor/radius from the members' positions (SED). Precondition:
// members non-empty and valid for `deployment`.
Bundle make_bundle(const net::Deployment& deployment,
                   std::vector<net::SensorId> members);

// True iff every sensor of the deployment appears in at least one bundle
// (the OBG constraint of Eq. 2). Bundles may overlap; is_partition below
// is the exactly-once check.
bool covers_all_sensors(const net::Deployment& deployment,
                        std::span<const Bundle> bundles);

// True iff every sensor appears in exactly one bundle (the generators in
// this library produce partitions, which planners rely on for charging-time
// accounting).
bool is_partition(const net::Deployment& deployment,
                  std::span<const Bundle> bundles);

// Largest member-to-anchor distance over all bundles (0 for none).
double max_charging_distance(const net::Deployment& deployment,
                             std::span<const Bundle> bundles);

}  // namespace bc::bundle

#endif  // BUNDLECHARGE_BUNDLE_BUNDLE_H_
