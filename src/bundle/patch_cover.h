// Localized re-covering for incremental replanning.
//
// When a deployment changes by a handful of sensors, the incremental
// engine (service/incremental.h) invalidates only the bundles whose
// neighbourhood intersects the diff and re-covers the resulting "hole" —
// the invalidated bundles' surviving members plus the newly added sensors
// — in isolation. cover_subset is that re-cover: candidate enumeration
// restricted to the hole (the same pair-circle scan as
// enumerate_candidates, run over a compact sub-view), then the budgeted
// exact-cover/greedy ladder the online replanner uses — a node-capped
// branch & bound whose anytime incumbent (seeded by the greedy cover)
// degrades to plain greedy when the budget is spent before the search
// starts. Everything is deterministic: the budget is a node cap, never a
// wall clock, so the returned partition is bit-identical across runs and
// thread counts.

#ifndef BUNDLECHARGE_BUNDLE_PATCH_COVER_H_
#define BUNDLECHARGE_BUNDLE_PATCH_COVER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "bundle/bundle.h"
#include "net/deployment.h"
#include "support/deadline.h"

namespace bc::bundle {

struct SubsetCoverOptions {
  // Branch-and-bound node budget for the exact stage, shared with the
  // candidate enumeration (charged per seed pair). A deterministic node
  // cap — not a deadline — so patched plans stay reproducible.
  std::size_t node_budget = 100'000;
};

// Partition cover of `subset` with generation radius r: every subset
// sensor appears in exactly one returned bundle, members are ids into
// `deployment`, anchors/radii are tight SEDs, and the bundles are in
// canonical (ascending member) order. Sensors outside `subset` are
// untouched — no returned bundle ever contains one.
// Preconditions: r > 0, subset ids valid and strictly ascending.
// An empty subset yields an empty cover.
std::vector<Bundle> cover_subset(const net::Deployment& deployment, double r,
                                 std::span<const net::SensorId> subset,
                                 const SubsetCoverOptions& options = {},
                                 support::BudgetMeter* meter = nullptr);

}  // namespace bc::bundle

#endif  // BUNDLECHARGE_BUNDLE_PATCH_COVER_H_
