#include "bundle/patch_cover.h"

#include <algorithm>
#include <utility>

#include "bundle/candidates.h"
#include "bundle/exact_cover.h"
#include "bundle/greedy_cover.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/require.h"

namespace bc::bundle {

std::vector<Bundle> cover_subset(const net::Deployment& deployment, double r,
                                 std::span<const net::SensorId> subset,
                                 const SubsetCoverOptions& options,
                                 support::BudgetMeter* meter) {
  support::require(r > 0.0, "cover radius must be positive");
  support::require(std::is_sorted(subset.begin(), subset.end(),
                                  std::less_equal<net::SensorId>()),
                   "subset ids must be strictly ascending");
  if (subset.empty()) return {};

  obs::TraceSpan span("bundle.cover_subset");
  span.attr("subset", static_cast<std::uint64_t>(subset.size())).attr("r", r);

  // Compact sub-view: the hole's sensors become ids 0..m-1, so candidate
  // enumeration and the cover search never see (and can never absorb) a
  // sensor that is still owned by an untouched bundle.
  std::vector<geometry::Point2> positions;
  std::vector<double> demands;
  positions.reserve(subset.size());
  demands.reserve(subset.size());
  for (const net::SensorId id : subset) {
    support::require(id < deployment.size(), "subset id out of range");
    positions.push_back(deployment.sensor(id).position);
    demands.push_back(deployment.sensor(id).demand_j);
  }
  const net::Deployment hole(std::move(positions), deployment.field(),
                             deployment.depot(), std::move(demands));

  // One node-capped meter spans enumeration and search; a caller-supplied
  // meter (the request's budget ladder) takes precedence.
  support::Budget budget;
  budget.node_cap = options.node_budget;
  support::BudgetMeter local_meter(budget);
  if (meter == nullptr) meter = &local_meter;

  // Same pair-circle scan as the full enumeration, over the sub-view; the
  // meter forces the serial path, so cut points are thread-invariant.
  const std::vector<Bundle> candidates =
      enumerate_candidates(hole, r, meter);

  // Budgeted exact-cover/greedy ladder (the replan seed): the branch &
  // bound starts from the greedy incumbent, so a mid-search trip returns
  // the best valid cover so far, and a budget already spent on candidates
  // degrades to the plain greedy cover.
  ExactCoverOptions exact;
  exact.max_nodes = options.node_budget;
  std::vector<Bundle> covered;
  auto solved = exact_cover_anytime(hole, candidates, exact, meter);
  if (solved.has_value()) {
    covered = std::move(solved.value().bundles);
  } else {
    covered = greedy_cover(hole, candidates, nullptr);
  }

  // Back to parent ids (anchors/radii are position-derived and unchanged).
  for (Bundle& bundle : covered) {
    for (net::SensorId& member : bundle.members) {
      member = subset[member];
    }
  }
  std::sort(covered.begin(), covered.end(),
            [](const Bundle& a, const Bundle& b) {
              return a.members < b.members;
            });

  static const obs::Counter calls("bundle.cover_subset.calls");
  static const obs::Counter sensors("bundle.cover_subset.sensors");
  static const obs::Counter bundles("bundle.cover_subset.bundles");
  calls.add();
  sensors.add(subset.size());
  bundles.add(covered.size());
  span.attr("bundles", static_cast<std::uint64_t>(covered.size()));
  return covered;
}

}  // namespace bc::bundle
