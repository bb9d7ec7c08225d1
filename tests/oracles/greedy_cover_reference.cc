#include "oracles/greedy_cover_reference.h"

#include <algorithm>

#include "support/require.h"

namespace bc::bundle {

std::vector<Bundle> greedy_cover_reference(
    const net::Deployment& deployment, std::span<const Bundle> candidates,
    support::BudgetMeter* meter) {
  support::require(covers_all_sensors(deployment, candidates),
                   "candidates must cover every sensor");
  const std::size_t n = deployment.size();
  std::vector<bool> covered(n, false);
  std::size_t remaining = n;

  std::vector<Bundle> selected;
  while (remaining > 0) {
    if (meter != nullptr && !meter->check()) break;
    // Pick the candidate covering the most uncovered sensors.
    const Bundle* best = nullptr;
    std::size_t best_gain = 0;
    for (const Bundle& candidate : candidates) {
      if (meter != nullptr && !meter->charge()) break;
      std::size_t gain = 0;
      for (const net::SensorId id : candidate.members) {
        if (!covered[id]) ++gain;
      }
      if (gain == 0) continue;
      const bool wins =
          best == nullptr || gain > best_gain ||
          (gain == best_gain &&
           (candidate.radius < best->radius ||
            (candidate.radius == best->radius &&
             candidate.members.front() < best->members.front())));
      if (wins) {
        best = &candidate;
        best_gain = gain;
      }
    }
    if (best == nullptr && meter != nullptr && meter->exhausted()) break;
    support::ensure(best != nullptr,
                    "greedy cover ran out of useful candidates");

    // Keep only the newly covered sensors so the output is a partition,
    // then retighten the anchor around the survivors.
    std::vector<net::SensorId> fresh;
    fresh.reserve(best_gain);
    for (const net::SensorId id : best->members) {
      if (!covered[id]) {
        covered[id] = true;
        fresh.push_back(id);
      }
    }
    remaining -= fresh.size();
    selected.push_back(make_bundle(deployment, std::move(fresh)));
  }

  // Budget tripped mid-cover: finish the uncovered tail as singletons.
  // Always radius-feasible, deterministic under a node cap, and the
  // partition invariant every caller relies on still holds.
  if (remaining > 0) {
    for (net::SensorId id = 0; id < n; ++id) {
      if (!covered[id]) {
        selected.push_back(make_bundle(deployment, {id}));
      }
    }
  }
  return selected;
}

}  // namespace bc::bundle
