#include "bundle/greedy_cover.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "bundle/candidates.h"
#include "obs/metrics.h"
#include "support/require.h"

namespace bc::bundle {

namespace {

// A candidate in the lazy heap. `gain` is an upper bound on its current
// gain, exact as of its last evaluation; the rest of the key is fixed.
struct Entry {
  std::uint32_t gain;
  std::uint32_t index;
  double radius;
  net::SensorId front;
};

// The pick order as a heap comparator: true when `a` is picked after `b`
// (gain desc, radius asc, front member asc, candidate index asc), so the
// heap top is the next pick. Index breaks every tie: the order is total.
bool picked_after(const Entry& a, const Entry& b) {
  if (a.gain != b.gain) return a.gain < b.gain;
  if (a.radius != b.radius) return a.radius > b.radius;
  if (a.front != b.front) return a.front > b.front;
  return a.index > b.index;
}

std::uint32_t uncovered_count(const Bundle& candidate,
                              const std::vector<char>& covered) {
  std::uint32_t gain = 0;
  for (const net::SensorId id : candidate.members) gain += covered[id] == 0;
  return gain;
}

// The pick of a scan over the first `prefix` candidates, or null when
// none of them has a positive gain: a round the node cap cuts short.
const Bundle* scan_best(std::span<const Bundle> candidates,
                        std::size_t prefix, const std::vector<char>& covered,
                        std::uint64_t& gain_evals) {
  std::optional<Entry> best;
  for (std::size_t k = 0; k < prefix; ++k) {
    ++gain_evals;
    const Bundle& candidate = candidates[k];
    const std::uint32_t gain = uncovered_count(candidate, covered);
    if (gain == 0) continue;
    const Entry entry{gain, static_cast<std::uint32_t>(k), candidate.radius,
                      candidate.members.front()};
    if (!best.has_value() || picked_after(*best, entry)) best = entry;
  }
  return best.has_value() ? &candidates[best->index] : nullptr;
}

// The full scan's pick, lazily: gains only fall, so every stale key ranks
// at or above its candidate's true key. A top whose re-evaluated gain
// still equals its key therefore ranks above every other candidate's true
// key — it is exactly the scan's pick. Otherwise the top is re-keyed (or
// dropped at gain 0) and the next top is tried.
const Bundle* pop_best(std::vector<Entry>& heap,
                       std::span<const Bundle> candidates,
                       const std::vector<char>& covered,
                       std::uint64_t& gain_evals) {
  while (!heap.empty()) {
    const Entry top = heap.front();
    ++gain_evals;
    const std::uint32_t gain = uncovered_count(candidates[top.index], covered);
    std::pop_heap(heap.begin(), heap.end(), picked_after);
    if (gain == top.gain) {
      heap.pop_back();
      return &candidates[top.index];
    }
    if (gain == 0) {
      heap.pop_back();
      continue;
    }
    heap.back().gain = gain;
    std::push_heap(heap.begin(), heap.end(), picked_after);
  }
  return nullptr;
}

}  // namespace

std::vector<Bundle> greedy_cover(const net::Deployment& deployment,
                                 std::span<const Bundle> candidates,
                                 support::BudgetMeter* meter) {
  support::require(covers_all_sensors(deployment, candidates),
                   "candidates must cover every sensor");
  support::require(
      candidates.size() < std::numeric_limits<std::uint32_t>::max(),
      "greedy cover takes fewer than 2^32 candidates");
  const std::size_t n = deployment.size();
  std::vector<char> covered(n, 0);
  std::size_t remaining = n;

  std::vector<Entry> heap;
  heap.reserve(candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const Bundle& candidate = candidates[k];
    if (candidate.members.empty()) continue;
    heap.push_back({static_cast<std::uint32_t>(candidate.members.size()),
                    static_cast<std::uint32_t>(k), candidate.radius,
                    candidate.members.front()});
  }
  std::make_heap(heap.begin(), heap.end(), picked_after);

  std::uint64_t gain_evals = 0;
  std::uint64_t rounds = 0;
  std::vector<Bundle> selected;
  while (remaining > 0) {
    if (meter != nullptr && !meter->check()) break;
    const Bundle* best = nullptr;
    if (meter != nullptr && meter->node_headroom() < candidates.size()) {
      // The node cap falls inside this round: the per-candidate scan would
      // trip on candidate `prefix`, after judging the ones before it.
      const std::size_t prefix = meter->node_headroom();
      meter->charge(prefix + 1);
      best = scan_best(candidates, prefix, covered, gain_evals);
      if (best == nullptr) break;
    } else {
      if (meter != nullptr) meter->charge(candidates.size());
      best = pop_best(heap, candidates, covered, gain_evals);
      support::ensure(best != nullptr,
                      "greedy cover ran out of useful candidates");
    }
    ++rounds;

    // Keep only the newly covered sensors so the output is a partition,
    // then retighten the anchor around the survivors.
    std::vector<net::SensorId> fresh;
    for (const net::SensorId id : best->members) {
      if (covered[id] == 0) {
        covered[id] = 1;
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
      if (covered[id] == 0) {
        selected.push_back(make_bundle(deployment, {id}));
      }
    }
  }

  static const obs::Counter evals_counter("greedy_cover.gain_evals");
  static const obs::Counter rounds_counter("greedy_cover.rounds");
  evals_counter.add(gain_evals);
  rounds_counter.add(rounds);
  return selected;
}

std::vector<Bundle> greedy_bundles(const net::Deployment& deployment,
                                   double r, support::BudgetMeter* meter) {
  const std::vector<Bundle> candidates =
      enumerate_candidates(deployment, r, meter);
  return greedy_cover(deployment, candidates, meter);
}

}  // namespace bc::bundle
