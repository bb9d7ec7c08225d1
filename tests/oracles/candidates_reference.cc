#include "oracles/candidates_reference.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>

#include "geometry/circle.h"
#include "net/spatial_index.h"
#include "support/require.h"

namespace bc::bundle {

using geometry::Point2;

namespace {

// SplitMix64-style hash over a canonical (ascending-id) member vector.
// Keys the dedup hash set; the canonical order itself is restored by one
// final sort, so insertion order never leaks into the result.
struct MemberSetHash {
  std::size_t operator()(const std::vector<net::SensorId>& members) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ members.size();
    for (const net::SensorId id : members) {
      std::uint64_t z = h + 0x9e3779b97f4a7c15ULL + id;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h = z ^ (z >> 31);
    }
    return static_cast<std::size_t>(h);
  }
};

using MemberSetTable =
    std::unordered_set<std::vector<net::SensorId>, MemberSetHash>;

// Pair-circle enumeration seeded at sensors [begin, end): for each seed i,
// the two radius-r circles through every pair (i, j > i) within 2r, with
// the sensors inside each circle collected and handed to `emit` (member
// sets of size >= 2, ascending ids; the buffer is reused across calls).
// `emit` returns false to stop the scan early (candidate cap); a non-null
// meter is charged one unit per seed pair and also stops the scan when it
// trips. Returns true iff the scan ran to completion.
//
// This one body serves both the serial metered path and the parallel
// chunked path — it is a pure function of the geometry and the scan
// interval, so chunks can run on any thread (with a null meter).
template <typename Emit>
bool enumerate_seeded_at(std::span<const Point2> positions,
                         const net::SpatialIndex& index, double r,
                         std::size_t begin, std::size_t end,
                         support::BudgetMeter* meter, Emit&& emit) {
  // Relative slack: the defining pair sits exactly on the circle boundary
  // and must not be lost to rounding in the construction of `center`.
  const double member_r = r * (1.0 + 1e-9) + 1e-12;
  const double member_r2 = member_r * member_r;
  const double pair_r2 = 4.0 * r * r;
  // Every member of an r-circle through i lies within dist(i, center) +
  // member_r <= 2r + slack of i, so one padded 2r query per seed serves as
  // the candidate pool for every circle seeded there — the inner loops
  // then filter by exact distance instead of re-querying the grid.
  const double pool_r = 2.0 * r + 1e-6 * (r + 1.0);
  std::vector<net::SensorId> near_i;
  std::vector<net::SensorId> members;
  // SoA shadow of the pool: the per-circle membership scan is a streaming
  // distance filter instead of an id-indirected gather, and it runs twice
  // per in-range pair.
  std::vector<double> pool_xs;
  std::vector<double> pool_ys;
  for (std::size_t i = begin; i < end; ++i) {
    index.within(positions[i], pool_r, near_i);
    pool_xs.resize(near_i.size());
    pool_ys.resize(near_i.size());
    for (std::size_t t = 0; t < near_i.size(); ++t) {
      pool_xs[t] = positions[near_i[t]].x;
      pool_ys[t] = positions[near_i[t]].y;
    }
    for (const net::SensorId j : near_i) {
      if (j <= i) continue;
      // The padded pool can hold partners just beyond 2r; skip them before
      // the meter charge so budget cut points match the unpadded scan.
      if (geometry::distance_squared(positions[i], positions[j]) > pair_r2) {
        continue;
      }
      if (meter != nullptr && !meter->charge()) return false;
      const auto centers =
          geometry::circles_through_pair(positions[i], positions[j], r);
      if (!centers.has_value()) continue;
      for (const Point2 center : {centers->first, centers->second}) {
        members.clear();
        // near_i is id-sorted and the scan appends in pool order, so
        // members comes out id-sorted too.
        for (std::size_t t = 0; t < near_i.size(); ++t) {
          const double dx = pool_xs[t] - center.x;
          const double dy = pool_ys[t] - center.y;
          if (dx * dx + dy * dy <= member_r2) members.push_back(near_i[t]);
        }
        if (members.size() < 2) continue;
        if (!emit(members)) return false;
      }
    }
  }
  return true;
}

// Removes every set strictly contained in another, in place. Size-bucketed
// bitset subset tests replace the old O(m^2) std::includes scan: sets are
// processed largest-first, every kept set is registered in an inverted
// sensor -> kept-set index with its members packed into a bitset, and a
// candidate only tests the strictly larger kept sets containing its first
// member — each test is then a handful of word-indexed bit probes.
//
// Precondition: `sets` is deduplicated and lexicographically sorted.
// Postcondition: survivors ordered by (size desc, lexicographic asc).
void prune_dominated_sets(std::vector<std::vector<net::SensorId>>& sets,
                          std::size_t n) {
  const std::size_t words = (n + 63) / 64;
  // Stable size-desc sort of the lex-sorted input pins the output order.
  std::stable_sort(sets.begin(), sets.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });

  std::vector<std::uint64_t> kept_bits;          // kept-major packed bitsets
  std::vector<std::uint32_t> kept_size;          // member count per kept set
  std::vector<std::vector<std::uint32_t>> by_member(n);  // sensor -> kept ids
  std::vector<std::vector<net::SensorId>> kept;

  for (auto& candidate : sets) {
    bool dominated = false;
    // Only a strictly larger kept set containing the first member can
    // dominate; by_member keeps that probe list short. Checking kept sets
    // alone is complete: had a dominating set itself been dominated, its
    // dominator (kept, by induction) also contains this candidate.
    for (const std::uint32_t k : by_member[candidate.front()]) {
      if (kept_size[k] <= candidate.size()) continue;
      const std::uint64_t* super = kept_bits.data() + k * words;
      bool subset = true;
      for (const net::SensorId id : candidate) {
        if (((super[id >> 6] >> (id & 63)) & 1u) == 0) {
          subset = false;
          break;
        }
      }
      if (subset) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    const auto kept_id = static_cast<std::uint32_t>(kept.size());
    kept_bits.resize(kept_bits.size() + words, 0);
    std::uint64_t* bits = kept_bits.data() + kept_id * words;
    for (const net::SensorId id : candidate) {
      bits[id >> 6] |= std::uint64_t{1} << (id & 63);
      by_member[id].push_back(kept_id);
    }
    kept_size.push_back(static_cast<std::uint32_t>(candidate.size()));
    kept.push_back(std::move(candidate));
  }
  sets = std::move(kept);
}

}  // namespace

std::vector<Bundle> enumerate_candidates_reference(
    const net::Deployment& deployment, double r, bool prune_dominated,
    support::BudgetMeter* meter) {
  support::require(r >= 0.0, "candidate radius must be non-negative");
  const auto positions = deployment.positions();
  const std::size_t n = deployment.size();

  MemberSetTable member_sets;
  member_sets.reserve(64 + 16 * n);

  // Singletons guarantee feasibility of the cover.
  for (net::SensorId id = 0; id < n; ++id) {
    member_sets.insert({id});
  }

  if (r > 0.0 && n > 1) {
    const net::SpatialIndex index(positions, std::max(r, 1e-9));
    enumerate_seeded_at(positions, index, r, 0, n, meter,
                        [&](const std::vector<net::SensorId>& members) {
                          member_sets.insert(members);
                          return true;
                        });
  }

  std::vector<std::vector<net::SensorId>> sets;
  sets.reserve(member_sets.size());
  while (!member_sets.empty()) {
    sets.push_back(std::move(member_sets.extract(member_sets.begin()).value()));
  }
  // Canonical lexicographic order (what iterating the old std::set gave).
  std::sort(sets.begin(), sets.end());

  if (prune_dominated) {
    prune_dominated_sets(sets, n);
  }

  std::vector<Bundle> candidates;
  candidates.reserve(sets.size());
  for (auto& members : sets) {
    candidates.push_back(make_bundle(deployment, std::move(members)));
  }
  return candidates;
}

}  // namespace bc::bundle
