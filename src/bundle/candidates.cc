#include "bundle/candidates.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "geometry/circle.h"
#include "net/spatial_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/parallel.h"
#include "support/require.h"

namespace bc::bundle {

using geometry::Point2;

namespace {

// Member sets back to back: set k is ids[offsets[k], offsets[k + 1]), in
// ascending id order. Each parallel chunk fills its own arena; the chunks
// are concatenated in chunk order, which is exactly the serial scan's
// arena at any thread count.
struct SetArena {
  std::vector<net::SensorId> ids;
  std::vector<std::size_t> offsets{0};
  std::uint64_t emitted = 0;      // pair-circle sets of size >= 2
  std::uint64_t seed_pruned = 0;  // emitted sets dropped within their seed

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const net::SensorId> set(std::size_t k) const {
    return {ids.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }
  void append(const SetArena& chunk) {
    const std::size_t base = ids.size();
    ids.insert(ids.end(), chunk.ids.begin(), chunk.ids.end());
    for (std::size_t k = 1; k < chunk.offsets.size(); ++k) {
      offsets.push_back(base + chunk.offsets[k]);
    }
    emitted += chunk.emitted;
    seed_pruned += chunk.seed_pruned;
  }
};

// Every member of an r-circle through seed i lies within dist(i, center)
// + member radius <= 2r + slack of i, so one padded 2r query per seed
// serves as the pool for every circle seeded there — the inner loops then
// filter by exact distance instead of re-querying the grid.
double pool_radius(double r) { return 2.0 * r + 1e-6 * (r + 1.0); }

// Offers one pair-circle set (a mask over the seed's pool) to the seed's
// maximal sets `kept`: it is dropped when equal to or inside a kept set,
// and otherwise evicts every kept set it strictly contains. `kept` stays
// an antichain, so a dropped set never had anything to evict and one pass
// decides both.
void offer_seed_set(const std::vector<std::uint64_t>& fresh,
                    std::size_t words, std::vector<std::uint64_t>& kept,
                    std::uint64_t& pruned) {
  const auto subset = [words](const std::uint64_t* a, const std::uint64_t* b) {
    for (std::size_t w = 0; w < words; ++w) {
      if ((a[w] & ~b[w]) != 0) return false;
    }
    return true;
  };
  const std::size_t count = kept.size() / words;
  std::size_t out = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t* set = kept.data() + k * words;
    if (subset(fresh.data(), set)) {
      ++pruned;
      return;
    }
    if (subset(set, fresh.data())) {
      ++pruned;
      continue;
    }
    if (out != k) std::copy_n(set, words, kept.data() + out * words);
    ++out;
  }
  kept.resize(out * words);
  kept.insert(kept.end(), fresh.begin(), fresh.end());
}

// Pair-circle enumeration seeded at sensors [begin, end): for each seed i,
// the two radius-r circles through every pair (i, j > i) within 2r, with
// the sensors inside each circle collected as a bitmask over i's id-sorted
// pool. Only the seed's locally maximal sets reach `arena` — the output
// is the maximal family of everything emitted, and a set equal to or
// inside another set of its own seed is never maximal there, nor needed
// to find what is. A non-null meter is charged one unit per seed pair and
// stops the scan when it trips (the partial seed's maxima are still
// flushed).
//
// This one body serves both the serial metered path and the parallel
// chunked path — it is a pure function of the geometry and the scan
// interval, so chunks can run on any thread (with a null meter).
void enumerate_seeded_at(std::span<const Point2> positions,
                         const net::SpatialIndex& index, double r,
                         std::size_t begin, std::size_t end,
                         support::BudgetMeter* meter, SetArena& arena) {
  // Relative slack: the defining pair sits exactly on the circle boundary
  // and must not be lost to rounding in the construction of `center`.
  const double member_r = r * (1.0 + 1e-9) + 1e-12;
  const double member_r2 = member_r * member_r;
  const double pair_r2 = 4.0 * r * r;
  const double pool_r = pool_radius(r);
  std::vector<net::SensorId> pool;
  std::vector<double> pool_xs;
  std::vector<double> pool_ys;
  std::vector<std::uint64_t> fresh;
  std::vector<std::uint64_t> kept;
  bool tripped = false;
  for (std::size_t i = begin; i < end && !tripped; ++i) {
    index.within(positions[i], pool_r, pool);
    const std::size_t count = pool.size();
    const std::size_t words = (count + 63) / 64;
    pool_xs.resize(count);
    pool_ys.resize(count);
    for (std::size_t t = 0; t < count; ++t) {
      pool_xs[t] = positions[pool[t]].x;
      pool_ys[t] = positions[pool[t]].y;
    }
    fresh.resize(words);
    kept.clear();
    for (const net::SensorId j : pool) {
      if (j <= i) continue;
      // The padded pool can hold partners just beyond 2r; skip them before
      // the meter charge so budget cut points match the unpadded scan.
      if (geometry::distance_squared(positions[i], positions[j]) > pair_r2) {
        continue;
      }
      if (meter != nullptr && !meter->charge()) {
        tripped = true;
        break;
      }
      const auto centers =
          geometry::circles_through_pair(positions[i], positions[j], r);
      if (!centers.has_value()) continue;
      for (const Point2 center : {centers->first, centers->second}) {
        // The exact distance test of an id-list membership scan, so every
        // set has the bits that scan gave.
        std::size_t size = 0;
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t bits = 0;
          const std::size_t last = std::min(count, 64 * w + 64);
          for (std::size_t t = 64 * w; t < last; ++t) {
            const double dx = pool_xs[t] - center.x;
            const double dy = pool_ys[t] - center.y;
            bits |= std::uint64_t{dx * dx + dy * dy <= member_r2} << (t & 63);
          }
          fresh[w] = bits;
          size += static_cast<std::size_t>(std::popcount(bits));
        }
        if (size < 2) continue;
        ++arena.emitted;
        offer_seed_set(fresh, words, kept, arena.seed_pruned);
      }
    }
    // The pool is id-sorted, so ascending bits give ascending ids.
    for (std::size_t k = 0; k < kept.size(); k += words) {
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = kept[k + w]; bits != 0; bits &= bits - 1) {
          arena.ids.push_back(
              pool[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]);
        }
      }
      arena.offsets.push_back(arena.ids.size());
    }
  }
}

// SplitMix64-style hash over an ascending-id member set. It only places
// sets in the dedup table; the output order comes from one sort.
std::uint64_t hash_members(std::span<const net::SensorId> members) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ members.size();
  for (const net::SensorId id : members) {
    std::uint64_t z = h + 0x9e3779b97f4a7c15ULL + id;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

// Arena indices of the distinct sets (first occurrence, arena order),
// through an open-addressing table at load <= 1/2.
std::vector<std::uint32_t> distinct_sets(const SetArena& arena) {
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  const std::size_t m = arena.size();
  support::ensure(m < kEmpty, "candidate arena exceeds 2^32 sets");
  const std::size_t capacity = std::bit_ceil(2 * m + 1);
  std::vector<std::uint32_t> slots(capacity, kEmpty);
  std::vector<std::uint32_t> distinct;
  distinct.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    const auto set = arena.set(k);
    std::size_t slot = hash_members(set) & (capacity - 1);
    while (true) {
      const std::uint32_t other = slots[slot];
      if (other == kEmpty) {
        slots[slot] = static_cast<std::uint32_t>(k);
        distinct.push_back(static_cast<std::uint32_t>(k));
        break;
      }
      if (std::ranges::equal(arena.set(other), set)) break;
      slot = (slot + 1) & (capacity - 1);
    }
  }
  return distinct;
}

// Sorts distinct arena indices by (size desc, member ids lex asc). The
// (size, first member) prefix of that order is packed into one integer
// key, so only sets sharing both compare their spans.
void sort_by_size_then_members(const SetArena& arena,
                               std::vector<std::uint32_t>& order) {
  struct Keyed {
    std::uint64_t key;
    std::uint32_t index;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(order.size());
  for (const std::uint32_t k : order) {
    const auto set = arena.set(k);
    const auto size_rank = static_cast<std::uint64_t>(
        std::numeric_limits<std::uint32_t>::max() - set.size());
    keyed.push_back({size_rank << 32 | set.front(), k});
  }
  std::sort(keyed.begin(), keyed.end(), [&](const Keyed& a, const Keyed& b) {
    if (a.key != b.key) return a.key < b.key;
    return std::ranges::lexicographical_compare(arena.set(a.index),
                                                arena.set(b.index));
  });
  for (std::size_t rank = 0; rank < keyed.size(); ++rank) {
    order[rank] = keyed[rank].index;
  }
}

// Keeps the sets of `order` (distinct arena indices sorted by size desc,
// lex asc) that no other set strictly contains, in that order. A strictly
// larger superset comes earlier and holds the candidate's first member, so
// only the earlier sets on that member's list are probed, and only kept
// ones: had a dominating set itself been dominated, its dominator (kept,
// by induction) also contains the candidate. The member lists are one CSR
// array over `order`, so memory is linear in the arena.
std::vector<std::uint32_t> maximal_sets(const SetArena& arena,
                                        const std::vector<std::uint32_t>& order,
                                        std::size_t n) {
  std::vector<std::size_t> start(n + 1, 0);
  for (const std::uint32_t k : order) {
    for (const net::SensorId id : arena.set(k)) ++start[id + 1];
  }
  for (std::size_t id = 0; id < n; ++id) start[id + 1] += start[id];
  std::vector<std::uint32_t> ranks(start[n]);
  {
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      for (const net::SensorId id : arena.set(order[rank])) {
        ranks[cursor[id]++] = static_cast<std::uint32_t>(rank);
      }
    }
  }

  std::vector<char> kept(order.size(), 0);
  std::vector<std::uint32_t> maximal;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const auto set = arena.set(order[rank]);
    bool dominated = false;
    for (std::size_t e = start[set.front()]; e < start[set.front() + 1]; ++e) {
      const std::uint32_t other = ranks[e];
      const auto super = arena.set(order[other]);
      if (super.size() <= set.size()) break;
      if (kept[other] != 0 &&
          std::includes(super.begin(), super.end(), set.begin(), set.end())) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    kept[rank] = 1;
    maximal.push_back(order[rank]);
  }
  return maximal;
}

}  // namespace

std::vector<Bundle> enumerate_candidates(const net::Deployment& deployment,
                                         double r,
                                         support::BudgetMeter* meter) {
  support::require(r >= 0.0, "candidate radius must be non-negative");
  const auto positions = deployment.positions();
  const std::size_t n = deployment.size();

  obs::TraceSpan span("candidates.enumerate");
  span.attr("n", static_cast<std::int64_t>(n)).attr("r", r);

  SetArena arena;
  if (r > 0.0 && n > 1) {
    // Cells of half the pool radius: a pool query scans 5 x 5 cells.
    const net::SpatialIndex index(positions, pool_radius(r) / 2.0);
    if (meter != nullptr) {
      // The budget is an early exit whose cut point depends on visit
      // order, so honour it with the serial scan.
      enumerate_seeded_at(positions, index, r, 0, n, meter, arena);
    } else {
      // Unmetered: fan the seed sensors out over the pool. The grain is
      // fixed (not derived from the thread count) and the chunk arenas are
      // concatenated in chunk order, so the arena is the serial one.
      constexpr std::size_t kGrain = 64;
      const std::size_t num_chunks = (n + kGrain - 1) / kGrain;
      const auto partials = support::parallel_map<SetArena>(
          num_chunks, 1, [&](std::size_t chunk) {
            const std::size_t begin = chunk * kGrain;
            SetArena found;
            enumerate_seeded_at(positions, index, r, begin,
                                std::min(n, begin + kGrain), nullptr, found);
            return found;
          });
      for (const SetArena& partial : partials) arena.append(partial);
    }
  }

  std::vector<std::uint32_t> order = distinct_sets(arena);
  const std::uint64_t dedup_hits = arena.size() - order.size();
  sort_by_size_then_members(arena, order);
  const std::vector<std::uint32_t> maximal = maximal_sets(arena, order, n);

  // Every emitted set has size >= 2, so {i} is maximal exactly when no
  // set holds i; singletons sort after all of them, in id order.
  std::vector<char> in_set(n, 0);
  for (const net::SensorId id : arena.ids) in_set[id] = 1;
  std::vector<net::SensorId> singletons;
  for (net::SensorId id = 0; id < n; ++id) {
    if (in_set[id] == 0) singletons.push_back(id);
  }
  const std::uint64_t candidate_count = maximal.size() + singletons.size();
  const std::uint64_t dominated_pruned = n + order.size() - candidate_count;

  {
    static const obs::Counter calls("candidates.calls");
    static const obs::Counter emitted("candidates.sets_emitted");
    static const obs::Counter seed("candidates.seed_pruned");
    static const obs::Counter dedup("candidates.dedup_hits");
    static const obs::Counter dominated("candidates.dominated_pruned");
    static const obs::Counter enumerated("candidates.enumerated");
    calls.add();
    emitted.add(arena.emitted);
    seed.add(arena.seed_pruned);
    dedup.add(dedup_hits);
    dominated.add(dominated_pruned);
    enumerated.add(candidate_count);
  }
  span.attr("sets_emitted", arena.emitted)
      .attr("seed_pruned", arena.seed_pruned)
      .attr("dedup_hits", dedup_hits)
      .attr("dominated_pruned", dominated_pruned)
      .attr("candidates", candidate_count);

  std::vector<Bundle> candidates;
  candidates.reserve(candidate_count);
  for (const std::uint32_t k : maximal) {
    const auto members = arena.set(k);
    Bundle b = make_bundle(
        deployment, std::vector<net::SensorId>(members.begin(), members.end()));
    // Numerical safety: the SED of an r-disk subset can exceed r only by
    // rounding; clamp is unnecessary, but assert the invariant.
    support::ensure(b.radius <= r * (1.0 + 1e-6) + 1e-9,
                    "candidate bundle exceeds the generation radius");
    candidates.push_back(std::move(b));
  }
  for (const net::SensorId id : singletons) {
    candidates.push_back(make_bundle(deployment, {id}));
  }
  return candidates;
}

}  // namespace bc::bundle
