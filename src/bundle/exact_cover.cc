#include "bundle/exact_cover.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>

#include "bundle/candidates.h"
#include "bundle/greedy_cover.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/parallel.h"
#include "support/require.h"

namespace bc::bundle {

namespace {

// The branch & bound keeps every bitset it touches in preallocated flat
// storage — candidate masks in one candidate-major array, the per-depth
// uncovered sets in a depth-major pool — so "a bitset" below is a span of
// `words` 64-bit words and the inner loops never allocate.

// Index of the lowest set bit; precondition: some bit is set.
inline std::size_t first_set_bit(const std::uint64_t* w, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if (w[i] != 0) {
      return (i << 6) + static_cast<std::size_t>(std::countr_zero(w[i]));
    }
  }
  support::ensure(false, "first_set_bit on an empty set");
  return 0;
}

// Fused dst = src & ~mask over `words` words, returning popcount(src &
// mask) (the number of bits cleared).
inline std::size_t subtract_and_count(std::uint64_t* dst,
                                      const std::uint64_t* src,
                                      const std::uint64_t* mask,
                                      std::size_t words) {
  std::size_t cleared = 0;
  for (std::size_t i = 0; i < words; ++i) {
    cleared += static_cast<std::size_t>(std::popcount(src[i] & mask[i]));
    dst[i] = src[i] & ~mask[i];
  }
  return cleared;
}

inline std::size_t intersect_count(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::size_t words) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

// Candidate masks plus the inverted pivot -> candidate index: for each
// sensor, the ascending-id list of candidates containing it (CSR layout).
// Branch enumeration walks exactly the candidates containing the pivot
// instead of scanning every mask for the pivot bit.
struct CandidateIndex {
  std::size_t words = 0;
  std::size_t max_candidate_size = 1;
  std::vector<std::uint64_t> masks;      // candidate-major, m * words
  std::vector<std::uint32_t> inv_start;  // n + 1 offsets into inv_items
  std::vector<std::uint32_t> inv_items;  // candidate ids, ascending per row

  const std::uint64_t* mask(std::uint32_t c) const {
    return masks.data() + std::size_t{c} * words;
  }
};

CandidateIndex build_index(std::size_t n, std::span<const Bundle> candidates) {
  CandidateIndex index;
  index.words = (n + 63) / 64;
  index.masks.assign(candidates.size() * index.words, 0);
  index.inv_start.assign(n + 2, 0);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const Bundle& b = candidates[c];
    index.max_candidate_size =
        std::max(index.max_candidate_size, b.members.size());
    std::uint64_t* mask = index.masks.data() + c * index.words;
    for (const net::SensorId id : b.members) {
      mask[id >> 6] |= std::uint64_t{1} << (id & 63);
      ++index.inv_start[id + 1];
    }
  }
  for (std::size_t s = 1; s + 1 < index.inv_start.size(); ++s) {
    index.inv_start[s + 1] += index.inv_start[s];
  }
  index.inv_items.resize(index.inv_start[n]);
  std::vector<std::uint32_t> cursor(index.inv_start.begin(),
                                    index.inv_start.begin() +
                                        static_cast<std::ptrdiff_t>(n));
  for (std::uint32_t c = 0; c < candidates.size(); ++c) {
    for (const net::SensorId id : candidates[c].members) {
      index.inv_items[cursor[id]++] = c;
    }
  }
  index.inv_start.pop_back();  // back to the usual n + 1 CSR offsets
  return index;
}

// Depth-first branch & bound with all per-node scratch preallocated: one
// uncovered bitset per depth in `pool` and one branch vector per depth in
// `scratch`, both reused across the whole DFS. Branch order is pinned to
// (covered count desc, candidate id asc) so results are reproducible by
// any reimplementation (the perf-diff reference suite relies on this).
struct Searcher {
  const CandidateIndex* index = nullptr;
  std::size_t node_budget = 0;  // per-call cap (0 = unlimited)
  // Shared meter charged one unit per node; null = unmetered. Node-cap
  // trips are a function of the serial expansion count alone, so they are
  // bit-identical at every thread count.
  support::BudgetMeter* meter = nullptr;
  std::size_t nodes = 0;
  std::size_t incumbent_updates = 0;
  std::size_t max_depth = 0;
  bool aborted = false;
  // chosen[0..depth) is the current partial cover — a flat buffer indexed
  // by depth (sized by reserve), not a push/pop stack.
  std::vector<std::uint32_t> chosen;
  std::vector<std::uint32_t> best;
  std::size_t best_size = 0;  // incumbent bound (strictly improve on it)

  // A branch packs (covered count, candidate id) into one word ordered so
  // that a plain descending sort yields count desc, id asc — the pinned
  // branch order.
  static std::uint64_t pack_branch(std::size_t count, std::uint32_t id) {
    return (static_cast<std::uint64_t>(count) << 32) |
           static_cast<std::uint32_t>(~id);
  }
  static std::uint32_t branch_id(std::uint64_t packed) {
    return ~static_cast<std::uint32_t>(packed);
  }

  std::vector<std::uint64_t> pool;                  // depth-major uncovered
  std::vector<std::vector<std::uint64_t>> scratch;  // per-depth branch lists

  // Sizes the arena for searches up to `depth_cap` levels deep. The prune
  // `chosen.size() + lower >= best_size` keeps every visited depth below
  // best_size, so the initial incumbent size + 1 is always enough.
  void reserve(std::size_t depth_cap) {
    pool.assign((depth_cap + 1) * index->words, 0);
    scratch.resize(depth_cap + 1);
    chosen.assign(depth_cap + 1, 0);
  }

  std::uint64_t* slot(std::size_t depth) {
    return pool.data() + depth * index->words;
  }

  // Searches the subtree whose uncovered set sits in slot(depth) and has
  // `remaining` bits set; chosen[0..depth) is the partial cover so far.
  // `from` is a word hint: slot(depth) is zero below word `from` (and only
  // guaranteed *initialised* from `from` on), because the pivot is always
  // the lowest uncovered bit, so a child can never regain a bit below the
  // parent's pivot word. Every word loop starts there.
  void search(std::size_t depth, std::size_t remaining, std::size_t from) {
    ++nodes;
    if (node_budget != 0 && nodes > node_budget) {
      aborted = true;
      return;
    }
    if (meter != nullptr && !meter->charge()) {
      aborted = true;
      return;
    }
    if (depth > max_depth) max_depth = depth;
    if (remaining == 0) {
      if (depth < best_size) {
        best.assign(chosen.begin(),
                    chosen.begin() + static_cast<std::ptrdiff_t>(depth));
        best_size = depth;
        ++incumbent_updates;
      }
      return;
    }
    // Lower bound: even perfect candidates need ceil(remaining / max_size)
    // more sets; prune unless that still strictly beats the incumbent.
    // (Division-free form of depth + ceil(remaining / max) >= best_size.)
    if (best_size <= depth + 1) return;
    if (remaining > (best_size - depth - 1) * index->max_candidate_size) {
      return;
    }

    // Branch on the lowest uncovered sensor: some chosen set must contain
    // it. The inverted index yields exactly those sets.
    const std::uint64_t* uncovered = slot(depth);
    const std::size_t tail = index->words - from;
    const std::size_t pivot =
        (from << 6) + first_set_bit(uncovered + from, tail);
    std::vector<std::uint64_t>& branches = scratch[depth];
    branches.clear();
    for (std::uint32_t k = index->inv_start[pivot];
         k < index->inv_start[pivot + 1]; ++k) {
      const std::uint32_t c = index->inv_items[k];
      branches.push_back(pack_branch(
          intersect_count(uncovered + from, index->mask(c) + from, tail), c));
    }
    // Try high-coverage candidates first for early tight incumbents; ties
    // go to the lower candidate id. Branch lists are tiny (one inverted
    // row), so an insertion sort beats std::sort's dispatch overhead.
    for (std::size_t i = 1; i < branches.size(); ++i) {
      const std::uint64_t key = branches[i];
      std::size_t j = i;
      for (; j > 0 && branches[j - 1] < key; --j) branches[j] = branches[j - 1];
      branches[j] = key;
    }
    const std::size_t child_from = pivot >> 6;
    const std::size_t child_tail = index->words - child_from;
    for (const std::uint64_t packed : branches) {
      const std::uint32_t id = branch_id(packed);
      const std::size_t cleared = subtract_and_count(
          slot(depth + 1) + child_from, uncovered + child_from,
          index->mask(id) + child_from, child_tail);
      chosen[depth] = id;
      search(depth + 1, remaining - cleared, child_from);
      if (aborted) return;
    }
  }
};

// Materialise chosen candidates as a partition (first bundle keeps shared
// sensors), mirroring greedy's post-processing.
std::vector<Bundle> materialise(const net::Deployment& deployment,
                                std::span<const Bundle> candidates,
                                const std::vector<std::uint32_t>& chosen) {
  std::vector<bool> taken(deployment.size(), false);
  std::vector<Bundle> result;
  result.reserve(chosen.size());
  for (const std::uint32_t c : chosen) {
    std::vector<net::SensorId> members;
    for (const net::SensorId id : candidates[c].members) {
      if (!taken[id]) {
        taken[id] = true;
        members.push_back(id);
      }
    }
    support::ensure(!members.empty(),
                    "exact cover selected a redundant candidate");
    result.push_back(make_bundle(deployment, std::move(members)));
  }
  return result;
}

void set_all(std::uint64_t* w, std::size_t bits) {
  const std::size_t words = (bits + 63) / 64;
  for (std::size_t i = 0; i < words; ++i) w[i] = ~std::uint64_t{0};
  const std::size_t extra = words * 64 - bits;
  if (extra > 0 && words > 0) w[words - 1] &= (~std::uint64_t{0}) >> extra;
}

}  // namespace

support::Expected<CoverSolution> exact_cover_anytime(
    const net::Deployment& deployment, std::span<const Bundle> candidates,
    const ExactCoverOptions& options, support::BudgetMeter* meter) {
  support::require(covers_all_sensors(deployment, candidates),
                   "candidates must cover every sensor");
  support::BudgetMeter local_meter(options.budget);
  const bool metered = meter != nullptr || !options.budget.unlimited();
  if (meter == nullptr) meter = &local_meter;
  if (meter->exhausted() || !meter->check()) {
    return support::Fault{support::FaultKind::kBudgetExhausted,
                          "exact cover: " + support::describe_trip(*meter)};
  }

  const std::size_t n = deployment.size();
  const CandidateIndex index = build_index(n, candidates);

  obs::TraceSpan span("exact_cover.search");
  span.attr("n", static_cast<std::int64_t>(n))
      .attr("candidates", static_cast<std::uint64_t>(candidates.size()));

  // Greedy incumbent provides the initial upper bound — and the anytime
  // answer if the budget trips before the search finds anything better.
  const std::vector<Bundle> incumbent = greedy_cover(deployment, candidates);
  const std::size_t bound0 = incumbent.size() + 1;  // allow matching greedy

  Searcher state;
  state.index = &index;
  state.node_budget = options.max_nodes;
  state.meter = metered ? meter : nullptr;
  state.best_size = bound0;

  if (n > 0 && options.max_nodes == 0 && !metered) {
    // Unlimited budget: fan the root branches out over the pool. Each
    // branch subtree is searched independently with the greedy bound, and
    // the per-branch winners are merged serially in branch order with the
    // same strict-improvement rule the serial DFS applies. Because the
    // bound-pruning can only skip subtrees that contain no strictly
    // better solution, every branch returns the same minimal cover the
    // serial search would have recorded in it, and the ordered merge
    // reproduces the serial result bit for bit. (A shared node counter
    // would make abortion order scheduling-dependent, which is why every
    // budgeted path stays serial.)
    const std::size_t lower =
        (n + index.max_candidate_size - 1) / index.max_candidate_size;
    if (lower < state.best_size) {
      std::vector<std::uint64_t> root(index.words, 0);
      set_all(root.data(), n);
      const std::size_t pivot = first_set_bit(root.data(), index.words);
      std::vector<std::uint64_t> branches;
      for (std::uint32_t k = index.inv_start[pivot];
           k < index.inv_start[pivot + 1]; ++k) {
        const std::uint32_t c = index.inv_items[k];
        branches.push_back(Searcher::pack_branch(
            intersect_count(root.data(), index.mask(c), index.words), c));
      }
      std::sort(branches.begin(), branches.end(),
                std::greater<std::uint64_t>());

      struct BranchResult {
        std::vector<std::uint32_t> best;  // empty = nothing under the bound
        std::size_t nodes = 0;
        std::size_t incumbent_updates = 0;
        std::size_t max_depth = 0;
      };
      const auto results = support::parallel_map<BranchResult>(
          branches.size(), /*grain=*/1, [&](std::size_t b) {
            const std::uint32_t id = Searcher::branch_id(branches[b]);
            Searcher branch_state;
            branch_state.index = &index;
            branch_state.best_size = bound0;
            branch_state.reserve(bound0 + 1);
            branch_state.chosen[0] = id;
            const std::size_t cleared = subtract_and_count(
                branch_state.slot(1), root.data(), index.mask(id), index.words);
            branch_state.search(1, n - cleared, 0);
            return BranchResult{std::move(branch_state.best),
                                branch_state.nodes,
                                branch_state.incumbent_updates,
                                branch_state.max_depth};
          });
      for (const BranchResult& result : results) {
        state.nodes += result.nodes;
        state.incumbent_updates += result.incumbent_updates;
        state.max_depth = std::max(state.max_depth, result.max_depth);
        if (!result.best.empty() && result.best.size() < state.best_size) {
          state.best = result.best;
          state.best_size = result.best.size();
        }
      }
    }
  } else {
    state.reserve(bound0 + 1);
    set_all(state.slot(0), n);
    state.search(0, n, 0);
  }

  CoverSolution solution;
  solution.optimal = !state.aborted;
  solution.nodes_expanded = state.nodes;
  solution.trip = meter->trip();
  if (state.aborted && solution.trip == support::BudgetTrip::kNone) {
    solution.trip = support::BudgetTrip::kNodeCap;  // per-call max_nodes
  }
  solution.bundles = state.best.empty()
                         ? incumbent
                         : materialise(deployment, candidates, state.best);

  {
    // Every per-branch searcher in the parallel fan-out sizes its arena
    // the same way, so the reserve size doubles as the high-water mark.
    const std::uint64_t arena_words = (bound0 + 2) * index.words;
    static const obs::Counter calls("exact_cover.calls");
    static const obs::Counter nodes("exact_cover.nodes_expanded");
    static const obs::Counter incumbents("exact_cover.incumbent_updates");
    static const obs::Counter trips("exact_cover.budget_trips");
    static const obs::Gauge depth_hw("exact_cover.max_depth");
    static const obs::Gauge arena_hw("exact_cover.arena_words");
    calls.add();
    nodes.add(state.nodes);
    incumbents.add(state.incumbent_updates);
    trips.add(state.aborted ? 1 : 0);
    depth_hw.record(state.max_depth);
    arena_hw.record(arena_words);
  }
  span.attr("nodes", static_cast<std::uint64_t>(state.nodes))
      .attr("incumbent_updates",
            static_cast<std::uint64_t>(state.incumbent_updates))
      .attr("optimal", solution.optimal)
      .attr("bundles", static_cast<std::uint64_t>(solution.bundles.size()));
  return solution;
}

std::optional<std::vector<Bundle>> exact_cover(
    const net::Deployment& deployment, std::span<const Bundle> candidates,
    const ExactCoverOptions& options) {
  auto solution = exact_cover_anytime(deployment, candidates, options);
  if (!solution || !solution.value().optimal) return std::nullopt;
  return std::move(solution.value().bundles);
}

std::optional<std::vector<Bundle>> optimal_bundles(
    const net::Deployment& deployment, double r,
    const ExactCoverOptions& options) {
  const std::vector<Bundle> candidates = enumerate_candidates(deployment, r);
  return exact_cover(deployment, candidates, options);
}

}  // namespace bc::bundle
