// Differential suite for the arena-backed exact-cover search (`ctest -L
// perf-diff`): a deliberately naive in-test reference implements the
// pinned search semantics — greedy incumbent with bound `|greedy| + 1`,
// branch on the lowest uncovered sensor, branch order (covered count desc,
// candidate id asc), one node charged at every entry, per-call node cap
// checked as `nodes > cap` — and the production search must return
// byte-identical covers (and, on serial budgeted runs, identical node
// counts) on hundreds of seeded instances at BC_THREADS = 1, 2 and 8,
// including budget-tripped node-cap anytime cutoffs.

#include "bundle/exact_cover.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "bundle/candidates.h"
#include "bundle/greedy_cover.h"
#include "core/bundlecharge.h"
#include "net/deployment.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace bc::bundle {
namespace {

using MemberLists = std::vector<std::vector<net::SensorId>>;

struct RefResult {
  MemberLists cover;  // first-wins partition, like the production search
  bool optimal = true;
  std::size_t nodes = 0;
};

// First-wins partition of the chosen candidates (the production
// `materialise` keeps a shared sensor in the earliest bundle).
MemberLists partition(std::span<const Bundle> candidates,
                      const std::vector<std::uint32_t>& chosen,
                      std::size_t n) {
  std::vector<char> taken(n, 0);
  MemberLists out;
  for (const std::uint32_t c : chosen) {
    std::vector<net::SensorId> members;
    for (const net::SensorId id : candidates[c].members) {
      if (!taken[id]) {
        taken[id] = 1;
        members.push_back(id);
      }
    }
    out.push_back(std::move(members));
  }
  return out;
}

MemberLists bundle_members(std::span<const Bundle> bundles) {
  MemberLists out;
  for (const Bundle& b : bundles) out.push_back(b.members);
  return out;
}

// Naive reference branch & bound: per-node set copies, full rescans, no
// inverted index — slow on purpose, pinned to the documented semantics.
RefResult reference_cover(const net::Deployment& deployment,
                          std::span<const Bundle> candidates,
                          std::size_t max_nodes) {
  const std::size_t n = deployment.size();
  const std::vector<Bundle> incumbent = greedy_cover(deployment, candidates);
  std::size_t max_size = 1;
  for (const Bundle& b : candidates) {
    max_size = std::max(max_size, b.members.size());
  }

  std::size_t best_size = incumbent.size() + 1;
  std::vector<std::uint32_t> best;
  std::vector<std::uint32_t> chosen;
  std::size_t nodes = 0;
  bool aborted = false;

  const std::function<void(const std::vector<char>&, std::size_t)> search =
      [&](const std::vector<char>& covered, std::size_t remaining) {
        ++nodes;
        if (max_nodes != 0 && nodes > max_nodes) {
          aborted = true;
          return;
        }
        if (remaining == 0) {
          if (chosen.size() < best_size) {
            best = chosen;
            best_size = chosen.size();
          }
          return;
        }
        if (chosen.size() + (remaining + max_size - 1) / max_size >=
            best_size) {
          return;
        }
        std::size_t pivot = 0;
        while (covered[pivot]) ++pivot;
        // (covered count, candidate id) for every candidate containing the
        // pivot; sort to the pinned (count desc, id asc) order.
        std::vector<std::pair<std::size_t, std::uint32_t>> branches;
        for (std::uint32_t c = 0;
             c < static_cast<std::uint32_t>(candidates.size()); ++c) {
          const auto& members = candidates[c].members;
          if (std::find(members.begin(), members.end(),
                        static_cast<net::SensorId>(pivot)) == members.end()) {
            continue;
          }
          std::size_t count = 0;
          for (const net::SensorId id : members) count += !covered[id];
          branches.emplace_back(count, c);
        }
        std::sort(branches.begin(), branches.end(),
                  [](const auto& a, const auto& b) {
                    if (a.first != b.first) return a.first > b.first;
                    return a.second < b.second;
                  });
        for (const auto& [count, c] : branches) {
          std::vector<char> child = covered;
          std::size_t still = remaining;
          for (const net::SensorId id : candidates[c].members) {
            if (!child[id]) {
              child[id] = 1;
              --still;
            }
          }
          chosen.push_back(c);
          search(child, still);
          chosen.pop_back();
          if (aborted) return;
        }
      };
  search(std::vector<char>(n, 0), n);

  RefResult result;
  result.optimal = !aborted;
  result.nodes = nodes;
  result.cover =
      best.empty() ? bundle_members(incumbent) : partition(candidates, best, n);
  return result;
}

net::Deployment make_deployment(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  return net::uniform_random_deployment(
      n, core::icdcs2019_simulation_profile().field, rng);
}

// 24 seeded instances x 3 node-cap regimes x 3 thread counts = 216
// production runs, each diffed against the serial naive reference.
// max_nodes = 3 trips essentially immediately (anytime fallback to the
// greedy incumbent), 40 trips mid-search, 0 is the unlimited parallel
// fan-out path.
TEST(ExactCoverDifferentialTest, MatchesNaiveReferenceAcrossThreadCounts) {
  constexpr double kRadius = 90.0;
  constexpr std::size_t kSizes[] = {12, 20, 28, 36};
  constexpr std::size_t kCaps[] = {0, 3, 40};
  for (const std::size_t n : kSizes) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const auto deployment = make_deployment(n, 9000 + 31 * n + seed);
      const auto candidates = enumerate_candidates(deployment, kRadius);
      for (const std::size_t cap : kCaps) {
        const RefResult expected =
            reference_cover(deployment, candidates, cap);
        ExactCoverOptions options;
        options.max_nodes = cap;
        for (const std::size_t threads : {1, 2, 8}) {
          support::set_thread_count(threads);
          const auto got =
              exact_cover_anytime(deployment, candidates, options);
          ASSERT_TRUE(got.has_value());
          const CoverSolution& solution = got.value();
          ASSERT_EQ(bundle_members(solution.bundles), expected.cover)
              << "n=" << n << " seed=" << seed << " cap=" << cap
              << " threads=" << threads;
          ASSERT_EQ(solution.optimal, expected.optimal)
              << "n=" << n << " seed=" << seed << " cap=" << cap;
          if (cap != 0) {
            // Budgeted runs stay serial, so even the node trajectory must
            // be identical. (The unlimited path fans root branches out and
            // does not count the root node, so only covers compare there.)
            ASSERT_EQ(solution.nodes_expanded, expected.nodes)
                << "n=" << n << " seed=" << seed << " cap=" << cap
                << " threads=" << threads;
          }
        }
      }
    }
  }
  support::set_thread_count(1);
}

// The corpus above fits one 64-bit word. n = 520 and 700 span 9 and 11
// words, so the word loops (pivot search, intersect and subtract counts)
// run across word boundaries and over tails that shrink with the pivot.
// Every cap is budgeted, so the search is serial and node counts compare.
TEST(ExactCoverDifferentialTest, MultiWordInstancesMatchNaiveReference) {
  constexpr double kRadius = 60.0;
  constexpr std::size_t kSizes[] = {520, 700};
  constexpr std::size_t kCaps[] = {3, 40, 400};
  for (const std::size_t n : kSizes) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto deployment = make_deployment(n, 4100 + 31 * n + seed);
      const auto candidates = enumerate_candidates(deployment, kRadius);
      for (const std::size_t cap : kCaps) {
        const RefResult expected =
            reference_cover(deployment, candidates, cap);
        ExactCoverOptions options;
        options.max_nodes = cap;
        const auto got = exact_cover_anytime(deployment, candidates, options);
        ASSERT_TRUE(got.has_value());
        const CoverSolution& solution = got.value();
        ASSERT_EQ(bundle_members(solution.bundles), expected.cover)
            << "n=" << n << " seed=" << seed << " cap=" << cap;
        ASSERT_EQ(solution.optimal, expected.optimal)
            << "n=" << n << " seed=" << seed << " cap=" << cap;
        ASSERT_EQ(solution.nodes_expanded, expected.nodes)
            << "n=" << n << " seed=" << seed << " cap=" << cap;
      }
    }
  }
}

// The optimal covers must also be genuinely minimal: no smaller cover
// exists (cross-check via the reference with the bound lowered).
TEST(ExactCoverDifferentialTest, OptimalCoversAreMinimumCardinality) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto deployment = make_deployment(18, 777 + seed);
    const auto candidates = enumerate_candidates(deployment, 110.0);
    const auto got = exact_cover_anytime(deployment, candidates, {});
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(got.value().optimal);
    const RefResult expected = reference_cover(deployment, candidates, 0);
    ASSERT_TRUE(expected.optimal);
    ASSERT_EQ(got.value().bundles.size(), expected.cover.size());
  }
}

}  // namespace
}  // namespace bc::bundle
