// Differential suite for the tour improvers (`ctest -L perf-diff`):
// two_opt, or_opt, improve_tour (with and without lists shared across a
// solve) and solve_tsp must match the code in tests/oracles/improve_parent
// bit for bit — the tour, the returned gain's bits, every tsp.* counter and
// histogram and the meter's charges — on uniform, grid, duplicated,
// clustered and integer-lattice points from n = 4 to 303, in free space
// and in a walled waypoint world, with 0/3/12 neighbours, certification on
// and off, pass caps and node caps, plus one tour above the dense-table
// limit. Grids, duplicates and lattices tie on distance, which is what
// forces improve_tour back to lists numbered by each call's start tour.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fixtures/paper_world.h"
#include "net/metric.h"
#include "obs/metrics.h"
#include "oracles/improve_parent.h"
#include "support/deadline.h"
#include "support/rng.h"
#include "tsp/construct.h"
#include "tsp/distance_table.h"
#include "tsp/improve.h"
#include "tsp/solver.h"
#include "tsp/tour.h"

namespace bc::tsp {
namespace {

using geometry::Point2;

enum class Kind { kUniform, kGrid, kDuplicates, kClusters, kLattice };
constexpr Kind kKinds[] = {Kind::kUniform, Kind::kGrid, Kind::kDuplicates,
                           Kind::kClusters, Kind::kLattice};
constexpr const char* kKindNames[] = {"uniform", "grid", "duplicates",
                                      "clusters", "lattice"};

// Points in the 1 km square the walled world spans.
std::vector<Point2> make_points(Kind kind, std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  Point2 centres[5];
  for (Point2& c : centres) c = {rng.uniform(100, 900), rng.uniform(100, 900)};
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case Kind::kUniform:
        pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
        break;
      case Kind::kGrid:  // 7 columns, 50 m apart
        pts.push_back({50.0 * static_cast<double>(i % 7),
                       50.0 * static_cast<double>(i / 7)});
        break;
      case Kind::kDuplicates:  // a quarter repeat an earlier point
        if (i > 0 && rng.chance(0.25)) {
          pts.push_back(pts[rng.below(i)]);
        } else {
          pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
        }
        break;
      case Kind::kClusters: {
        const Point2 c = centres[rng.below(5)];
        pts.push_back({rng.gaussian(c.x, 40.0), rng.gaussian(c.y, 40.0)});
        break;
      }
      case Kind::kLattice:  // 30 x 30 integer lattice, 30 m apart
        pts.push_back({30.0 * static_cast<double>(rng.below(30)),
                       30.0 * static_cast<double>(rng.below(30))});
        break;
    }
  }
  return pts;
}

std::shared_ptr<const net::MetricSpace> walled_world() {
  static const auto world = std::make_shared<const net::GraphMetric>(
      fixtures::obstacle_world(1000.0));
  return world;
}

struct Outcome {
  Tour tour;
  std::uint64_t result_bits = 0;
  std::size_t nodes_used = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> histograms;
};

// The counters only the library keeps: how certification rows were
// settled.
bool library_only(const std::string& name) {
  return name == "tsp.or_opt.certify_rows" ||
         name == "tsp.or_opt.certify_memo_rows";
}

// Runs `fn(tour, meter)` from `start` under its own metrics registry, with
// a meter capped at `node_cap` units (none when 0).
template <typename Fn>
Outcome run(const Tour& start, std::size_t node_cap, Fn&& fn) {
  Outcome out;
  out.tour = start;
  support::Budget budget;
  budget.node_cap = node_cap;
  support::BudgetMeter meter(budget);
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsRegistry scope(registry);
    const double result = fn(out.tour, node_cap == 0 ? nullptr : &meter);
    out.result_bits = std::bit_cast<std::uint64_t>(result);
  }
  out.nodes_used = meter.nodes_used();
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("tsp.", 0) == 0 && !library_only(name)) {
      out.counters[name] = value;
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("tsp.", 0) == 0) out.histograms[h.name] = h.counts;
  }
  return out;
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& label) {
  ASSERT_EQ(got.tour, want.tour) << label;
  EXPECT_EQ(got.result_bits, want.result_bits) << label;
  EXPECT_EQ(got.nodes_used, want.nodes_used) << label;
  EXPECT_EQ(got.counters, want.counters) << label;
  EXPECT_EQ(got.histograms, want.histograms) << label;
}

enum class Improver { kTwoOpt, kOrOpt, kImprove, kImproveShared };
constexpr const char* kImproverNames[] = {"two_opt", "or_opt", "improve_tour",
                                          "improve_tour/shared"};

// Runs one improver in the library and in the oracle and diffs them.
void expect_improver_matches(const DistanceTable& table, const Tour& start,
                             Improver improver, const ImproveOptions& options,
                             std::size_t node_cap, const std::string& label) {
  const auto library = [&](Tour& tour, support::BudgetMeter* meter) {
    switch (improver) {
      case Improver::kTwoOpt:
        return two_opt(table, tour, options, meter);
      case Improver::kOrOpt:
        return or_opt(table, tour, options, meter);
      case Improver::kImprove:
        return improve_tour(table, tour, options, meter);
      case Improver::kImproveShared:
        break;
    }
    const std::vector<std::uint32_t> lists =
        detail::shared_neighbor_lists(table, tour.size(), options);
    return detail::improve_tour(table, tour, options, meter, lists);
  };
  const auto oracle = [&](Tour& tour, support::BudgetMeter* meter) {
    switch (improver) {
      case Improver::kTwoOpt:
        return parent::two_opt(table, tour, options, meter);
      case Improver::kOrOpt:
        return parent::or_opt(table, tour, options, meter);
      case Improver::kImprove:
      case Improver::kImproveShared:
        break;
    }
    return parent::improve_tour(table, tour, options, meter);
  };
  expect_same(run(start, node_cap, library), run(start, node_cap, oracle),
              label + " " + kImproverNames[static_cast<int>(improver)]);
}

void expect_solver_matches(const DistanceTable& table,
                           const SolverOptions& options, std::size_t node_cap,
                           const std::string& label) {
  const auto library = [&](Tour& tour, support::BudgetMeter* meter) {
    tour = solve_tsp(table, options, meter);
    return tour_length(table, tour);
  };
  const auto oracle = [&](Tour& tour, support::BudgetMeter* meter) {
    tour = parent::solve_tsp(table, options, meter);
    return tour_length(table, tour);
  };
  expect_same(run({}, node_cap, library), run({}, node_cap, oracle),
              label + " solve_tsp");
}

// A start tour: nearest neighbour from city 0, or a random permutation
// (many more moves, so deeper certification).
Tour start_tour(const DistanceTable& table, bool shuffled, std::uint64_t seed) {
  if (!shuffled) return nearest_neighbor_tour(table, 0);
  Tour tour(table.size());
  for (std::uint32_t i = 0; i < tour.size(); ++i) tour[i] = i;
  support::Rng rng(seed);
  rng.shuffle(tour.begin(), tour.end());
  return tour;
}

std::string case_label(Kind kind, std::size_t n, std::uint64_t seed,
                       bool walled) {
  return std::string(kKindNames[static_cast<int>(kind)]) +
         " n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
         (walled ? " walled" : "");
}

// Every improver under every option combination, from both start tours;
// returns how many combinations shared one set of lists.
std::size_t diff_every_option(const DistanceTable& table,
                              const std::string& label, std::uint64_t seed) {
  std::size_t shared = 0;
  for (const std::size_t neighbors : {0u, 3u, 12u}) {
    for (const bool certify : {true, false}) {
      for (const std::size_t max_passes : {2u, 64u}) {
        ImproveOptions options;
        options.neighbors = neighbors;
        options.certify = certify;
        options.max_passes = max_passes;
        shared +=
            !detail::shared_neighbor_lists(table, table.size(), options)
                 .empty();
        for (const bool shuffled : {false, true}) {
          const Tour start = start_tour(table, shuffled, seed);
          std::string options_label = label;
          options_label += " k=" + std::to_string(neighbors);
          options_label += certify ? " certify" : " uncertified";
          options_label += " passes=" + std::to_string(max_passes);
          options_label += shuffled ? " shuffled" : " nn";
          for (const Improver improver :
               {Improver::kTwoOpt, Improver::kOrOpt, Improver::kImprove,
                Improver::kImproveShared}) {
            expect_improver_matches(table, start, improver, options, 0,
                                    options_label);
          }
        }
      }
    }
  }
  return shared;
}

TEST(ImproveDiffTest, EveryOptionOnSmallTours) {
  std::size_t cases = 0;
  std::size_t shared = 0;
  for (const Kind kind : kKinds) {
    for (const std::size_t n : {4u, 5u, 6u, 7u, 9u, 13u, 24u, 47u}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto pts = make_points(kind, n, 100 * n + seed);
        const DistanceTable table(pts, nullptr);
        shared += diff_every_option(
            table, case_label(kind, n, 100 * n + seed, false), seed);
        cases += 12;
      }
    }
  }
  // Both list paths must be exercised, or half the mechanism goes untested.
  EXPECT_GT(shared, cases / 4);
  EXPECT_LT(shared, cases * 3 / 4);
}

TEST(ImproveDiffTest, LargerToursInFreeSpaceAndWalledWorld) {
  for (const bool walled : {false, true}) {
    for (const Kind kind : kKinds) {
      for (const std::size_t n : {90u, 151u, 303u}) {
        const std::uint64_t seed = 7 * n + static_cast<std::uint64_t>(kind);
        const auto pts = make_points(kind, n, seed);
        const DistanceTable table(pts,
                                  walled ? walled_world().get() : nullptr);
        for (const std::size_t neighbors : {3u, 12u}) {
          ImproveOptions options;
          options.neighbors = neighbors;
          const bool shuffled = n == 90;
          const Tour start = start_tour(table, shuffled, seed);
          const std::string label = case_label(kind, n, seed, walled) +
                                    " k=" + std::to_string(neighbors);
          for (const Improver improver :
               {Improver::kTwoOpt, Improver::kOrOpt, Improver::kImprove,
                Improver::kImproveShared}) {
            expect_improver_matches(table, start, improver, options, 0,
                                    label);
          }
        }
      }
    }
  }
}

TEST(ImproveDiffTest, NodeCapsStopAtTheSamePass) {
  // The meter is charged once per pass; caps 1..20 trip inside every
  // phase of a shuffled tour's search, including certification rounds.
  for (const Kind kind : {Kind::kUniform, Kind::kLattice}) {
    const std::uint64_t seed = 5150 + static_cast<std::uint64_t>(kind);
    const auto pts = make_points(kind, 120, seed);
    const DistanceTable table(pts, nullptr);
    const Tour start = start_tour(table, true, seed);
    for (std::size_t cap = 1; cap <= 20; ++cap) {
      const std::string label = case_label(kind, 120, seed, false) +
                                " cap=" + std::to_string(cap);
      for (const Improver improver :
           {Improver::kTwoOpt, Improver::kOrOpt, Improver::kImprove,
            Improver::kImproveShared}) {
        expect_improver_matches(table, start, improver, ImproveOptions{}, cap,
                                label);
      }
      SolverOptions options;
      options.exact_threshold = 0;
      expect_solver_matches(table, options, cap, label);
    }
  }
}

TEST(ImproveDiffTest, SolverMatchesOnEveryKind) {
  for (const bool walled : {false, true}) {
    for (const Kind kind : kKinds) {
      for (const std::size_t n : {13u, 64u, 211u}) {
        const std::uint64_t seed = 31 * n + static_cast<std::uint64_t>(kind);
        const auto pts = make_points(kind, n, seed);
        const DistanceTable table(pts,
                                  walled ? walled_world().get() : nullptr);
        for (const std::size_t neighbors : {0u, 3u, 12u}) {
          SolverOptions options;
          options.improve.neighbors = neighbors;
          options.improve.certify = neighbors != 3;
          expect_solver_matches(table, options, 0,
                                case_label(kind, n, seed, walled) + " k=" +
                                    std::to_string(neighbors));
        }
      }
    }
  }
}

TEST(ImproveDiffTest, OnDemandTableAboveTheDenseLimit) {
  const std::size_t n = kDenseTableLimit + 6;
  const auto pts = make_points(Kind::kUniform, n, 1030);
  const DistanceTable table(pts, nullptr);
  ASSERT_EQ(table.storage(), DistanceTable::Storage::kOnDemand);
  expect_improver_matches(table, greedy_edge_tour(table), Improver::kImprove,
                          ImproveOptions{}, 0,
                          case_label(Kind::kUniform, n, 1030, false));
}

}  // namespace
}  // namespace bc::tsp
