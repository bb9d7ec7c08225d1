// Pluggable movement metrics: how far apart two points are for a charger
// that has to *drive* between them.
//
// Every planner, the TSP facade, the fleet splitter, the mission executor
// and the replanner ladder reason about movement cost. Historically that
// cost was hardwired to the Euclidean distance, which rules out the
// paper's dense campus/warehouse deployments where the mobile charger is
// confined to corridors and road networks. MetricSpace abstracts the
// movement distance behind three queries:
//
//   distance(a, b)        — movement distance in metres
//   path(a, b, out)       — the polyline actually driven (first == a,
//                           last == b)
//   distances_from(a, ts) — batched one-to-many distance
//
// Two backends ship:
//
//   EuclideanMetric — the bit-exact status quo. Call sites never invoke
//     it virtually: the convention repo-wide is that a null MetricSpace
//     pointer *means* Euclidean, and the inline metric_distance() helper
//     folds the null check into a predicted branch ahead of the
//     geometry::distance call, so the free-space hot path keeps its exact
//     FP sequence and its performance (gated at 1.05x in CI). The
//     singleton exists for code that wants an explicit backend object
//     (benchmarks, tests).
//
//   GraphMetric — a waypoint graph (road network / corridor skeleton)
//     plus obstacle wall segments. Queries between mutually visible
//     points (no obstacle segment crosses the sight line) return the
//     exact Euclidean distance — so a graph with zero obstacles is
//     byte-identical to EuclideanMetric through every planner, which is
//     what the differential oracle suite pins. Blocked queries snap each
//     endpoint to its nearest visible waypoints and route between them
//     with Dijkstra over the graph. Node-to-node rows are memoized in a
//     deterministic LRU cache, so repeated tour evaluations are O(1)
//     lookups after warm-up.
//
// Determinism contract: every returned distance is a pure function of
// (graph, query) — Dijkstra pops ties by ascending node id, snapping ties
// break toward the lower waypoint id, and cached values are identical to
// cold computations. Which entries happen to *occupy* the LRU cache
// depends on query order (and hence thread interleaving), but the values
// themselves are thread-invariant, so planner outputs stay byte-identical
// at any BC_THREADS.
//
// Scope: only *movement* goes through a MetricSpace. Stop-to-sensor
// charging geometry (received power, charge-time integrals) is physics
// over free-space radio range and stays Euclidean by design.

#ifndef BUNDLECHARGE_NET_METRIC_H_
#define BUNDLECHARGE_NET_METRIC_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "geometry/segment.h"

namespace bc::net {

class MetricSpace {
 public:
  virtual ~MetricSpace() = default;

  virtual std::string_view name() const = 0;

  // Movement distance in metres. Symmetric, non-negative, zero when
  // a == b. Total: never NaN/Inf for finite inputs (backends fall back to
  // Euclidean rather than poison a planner with infinities).
  virtual double distance(geometry::Point2 a, geometry::Point2 b) const = 0;

  // Appends the driven polyline to `out` (cleared first). First element
  // equals `a`, last equals `b`; Euclidean paths are the two endpoints.
  virtual void path(geometry::Point2 a, geometry::Point2 b,
                    std::vector<geometry::Point2>& out) const;

  // Batched one-to-many: out[i] = distance(a, targets[i]).
  // Precondition: out.size() == targets.size().
  virtual void distances_from(geometry::Point2 a,
                              std::span<const geometry::Point2> targets,
                              std::span<double> out) const;

  // A promise about every value distance() returns: for all finite a, b,
  //   distance(a, b) >= min_chord_ratio() * geometry::distance(a, b),
  // with both sides the doubles actually computed (the product taken
  // exactly). Lies in [0, 1]. The default 0 promises nothing, which is
  // always true; planners use the promise only to prune work, never to
  // change an answer (BC-OPT's radius pruning, DESIGN.md §8).
  virtual double min_chord_ratio() const { return 0.0; }
};

// Bit-exact free-space distance. Hot paths use metric_distance() below
// instead of this object; the singleton serves code that needs an
// explicit backend (dispatch-overhead benches, differential tests).
class EuclideanMetric final : public MetricSpace {
 public:
  static const EuclideanMetric& instance();

  std::string_view name() const override { return "euclid"; }
  double distance(geometry::Point2 a, geometry::Point2 b) const override {
    return geometry::distance(a, b);
  }
  double min_chord_ratio() const override { return 1.0; }
  // One virtual call per batch rather than per target, so a distance
  // table filled through this object costs what the null path costs.
  void distances_from(geometry::Point2 a,
                      std::span<const geometry::Point2> targets,
                      std::span<double> out) const override;
};

// The repo-wide convention: a null metric is Euclidean. This helper is
// the single idiom every movement-distance call site uses; keeping the
// null fast path inline preserves the exact FP sequence (and the speed)
// of the pre-metric code.
inline double metric_distance(const MetricSpace* metric, geometry::Point2 a,
                              geometry::Point2 b) {
  return metric == nullptr ? geometry::distance(a, b) : metric->distance(a, b);
}

// The metric's min_chord_ratio(); the null metric's is 1.
inline double metric_chord_ratio(const MetricSpace* metric) {
  return metric == nullptr ? 1.0 : metric->min_chord_ratio();
}

// An undirected waypoint edge. Endpoints index WaypointGraph::nodes;
// weight is the traversal cost in metres (>= the chord length for a
// physical road, but any positive finite value is accepted; a lighter
// edge lowers the metric's min_chord_ratio()).
struct GraphEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double weight = 0.0;
};

// A road-network world: waypoint nodes, undirected weighted edges, and
// obstacle wall segments that block straight-line travel. Built by
// io::read_waypoint_graph_csv (which validates and rejects malformed
// input) or assembled directly by tests/benchmarks.
struct WaypointGraph {
  std::vector<geometry::Point2> nodes;
  std::vector<GraphEdge> edges;
  std::vector<geometry::Segment> obstacles;
};

struct GraphMetricOptions {
  // LRU capacity of the memoized Dijkstra row cache (one row = distances
  // from one source node to every node).
  std::size_t max_cached_rows = 256;
  // LRU capacity of the query-point snapping cache (point -> visible
  // waypoint access set). Tour evaluation re-queries the same stop
  // positions heavily; this makes those lookups O(1).
  std::size_t max_cached_points = 4096;
  // Each blocked query connects its endpoints through up to this many
  // nearest *visible* waypoints; the reported distance is the best
  // combination. Larger values tighten the approximation at k^2 cost.
  std::size_t access_waypoints = 4;
};

// Movement metric over a WaypointGraph. Thread-safe: the internal caches
// are mutex-protected and cache *values* are pure functions of the graph,
// so concurrent use from any thread count yields identical distances.
class GraphMetric final : public MetricSpace {
 public:
  // Preconditions (contract violations, not faults — feed untrusted
  // input through io::read_waypoint_graph_csv first): at least one node,
  // finite coordinates, edge endpoints in range, no self-loops, weights
  // finite and positive.
  explicit GraphMetric(WaypointGraph graph, GraphMetricOptions options = {});

  std::string_view name() const override { return "graph"; }
  double distance(geometry::Point2 a, geometry::Point2 b) const override;
  void path(geometry::Point2 a, geometry::Point2 b,
            std::vector<geometry::Point2>& out) const override;
  // min(1, min over edges of weight / chord), computed at construction and
  // shrunk by the rounding of a route's sums (DESIGN.md §15): visible
  // pairs travel the chord, and a route is a polyline whose graph part
  // weighs at least this share of its chords.
  double min_chord_ratio() const override { return min_chord_ratio_; }

  const WaypointGraph& graph() const { return graph_; }
  std::size_t node_count() const { return graph_.nodes.size(); }

  // True when no obstacle segment crosses the closed segment a-b. The
  // sight line is tested in a canonical direction, so (a, b) and (b, a)
  // take the identical FP path and the answer is exactly symmetric.
  bool line_of_sight(geometry::Point2 a, geometry::Point2 b) const;

  // Shortest-path distance between waypoint nodes (memoized). Returns
  // +inf when v is unreachable from u — callers decide the fallback;
  // distance() falls back to the Euclidean chord.
  double node_distance(std::uint32_t u, std::uint32_t v) const;

  struct CacheStats {
    std::size_t row_hits = 0;
    std::size_t row_misses = 0;
    std::size_t point_hits = 0;
    std::size_t point_misses = 0;
  };
  CacheStats cache_stats() const;

 private:
  struct AccessPoint {
    std::uint32_t node = 0;
    double euclid = 0.0;  // straight-line distance query -> node
  };

  // Dijkstra from `source` over the CSR adjacency; deterministic
  // (ascending-id tie-breaks). Unreachable nodes hold +inf. When
  // `parent` is non-null it receives the shortest-path tree.
  std::vector<double> dijkstra_row(std::uint32_t source,
                                   std::vector<std::uint32_t>* parent) const;
  // Memoized row fetch (LRU). The returned shared row is immutable.
  std::shared_ptr<const std::vector<double>> row_for(std::uint32_t source)
      const;
  // Up to options_.access_waypoints nearest waypoints visible from `p`
  // (all of them blocked => nearest waypoints regardless of visibility,
  // so the metric stays total). Memoized per exact point bit pattern.
  std::vector<AccessPoint> access_set(geometry::Point2 p) const;
  std::vector<AccessPoint> compute_access_set(geometry::Point2 p) const;

  // Best (u, v, total) routing between two access sets; returns false
  // when every combination is disconnected.
  bool best_route(const std::vector<AccessPoint>& from,
                  const std::vector<AccessPoint>& to, std::uint32_t& best_u,
                  std::uint32_t& best_v, double& best_total) const;

  WaypointGraph graph_;
  GraphMetricOptions options_;
  double min_chord_ratio_ = 0.0;

  // CSR adjacency: neighbours of node n are adj_nodes_[adj_start_[n] ..
  // adj_start_[n + 1]), sorted ascending for deterministic relaxation.
  std::vector<std::uint32_t> adj_start_;
  std::vector<std::uint32_t> adj_nodes_;
  std::vector<double> adj_weights_;

  // LRU caches. Guarded by mutex_; see the determinism note above.
  mutable std::mutex mutex_;
  mutable std::list<std::uint32_t> row_lru_;  // front = most recent
  struct RowEntry {
    std::shared_ptr<const std::vector<double>> row;
    std::list<std::uint32_t>::iterator lru_it;
  };
  mutable std::unordered_map<std::uint32_t, RowEntry> rows_;
  struct PointKey {
    std::uint64_t x_bits = 0;
    std::uint64_t y_bits = 0;
    bool operator==(const PointKey& o) const {
      return x_bits == o.x_bits && y_bits == o.y_bits;
    }
  };
  struct PointKeyHash {
    std::size_t operator()(const PointKey& k) const;
  };
  mutable std::list<PointKey> point_lru_;
  struct PointEntry {
    std::vector<AccessPoint> access;
    std::list<PointKey>::iterator lru_it;
  };
  mutable std::unordered_map<PointKey, PointEntry, PointKeyHash> points_;
  mutable CacheStats stats_;
};

}  // namespace bc::net

#endif  // BUNDLECHARGE_NET_METRIC_H_
