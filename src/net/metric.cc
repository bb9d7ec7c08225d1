#include "net/metric.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>

#include "support/require.h"

namespace bc::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits_of(double v) {
  std::uint64_t out = 0;
  static_assert(sizeof(out) == sizeof(v));
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

}  // namespace

void MetricSpace::path(geometry::Point2 a, geometry::Point2 b,
                       std::vector<geometry::Point2>& out) const {
  out.clear();
  out.push_back(a);
  out.push_back(b);
}

void MetricSpace::distances_from(geometry::Point2 a,
                                 std::span<const geometry::Point2> targets,
                                 std::span<double> out) const {
  support::require(out.size() == targets.size(),
                   "distances_from output span size mismatch");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i] = distance(a, targets[i]);
  }
}

const EuclideanMetric& EuclideanMetric::instance() {
  static const EuclideanMetric metric;
  return metric;
}

void EuclideanMetric::distances_from(geometry::Point2 a,
                                     std::span<const geometry::Point2> targets,
                                     std::span<double> out) const {
  support::require(out.size() == targets.size(),
                   "distances_from output span size mismatch");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i] = geometry::distance(a, targets[i]);
  }
}

std::size_t GraphMetric::PointKeyHash::operator()(const PointKey& k) const {
  // splitmix-style mix of the two coordinate bit patterns.
  std::uint64_t h = k.x_bits + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= k.y_bits + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

GraphMetric::GraphMetric(WaypointGraph graph, GraphMetricOptions options)
    : graph_(std::move(graph)), options_(options) {
  support::require(!graph_.nodes.empty(), "waypoint graph needs nodes");
  support::require(options_.max_cached_rows > 0, "row cache must be > 0");
  support::require(options_.max_cached_points > 0, "point cache must be > 0");
  support::require(options_.access_waypoints > 0,
                   "access_waypoints must be > 0");
  const auto n = static_cast<std::uint32_t>(graph_.nodes.size());
  for (const auto& node : graph_.nodes) {
    support::require(std::isfinite(node.x) && std::isfinite(node.y),
                     "waypoint coordinates must be finite");
  }
  std::vector<std::uint32_t> degree(n, 0);
  double ratio = 1.0;
  for (const auto& e : graph_.edges) {
    support::require(e.u < n && e.v < n, "edge endpoint out of range");
    support::require(e.u != e.v, "self-loop edge");
    support::require(std::isfinite(e.weight) && e.weight > 0.0,
                     "edge weight must be finite and positive");
    ++degree[e.u];
    ++degree[e.v];
    const double chord =
        geometry::distance(graph_.nodes[e.u], graph_.nodes[e.v]);
    if (chord > 0.0) ratio = std::min(ratio, e.weight / chord);
  }
  // A route sums at most n - 1 edge weights plus two access legs; this
  // factor covers those sums, the rounded ratios and the caller's rounded
  // chord (DESIGN.md §15), so the promise holds for computed values.
  const double rounding = 1.0 - static_cast<double>(n + 16) * 0x1p-52;
  min_chord_ratio_ = std::max(0.0, ratio * rounding);
  adj_start_.assign(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    adj_start_[i + 1] = adj_start_[i] + degree[i];
  }
  adj_nodes_.resize(adj_start_[n]);
  adj_weights_.resize(adj_start_[n]);
  std::vector<std::uint32_t> cursor(adj_start_.begin(), adj_start_.end() - 1);
  for (const auto& e : graph_.edges) {
    adj_nodes_[cursor[e.u]] = e.v;
    adj_weights_[cursor[e.u]++] = e.weight;
    adj_nodes_[cursor[e.v]] = e.u;
    adj_weights_[cursor[e.v]++] = e.weight;
  }
  // Sort each adjacency row by neighbour id so Dijkstra relaxes edges in
  // a deterministic order regardless of input edge order.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t lo = adj_start_[i];
    const std::size_t hi = adj_start_[i + 1];
    std::vector<std::pair<std::uint32_t, double>> row;
    row.reserve(hi - lo);
    for (std::size_t j = lo; j < hi; ++j) {
      row.emplace_back(adj_nodes_[j], adj_weights_[j]);
    }
    std::sort(row.begin(), row.end());
    for (std::size_t j = lo; j < hi; ++j) {
      adj_nodes_[j] = row[j - lo].first;
      adj_weights_[j] = row[j - lo].second;
    }
  }
}

bool GraphMetric::line_of_sight(geometry::Point2 a, geometry::Point2 b) const {
  // Orientation tests round differently for a-b and b-a; testing the
  // lexicographically ordered segment makes the metric exactly symmetric.
  const bool swap = b.x < a.x || (b.x == a.x && b.y < a.y);
  const geometry::Segment sight = swap ? geometry::Segment{b, a}
                                       : geometry::Segment{a, b};
  for (const auto& wall : graph_.obstacles) {
    if (geometry::segments_intersect(sight, wall)) return false;
  }
  return true;
}

std::vector<double> GraphMetric::dijkstra_row(
    std::uint32_t source, std::vector<std::uint32_t>* parent) const {
  const std::size_t n = graph_.nodes.size();
  std::vector<double> dist(n, kInf);
  if (parent != nullptr) {
    parent->assign(n, source);
  }
  // (distance, node): ties pop the lower node id, so the settle order —
  // and with it the shortest-path tree — is deterministic.
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[source] = 0.0;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;  // stale entry
    const std::size_t lo = adj_start_[u];
    const std::size_t hi = adj_start_[u + 1];
    for (std::size_t j = lo; j < hi; ++j) {
      const std::uint32_t v = adj_nodes_[j];
      const double nd = d + adj_weights_[j];
      if (nd < dist[v]) {
        dist[v] = nd;
        if (parent != nullptr) (*parent)[v] = u;
        queue.emplace(nd, v);
      }
    }
  }
  return dist;
}

std::shared_ptr<const std::vector<double>> GraphMetric::row_for(
    std::uint32_t source) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = rows_.find(source);
    if (it != rows_.end()) {
      ++stats_.row_hits;
      row_lru_.splice(row_lru_.begin(), row_lru_, it->second.lru_it);
      return it->second.row;
    }
    ++stats_.row_misses;
  }
  // Compute outside the lock: concurrent misses on the same source each
  // run Dijkstra, but the results are identical and the first insert
  // wins, so values stay thread-invariant.
  auto row = std::make_shared<const std::vector<double>>(
      dijkstra_row(source, nullptr));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rows_.find(source);
  if (it != rows_.end()) {
    row_lru_.splice(row_lru_.begin(), row_lru_, it->second.lru_it);
    return it->second.row;
  }
  row_lru_.push_front(source);
  rows_.emplace(source, RowEntry{row, row_lru_.begin()});
  if (rows_.size() > options_.max_cached_rows) {
    rows_.erase(row_lru_.back());
    row_lru_.pop_back();
  }
  return row;
}

double GraphMetric::node_distance(std::uint32_t u, std::uint32_t v) const {
  support::require(u < graph_.nodes.size() && v < graph_.nodes.size(),
                   "node id out of range");
  if (u == v) return 0.0;
  // Source the row from the lower id so (u, v) and (v, u) share a cache
  // entry and return the identical stored value.
  const std::uint32_t source = std::min(u, v);
  const std::uint32_t target = std::max(u, v);
  return (*row_for(source))[target];
}

std::vector<GraphMetric::AccessPoint> GraphMetric::compute_access_set(
    geometry::Point2 p) const {
  const std::size_t k = options_.access_waypoints;
  // Nearest visible waypoints; ascending (euclid, id) keeps ties and
  // therefore snapping deterministic.
  std::vector<AccessPoint> visible;
  std::vector<AccessPoint> any;
  for (std::uint32_t i = 0; i < graph_.nodes.size(); ++i) {
    const AccessPoint ap{i, geometry::distance(p, graph_.nodes[i])};
    any.push_back(ap);
    if (line_of_sight(p, graph_.nodes[i])) visible.push_back(ap);
  }
  auto better = [](const AccessPoint& a, const AccessPoint& b) {
    if (a.euclid != b.euclid) return a.euclid < b.euclid;
    return a.node < b.node;
  };
  auto take = [&](std::vector<AccessPoint>& pool) {
    std::sort(pool.begin(), pool.end(), better);
    if (pool.size() > k) pool.resize(k);
    return pool;
  };
  // A point walled off from every waypoint still snaps (to the nearest
  // waypoints outright) so the metric stays total.
  return visible.empty() ? take(any) : take(visible);
}

std::vector<GraphMetric::AccessPoint> GraphMetric::access_set(
    geometry::Point2 p) const {
  const PointKey key{bits_of(p.x), bits_of(p.y)};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(key);
    if (it != points_.end()) {
      ++stats_.point_hits;
      point_lru_.splice(point_lru_.begin(), point_lru_, it->second.lru_it);
      return it->second.access;
    }
    ++stats_.point_misses;
  }
  auto access = compute_access_set(p);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(key);
  if (it != points_.end()) {
    point_lru_.splice(point_lru_.begin(), point_lru_, it->second.lru_it);
    return it->second.access;
  }
  point_lru_.push_front(key);
  points_.emplace(key, PointEntry{access, point_lru_.begin()});
  if (points_.size() > options_.max_cached_points) {
    points_.erase(point_lru_.back());
    point_lru_.pop_back();
  }
  return access;
}

bool GraphMetric::best_route(const std::vector<AccessPoint>& from,
                             const std::vector<AccessPoint>& to,
                             std::uint32_t& best_u, std::uint32_t& best_v,
                             double& best_total) const {
  bool found = false;
  best_total = kInf;
  for (const auto& u : from) {
    for (const auto& v : to) {
      const double through = node_distance(u.node, v.node);
      if (through == kInf) continue;
      // (u.euclid + v.euclid) first: FP addition is commutative, so the
      // reversed query (b, a) sums the identical value and the metric is
      // exactly symmetric.
      const double total = (u.euclid + v.euclid) + through;
      // Strict < keeps the first-found combination on ties; access sets
      // are ordered by (euclid, id), so the tie-break is the lower pair.
      if (total < best_total) {
        best_total = total;
        best_u = u.node;
        best_v = v.node;
        found = true;
      }
    }
  }
  return found;
}

double GraphMetric::distance(geometry::Point2 a, geometry::Point2 b) const {
  if (a.x == b.x && a.y == b.y) return 0.0;
  // Visible pairs travel the chord — bit-exact Euclidean, which is the
  // whole differential-oracle story: zero obstacles => every query takes
  // this path.
  if (graph_.obstacles.empty() || line_of_sight(a, b)) {
    return geometry::distance(a, b);
  }
  const auto from = access_set(a);
  const auto to = access_set(b);
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double total = kInf;
  if (!best_route(from, to, u, v, total)) {
    // Disconnected graph component: validation (io::validate_waypoint_graph)
    // reports this as kDisconnected up front; staying total here beats
    // poisoning a planner with infinities.
    return geometry::distance(a, b);
  }
  return total;
}

void GraphMetric::path(geometry::Point2 a, geometry::Point2 b,
                       std::vector<geometry::Point2>& out) const {
  out.clear();
  out.push_back(a);
  if (a.x == b.x && a.y == b.y) {
    out.push_back(b);
    return;
  }
  if (graph_.obstacles.empty() || line_of_sight(a, b)) {
    out.push_back(b);
    return;
  }
  const auto from = access_set(a);
  const auto to = access_set(b);
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double total = kInf;
  if (!best_route(from, to, u, v, total)) {
    out.push_back(b);
    return;
  }
  // Rebuild the node path with a parent-tracking Dijkstra; rare (path is
  // a reporting query, not a tour-evaluation hot path) so it is not
  // memoized.
  std::vector<std::uint32_t> parent;
  dijkstra_row(u, &parent);
  std::vector<std::uint32_t> chain;
  for (std::uint32_t at = v; at != u; at = parent[at]) chain.push_back(at);
  chain.push_back(u);
  std::reverse(chain.begin(), chain.end());
  for (const auto node : chain) out.push_back(graph_.nodes[node]);
  out.push_back(b);
}

GraphMetric::CacheStats GraphMetric::cache_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace bc::net
