// Test oracle for the tour improvers (src/tsp/improve.h): the neighbour-
// list 2-opt, Or-opt and improve_tour as they were before they kept one
// search state per improve_tour, shared neighbour lists across a solve and
// certification records; and solve_tsp over them. Kept verbatim, in their
// own namespace (calls between them are qualified), so the improvers can
// be diffed against them bit for bit: tours, gains, counters and meter
// charges (tests/perfdiff/improve_diff_test.cc).

#include "oracles/improve_parent.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "net/spatial_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/require.h"
#include "tsp/construct.h"
#include "tsp/exact.h"

namespace bc::tsp::parent {

using geometry::Point2;

namespace {

// Shared state of the neighbour-list improvers. Cities are renumbered into
// a dense local id space (local id = initial tour position) so neighbour
// lists, positions, and don't-look bits are flat arrays; `order` maps tour
// position -> local id and `pos` is its inverse, both maintained across
// moves. The fast phase only proposes moves towards each city's k nearest
// cities and parks converged cities behind don't-look bits; completeness
// is restored by a full-scan certification sweep at convergence, so a
// returned tour is always a full-neighbourhood local optimum. Every gain
// is read from the distance table, by original city id.
class NeighborSearch {
 public:
  NeighborSearch(const DistanceTable& table, const Tour& tour,
                 const ImproveOptions& options)
      : n_(tour.size()),
        min_gain_(options.min_gain),
        table_(table),
        cities_(tour.begin(), tour.end()) {
    pts_.reserve(n_);
    for (const std::uint32_t city : cities_) {
      pts_.push_back(table.points()[city]);
    }
    k_ = options.neighbors == 0 ? n_ - 1 : std::min(options.neighbors, n_ - 1);
    build_neighbor_lists();
    order_.resize(n_);
    pos_.resize(n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      order_[i] = i;
      pos_[i] = i;
    }
    dont_look_.assign(n_, 0);
  }

  double gain_sum() const { return gain_sum_; }
  bool parked(std::uint32_t a) const { return dont_look_[a] != 0; }
  void park(std::uint32_t a) { dont_look_[a] = 1; }
  std::size_t size() const { return n_; }
  std::uint64_t moves() const { return moves_; }
  std::uint64_t dont_look_resets() const { return dont_look_resets_; }
  const std::vector<double>& move_gains() const { return move_gains_; }

  void write_back(Tour& out) const {
    for (std::size_t i = 0; i < n_; ++i) out[i] = cities_[order_[i]];
  }

  // Tries to improve the two tour edges at city `a` by reconnecting
  // towards one of a's nearest neighbours; repeats until no move at `a`
  // helps. Both tour directions are tried, and the neighbour scan stops as
  // soon as d(a, c) >= d(a, b): neighbours are distance-sorted, so no
  // farther c can pay for removing edge (a, b).
  bool improve_city_two_opt(std::uint32_t a) {
    bool any = false;
    bool found = true;
    while (found) {
      found = false;
      for (int dir = 0; dir < 2 && !found; ++dir) {
        const std::size_t pa = pos_[a];
        const std::size_t pb = dir == 0 ? succ(pa) : pred(pa);
        const std::uint32_t b = order_[pb];
        const double d_ab = dist(a, b);
        for (std::size_t t = 0; t < k_; ++t) {
          const std::uint32_t c = nbr_[a * k_ + t];
          if (c == a) continue;
          const double d_ac = dist(a, c);
          if (d_ac >= d_ab) break;
          const std::size_t pc = pos_[c];
          const std::uint32_t d = order_[dir == 0 ? succ(pc) : pred(pc)];
          if (d == a) continue;  // edges share a node: zero gain
          const double gain = d_ab + dist(c, d) - d_ac - dist(b, d);
          if (gain > min_gain_) {
            apply_two_opt(dir == 0 ? pa : pred(pa), dir == 0 ? pc : pred(pc));
            gain_sum_ += gain;
            note_move(gain);
            wake(a, b, c, d);
            found = any = true;
            break;
          }
        }
      }
    }
    return any;
  }

  // Full O(n^2) 2-opt scan; applies the first improving move found and
  // returns true, or returns false when the tour is a true 2-opt local
  // optimum. Run only at convergence of the restricted search.
  bool certify_two_opt() {
    for (std::size_t i = 0; i + 2 < n_; ++i) {
      const std::uint32_t a = order_[i];
      const std::uint32_t b = order_[i + 1];
      const double d_ab = dist(a, b);
      for (std::size_t j = i + 2; j < n_; ++j) {
        if (i == 0 && j + 1 == n_) continue;  // same edge pair
        const std::uint32_t c = order_[j];
        const std::uint32_t d = order_[succ(j)];
        const double gain = d_ab + dist(c, d) - dist(a, c) - dist(b, d);
        if (gain > min_gain_) {
          apply_two_opt(i, j);
          gain_sum_ += gain;
          note_move(gain);
          wake(a, b, c, d);
          return true;
        }
      }
    }
    return false;
  }

  // Tries to relocate the chain of 1..3 cities starting at `f` between an
  // edge adjacent to a near neighbour of either chain endpoint. The
  // `removed <= min_gain` and sorted-neighbour cutoffs are heuristic
  // prunes; moves they miss are recovered by certify_or_opt().
  bool improve_city_or_opt(std::uint32_t f) {
    bool any = false;
    bool found = true;
    while (found) {
      found = false;
      const std::size_t pf = pos_[f];
      for (std::size_t chain = 1; chain <= 3 && chain + 2 <= n_ && !found;
           ++chain) {
        const std::size_t p_last = wrap(pf + chain - 1);
        const std::uint32_t last = order_[p_last];
        const std::uint32_t prev = order_[pred(pf)];
        const std::uint32_t next = order_[succ(p_last)];
        if (next == prev) break;
        const double removed =
            dist(prev, f) + dist(last, next) - dist(prev, next);
        if (removed <= min_gain_) continue;
        for (int side = 0; side < 2 && !found; ++side) {
          const std::uint32_t anchor = side == 0 ? f : last;
          for (std::size_t t = 0; t < k_ && !found; ++t) {
            const std::uint32_t c = nbr_[anchor * k_ + t];
            if (in_chain(c, pf, chain)) continue;
            if (dist(anchor, c) >= removed) break;
            // Insertion slots: the edge after c and the edge before c.
            const std::size_t slots[2] = {pos_[c], pred(pos_[c])};
            for (const std::size_t pu : slots) {
              if (try_or_opt_move(pf, chain, prev, last, next, removed, pu)) {
                found = any = true;
                break;
              }
            }
          }
        }
      }
    }
    return any;
  }

  // Full Or-opt scan (chains 1..3 against every insertion edge); applies
  // the first improving move and returns true, else false.
  bool certify_or_opt() {
    for (std::size_t chain = 1; chain <= 3 && chain + 2 <= n_; ++chain) {
      for (std::size_t i = 0; i + chain < n_; ++i) {
        const std::size_t pf = i + 1;
        const std::uint32_t prev = order_[i];
        const std::uint32_t first = order_[pf];
        const std::uint32_t last = order_[i + chain];
        const std::uint32_t next = order_[wrap(i + chain + 1)];
        if (next == prev) continue;
        const double removed =
            dist(prev, first) + dist(last, next) - dist(prev, next);
        for (std::size_t j = 0; j < n_; ++j) {
          if (j >= i && j <= i + chain) continue;
          if (try_or_opt_move(pf, chain, prev, last, next, removed, j)) {
            return true;
          }
        }
      }
    }
    return false;
  }

 private:
  // Gain evaluation distance, from the table. Neighbour lists stay
  // Euclidean-built whatever the metric, which only shapes which moves
  // get *proposed*.
  double dist(std::uint32_t a, std::uint32_t b) const {
    return table_(cities_[a], cities_[b]);
  }
  std::size_t succ(std::size_t p) const { return p + 1 == n_ ? 0 : p + 1; }
  std::size_t pred(std::size_t p) const { return p == 0 ? n_ - 1 : p - 1; }
  std::size_t wrap(std::size_t p) const { return p >= n_ ? p - n_ : p; }
  bool in_chain(std::uint32_t c, std::size_t pf, std::size_t chain) const {
    return wrap(pos_[c] + n_ - pf) < chain;
  }
  void wake_one(std::uint32_t a) {
    if (dont_look_[a] != 0) {
      dont_look_[a] = 0;
      ++dont_look_resets_;
    }
  }
  void wake(std::uint32_t a, std::uint32_t b, std::uint32_t c,
            std::uint32_t d) {
    wake_one(a);
    wake_one(b);
    wake_one(c);
    wake_one(d);
  }
  void note_move(double gain) {
    ++moves_;
    move_gains_.push_back(gain);
  }

  // k nearest cities per city (distance-ascending, ascending-id ties) from
  // a uniform grid sized for ~1 city per cell.
  void build_neighbor_lists() {
    const auto box = geometry::bounding_box(pts_);
    const double side = std::max(box.width(), box.height());
    const double cell = std::max(
        1e-9, side / std::max(1.0, std::sqrt(static_cast<double>(n_))));
    const net::SpatialIndex index(pts_, cell);
    nbr_.reserve(n_ * k_);
    std::vector<net::SensorId> scratch;
    for (std::uint32_t l = 0; l < n_; ++l) {
      index.k_nearest(pts_[l], k_ + 1, scratch);
      std::size_t count = 0;
      for (const net::SensorId id : scratch) {
        if (id == l || count == k_) continue;
        nbr_.push_back(static_cast<std::uint32_t>(id));
        ++count;
      }
      // Coincident points can crowd l itself out of its own k+1 list; pad
      // with l (skipped by the move loops) to keep the array rectangular.
      for (; count < k_; ++count) nbr_.push_back(l);
    }
  }

  // Reverses the circular segment of positions [from .. to] (inclusive,
  // mod n), keeping pos_ in sync.
  void reverse_circular(std::size_t from, std::size_t to) {
    const std::size_t len = wrap(to + n_ - from) + 1;
    for (std::size_t s = 0; s < len / 2; ++s) {
      const std::size_t i = wrap(from + s);
      const std::size_t j = wrap(to + n_ - s);
      std::swap(order_[i], order_[j]);
      pos_[order_[i]] = static_cast<std::uint32_t>(i);
      pos_[order_[j]] = static_cast<std::uint32_t>(j);
    }
  }

  // Removes tour edges (e1, e1+1) and (e2, e2+1) (positions, mod n) and
  // reconnects crosswise by reversing the shorter of the two arcs — the
  // two reversals give the same circular tour, so pick the cheaper one.
  void apply_two_opt(std::size_t e1, std::size_t e2) {
    const std::size_t i = std::min(e1, e2);
    const std::size_t j = std::max(e1, e2);
    const std::size_t inner = j - i;  // length of segment [i+1 .. j]
    if (inner <= n_ - inner) {
      reverse_circular(i + 1, j);
    } else {
      reverse_circular(wrap(j + 1), i);
    }
  }

  // Evaluates relocating the chain at positions [pf .. pf+chain-1] into
  // the edge (order[pu], succ) — both chain orientations — and applies the
  // move if it gains. `removed` is the saving from closing the chain's old
  // slot. Returns true iff a move was applied.
  bool try_or_opt_move(std::size_t pf, std::size_t chain, std::uint32_t prev,
                       std::uint32_t last, std::uint32_t next, double removed,
                       std::size_t pu) {
    const std::uint32_t first = order_[pf];
    const std::uint32_t u = order_[pu];
    const std::uint32_t v = order_[succ(pu)];
    if (in_chain(u, pf, chain) || in_chain(v, pf, chain)) return false;
    if (u == prev && v == next) return false;  // reinsert into the old slot
    const double d_uv = dist(u, v);
    const double added_fwd = dist(u, first) + dist(last, v) - d_uv;
    const double added_rev = dist(u, last) + dist(first, v) - d_uv;
    const bool reversed = added_rev < added_fwd;
    const double gain = removed - (reversed ? added_rev : added_fwd);
    if (gain <= min_gain_) return false;
    apply_or_opt(pf, chain, u, reversed);
    gain_sum_ += gain;
    note_move(gain);
    wake(prev, next, u, v);
    wake_one(first);
    wake_one(last);
    return true;
  }

  // Rebuilds the tour with the chain at [pf .. pf+chain-1] spliced in
  // right after city u (which must not be in the chain). O(n), which the
  // rarity of accepted moves amortises; the rebuilt order starts at the
  // old post-chain position — a rotation, i.e. the same circular tour.
  void apply_or_opt(std::size_t pf, std::size_t chain, std::uint32_t u,
                    bool reversed) {
    std::uint32_t chain_nodes[3];
    for (std::size_t s = 0; s < chain; ++s) {
      chain_nodes[s] = order_[wrap(pf + s)];
    }
    if (reversed) std::reverse(chain_nodes, chain_nodes + chain);
    scratch_.clear();
    std::size_t t = wrap(pf + chain);
    for (std::size_t step = 0; step < n_ - chain; ++step, t = succ(t)) {
      scratch_.push_back(order_[t]);
      if (order_[t] == u) {
        scratch_.insert(scratch_.end(), chain_nodes, chain_nodes + chain);
      }
    }
    order_.swap(scratch_);
    for (std::size_t i = 0; i < n_; ++i) {
      pos_[order_[i]] = static_cast<std::uint32_t>(i);
    }
  }

  std::size_t n_;
  std::size_t k_ = 0;
  double min_gain_;
  const DistanceTable& table_;
  double gain_sum_ = 0.0;
  std::uint64_t moves_ = 0;
  std::uint64_t dont_look_resets_ = 0;
  std::vector<double> move_gains_;
  std::vector<std::uint32_t> cities_;  // local id -> original city id
  std::vector<Point2> pts_;            // local id -> position
  std::vector<std::uint32_t> nbr_;     // n * k, distance-ascending
  std::vector<std::uint32_t> order_;   // tour position -> local id
  std::vector<std::uint32_t> pos_;     // local id -> tour position
  std::vector<char> dont_look_;
  std::vector<std::uint32_t> scratch_;
};

// The table the point-set entry points build: the tour's points (a prefix
// of `points`) under options.metric.
DistanceTable tour_table(std::span<const Point2> points, const Tour& order,
                         const ImproveOptions& options) {
  support::require(order.size() <= points.size(),
                   "the tour needs a point per city");
  return DistanceTable(points.first(order.size()), options.metric);
}

// Improving-move gains in metres. The buckets span the range seen across
// the paper's deployment scales (fields up to ~1 km across).
constexpr double kGainBounds[] = {1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};

}  // namespace

double two_opt(const DistanceTable& table, Tour& order,
               const ImproveOptions& options, support::BudgetMeter* meter) {
  support::require(is_valid_tour(order, order.size()) &&
                       order.size() <= table.size(),
                   "two_opt needs a valid tour");
  const std::size_t n = order.size();
  if (n < 4) return 0.0;
  obs::TraceSpan span("tsp.two_opt");
  span.attr("n", static_cast<std::int64_t>(n));
  NeighborSearch search(table, order, options);
  std::uint64_t passes = 0;
  std::uint64_t certify_sweeps = 0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    if (meter != nullptr && !meter->charge()) break;
    ++passes;
    bool improved = false;
    for (std::uint32_t a = 0; a < n; ++a) {
      if (search.parked(a)) continue;
      if (search.improve_city_two_opt(a)) {
        improved = true;
      } else {
        search.park(a);
      }
    }
    // Restricted search done: certify against the full neighbourhood. A
    // move found here wakes its endpoints and the passes continue.
    if (!improved) {
      if (!options.certify) break;
      ++certify_sweeps;
      if (!search.certify_two_opt()) break;
    }
  }
  search.write_back(order);
  {
    static const obs::Counter calls("tsp.two_opt.calls");
    static const obs::Counter moves("tsp.two_opt.moves");
    static const obs::Counter resets("tsp.two_opt.dont_look_resets");
    static const obs::Counter sweeps("tsp.two_opt.certify_sweeps");
    static const obs::Counter pass_count("tsp.two_opt.passes");
    static const obs::Histogram gains("tsp.two_opt.move_gain", kGainBounds);
    calls.add();
    moves.add(search.moves());
    resets.add(search.dont_look_resets());
    sweeps.add(certify_sweeps);
    pass_count.add(passes);
    for (const double gain : search.move_gains()) gains.observe(gain);
  }
  span.attr("passes", passes)
      .attr("moves", search.moves())
      .attr("certify_sweeps", certify_sweeps)
      .attr("gain", search.gain_sum());
  return search.gain_sum();
}

double or_opt(const DistanceTable& table, Tour& order,
              const ImproveOptions& options, support::BudgetMeter* meter) {
  support::require(is_valid_tour(order, order.size()) &&
                       order.size() <= table.size(),
                   "or_opt needs a valid tour");
  const std::size_t n = order.size();
  if (n < 5) return 0.0;
  obs::TraceSpan span("tsp.or_opt");
  span.attr("n", static_cast<std::int64_t>(n));
  NeighborSearch search(table, order, options);
  std::uint64_t passes = 0;
  std::uint64_t certify_sweeps = 0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    if (meter != nullptr && !meter->charge()) break;
    ++passes;
    bool improved = false;
    for (std::uint32_t a = 0; a < n; ++a) {
      if (search.parked(a)) continue;
      if (search.improve_city_or_opt(a)) {
        improved = true;
      } else {
        search.park(a);
      }
    }
    if (!improved) {
      if (!options.certify) break;
      ++certify_sweeps;
      if (!search.certify_or_opt()) break;
    }
  }
  search.write_back(order);
  {
    static const obs::Counter calls("tsp.or_opt.calls");
    static const obs::Counter moves("tsp.or_opt.moves");
    static const obs::Counter resets("tsp.or_opt.dont_look_resets");
    static const obs::Counter sweeps("tsp.or_opt.certify_sweeps");
    static const obs::Counter pass_count("tsp.or_opt.passes");
    static const obs::Histogram gains("tsp.or_opt.move_gain", kGainBounds);
    calls.add();
    moves.add(search.moves());
    resets.add(search.dont_look_resets());
    sweeps.add(certify_sweeps);
    pass_count.add(passes);
    for (const double gain : search.move_gains()) gains.observe(gain);
  }
  span.attr("passes", passes)
      .attr("moves", search.moves())
      .attr("certify_sweeps", certify_sweeps)
      .attr("gain", search.gain_sum());
  return search.gain_sum();
}

double improve_tour(const DistanceTable& table, Tour& order,
                    const ImproveOptions& options,
                    support::BudgetMeter* meter) {
  double total_gain = 0.0;
  for (std::size_t round = 0; round < options.max_passes; ++round) {
    if (meter != nullptr && meter->exhausted()) break;
    const double gain = parent::two_opt(table, order, options, meter) +
                        parent::or_opt(table, order, options, meter);
    total_gain += gain;
    if (gain <= options.min_gain) break;
  }
  return total_gain;
}

double two_opt(std::span<const Point2> points, Tour& order,
               const ImproveOptions& options, support::BudgetMeter* meter) {
  return parent::two_opt(tour_table(points, order, options), order, options,
                         meter);
}

double or_opt(std::span<const Point2> points, Tour& order,
              const ImproveOptions& options, support::BudgetMeter* meter) {
  return parent::or_opt(tour_table(points, order, options), order, options,
                        meter);
}

double improve_tour(std::span<const Point2> points, Tour& order,
                    const ImproveOptions& options,
                    support::BudgetMeter* meter) {
  return parent::improve_tour(tour_table(points, order, options), order,
                              options, meter);
}

Tour solve_tsp(const DistanceTable& table, const SolverOptions& options,
               support::BudgetMeter* meter) {
  support::require(options.exact_threshold <= kHeldKarpLimit,
                   "exact_threshold exceeds the Held-Karp limit");
  support::BudgetMeter local_meter(options.budget);
  const bool metered = meter != nullptr || !options.budget.unlimited();
  if (meter == nullptr) meter = &local_meter;

  const std::size_t n = table.size();
  if (n == 0) return Tour{};
  if (n <= 3) {
    Tour trivial(n);
    for (std::uint32_t i = 0; i < n; ++i) trivial[i] = i;
    return trivial;
  }
  if (n <= options.exact_threshold) {
    if (!metered) return held_karp_tour(table);
    // Budgeted exact: fall through to the heuristic path if the DP trips
    // (construction is polynomial, so a tour always comes back).
    auto exact = held_karp_tour_budgeted(table, *meter);
    if (exact.has_value()) return std::move(*exact);
  }

  Tour best = greedy_edge_tour(table);
  parent::improve_tour(table, best, options.improve,
                       metered ? meter : nullptr);
  double best_len = tour_length(table, best);

  const std::size_t starts = std::max<std::size_t>(1, options.nn_starts);
  for (std::size_t s = 0; s < starts; ++s) {
    if (metered && !meter->check()) break;
    const auto start = static_cast<std::uint32_t>((s * n) / starts);
    Tour candidate = nearest_neighbor_tour(table, start);
    parent::improve_tour(table, candidate, options.improve,
                         metered ? meter : nullptr);
    const double len = tour_length(table, candidate);
    if (len < best_len) {
      best_len = len;
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace bc::tsp::parent
