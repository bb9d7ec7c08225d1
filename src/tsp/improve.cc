#include "tsp/improve.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "net/spatial_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/require.h"

namespace bc::tsp {

using geometry::Point2;

namespace {

std::size_t neighbor_count(const ImproveOptions& options, std::size_t n) {
  return options.neighbors == 0 ? n - 1 : std::min(options.neighbors, n - 1);
}

// Writes the k nearest cities of every city into `nbr`, by city id (row c
// is c's list, distance-ascending), from a uniform grid sized for ~1 city
// per cell. The grid numbers city numbering[l] as l and ranks equal
// distances by that number. With `tie_check` it returns false, leaving
// `nbr` partial, if the lists could depend on that numbering: two equal
// squared distances among a city's k + 2 nearest (itself included).
bool build_neighbor_lists(std::span<const Point2> points,
                          std::span<const std::uint32_t> numbering,
                          std::size_t k, bool tie_check,
                          std::vector<std::uint32_t>& nbr) {
  const std::size_t n = numbering.size();
  std::vector<Point2> pts(n);
  for (std::size_t l = 0; l < n; ++l) pts[l] = points[numbering[l]];
  const auto box = geometry::bounding_box(pts);
  const double side = std::max(box.width(), box.height());
  const double cell = std::max(
      1e-9, side / std::max(1.0, std::sqrt(static_cast<double>(n))));
  const net::SpatialIndex index(pts, cell);
  nbr.resize(n * k);
  std::vector<net::SensorId> near;
  for (std::uint32_t l = 0; l < n; ++l) {
    // One past the list's k + 1, so a tie with its last entry shows too.
    index.k_nearest(pts[l], tie_check ? k + 2 : k + 1, near);
    // metric-exempt: ties in the grid's own Euclidean ranking.
    for (std::size_t t = 1; tie_check && t < near.size(); ++t) {
      if (!(geometry::distance_squared(pts[near[t - 1]], pts[l]) <
            geometry::distance_squared(pts[near[t]], pts[l]))) {
        return false;
      }
    }
    std::uint32_t* row = nbr.data() + numbering[l] * k;
    std::size_t count = 0;
    for (const net::SensorId id : near) {
      if (id == l || count == k) continue;
      row[count++] = numbering[id];
    }
    // Coincident points can crowd l itself out of its own k+1 list; pad
    // with l (skipped by the move loops) to keep the array rectangular.
    for (; count < k; ++count) row[count] = numbering[l];
  }
  return true;
}

// One local search over a tour, by city id: the order (tour position ->
// city), each city's position and don't-look bit, the k-nearest lists and
// the Or-opt certification records. improve_tour keeps one state across
// all its 2-opt and Or-opt calls; a standalone call makes its own. The
// fast phase only proposes moves towards each city's k nearest cities and
// parks converged cities behind don't-look bits; completeness is restored
// by a full-neighbourhood certification sweep at convergence, so a
// returned tour is always a full-neighbourhood local optimum. Every gain
// is read from the distance table.
class SearchState {
 public:
  // `shared` holds lists over the tour's cities from
  // detail::shared_neighbor_lists, or is empty: each call then builds its
  // own, numbered by the tour at its start.
  SearchState(const DistanceTable& table, const Tour& tour,
              const ImproveOptions& options,
              std::span<const std::uint32_t> shared)
      : n_(tour.size()),
        k_(neighbor_count(options, n_)),
        min_gain_(options.min_gain),
        table_(table),
        shared_(!shared.empty()),
        nbr_(shared.data()),
        order_(tour.begin(), tour.end()),
        pos_(n_) {
    for (std::uint32_t i = 0; i < n_; ++i) pos_[order_[i]] = i;
  }

  // Starts one 2-opt or Or-opt call as a fresh search would: no city is
  // parked, a pass visits cities in the order the tour has now, and the
  // call's tallies are zero.
  void begin_call() {
    if (!shared_) {
      build_neighbor_lists(table_.points(), order_, k_, false, own_nbr_);
      nbr_ = own_nbr_.data();
    }
    pass_order_.assign(order_.begin(), order_.end());
    dont_look_.assign(n_, 0);
    gain_sum_ = 0.0;
    moves_ = 0;
    dont_look_resets_ = 0;
    certify_rows_ = 0;
    memo_rows_ = 0;
    move_gains_.clear();
  }

  const std::vector<std::uint32_t>& pass_order() const { return pass_order_; }
  double gain_sum() const { return gain_sum_; }
  bool parked(std::uint32_t a) const { return dont_look_[a] != 0; }
  void park(std::uint32_t a) { dont_look_[a] = 1; }
  std::size_t size() const { return n_; }
  std::uint64_t moves() const { return moves_; }
  std::uint64_t dont_look_resets() const { return dont_look_resets_; }
  std::uint64_t certify_rows() const { return certify_rows_; }
  std::uint64_t memo_rows() const { return memo_rows_; }
  const std::vector<double>& move_gains() const { return move_gains_; }

  void write_back(Tour& out) const {
    std::copy(order_.begin(), order_.end(), out.begin());
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
        const double d_ab = table_(a, b);
        for (std::size_t t = 0; t < k_; ++t) {
          const std::uint32_t c = nbr_[a * k_ + t];
          if (c == a) continue;
          const double d_ac = table_(a, c);
          if (d_ac >= d_ab) break;
          const std::size_t pc = pos_[c];
          const std::uint32_t d = order_[dir == 0 ? succ(pc) : pred(pc)];
          if (d == a) continue;  // edges share a node: zero gain
          const double gain = d_ab + table_(c, d) - d_ac - table_(b, d);
          if (gain > min_gain_) {
            take_two_opt(dir == 0 ? pa : pred(pa), dir == 0 ? pc : pred(pc),
                         a, b, c, d, gain);
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
      const double d_ab = table_(a, b);
      for (std::size_t j = i + 2; j < n_; ++j) {
        if (i == 0 && j + 1 == n_) continue;  // same edge pair
        const std::uint32_t c = order_[j];
        const std::uint32_t d = order_[succ(j)];
        const double gain = d_ab + table_(c, d) - table_(a, c) - table_(b, d);
        if (gain > min_gain_) {
          take_two_opt(i, j, a, b, c, d, gain);
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
            table_(prev, f) + table_(last, next) - table_(prev, next);
        if (removed <= min_gain_) continue;
        for (int side = 0; side < 2 && !found; ++side) {
          const std::uint32_t anchor = side == 0 ? f : last;
          for (std::size_t t = 0; t < k_ && !found; ++t) {
            const std::uint32_t c = nbr_[anchor * k_ + t];
            if (in_chain(c, pf, chain)) continue;
            if (table_(anchor, c) >= removed) break;
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

  // Full Or-opt scan (chains 1..3 against every insertion edge, rows in
  // (chain, i) order, insertion edges j ascending); applies the first
  // improving move and returns true, else false. A row whose window
  // (prev, first, [mid,] last, next) is as it was when the row last found
  // nothing is settled from the edges logged since (DESIGN.md §8).
  bool certify_or_opt() {
    if (records_.empty()) records_.resize(3 * n_);
    edge_len_.resize(n_);
    for (std::size_t p = 0; p < n_; ++p) {
      edge_len_[p] = table_(order_[p], order_[succ(p)]);
    }
    for (std::size_t chain = 1; chain <= 3 && chain + 2 <= n_; ++chain) {
      for (std::size_t i = 0; i + chain < n_; ++i) {
        const std::uint32_t prev = order_[i];
        const std::uint32_t first = order_[i + 1];
        const std::uint32_t mid = chain == 3 ? order_[i + 2] : first;
        const std::uint32_t last = order_[i + chain];
        const std::uint32_t next = order_[wrap(i + chain + 1)];
        if (next == prev) continue;
        const double removed =
            table_(prev, first) + table_(last, next) - table_(prev, next);
        RowRecord& record = records_[(chain - 1) * n_ + first];
        const bool unchanged = record.logged != kNoRecord &&
                               record.prev == prev && record.mid == mid &&
                               record.last == last && record.next == next;
        std::size_t j = n_;
        if (unchanged) {
          ++memo_rows_;
          j = scan_log(i, chain, first, last, removed, record.logged);
        } else {
          ++certify_rows_;
          j = scan_row(i, chain, first, last, removed);
        }
        if (j < n_) {
          return try_or_opt_move(i + 1, chain, prev, last, next, removed, j);
        }
        record = {prev, mid, last, next,
                  static_cast<std::uint32_t>(log_.size())};
      }
    }
    return false;
  }

 private:
  // A certification row's window when it last found no improving move,
  // and the edge log's length then; keyed by (chain, first city).
  static constexpr std::uint32_t kNoRecord = UINT32_MAX;
  struct RowRecord {
    std::uint32_t prev = 0, mid = 0, last = 0, next = 0;
    std::uint32_t logged = kNoRecord;
  };

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
    gain_sum_ += gain;
    ++moves_;
    move_gains_.push_back(gain);
  }
  // Appends a tour edge a move created. Only certification records read
  // the log, so nothing is logged before the first Or-opt sweep.
  void log_edge(std::uint32_t a, std::uint32_t b) {
    if (records_.empty()) return;
    log_.push_back(a);
    log_.push_back(b);
  }

  // Applies the 2-opt move that replaces edges (a, b) at e1 and (c, d) at
  // e2 by (a, c) and (b, d).
  void take_two_opt(std::size_t e1, std::size_t e2, std::uint32_t a,
                    std::uint32_t b, std::uint32_t c, std::uint32_t d,
                    double gain) {
    apply_two_opt(e1, e2);
    note_move(gain);
    wake(a, b, c, d);
    log_edge(a, c);
    log_edge(b, d);
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

  // Gain of inserting the chain first..last into the tour edge (u, v) of
  // length d_uv in its better orientation (`reversed`: last next to u),
  // when closing the chain's old slot saves `removed`. Legs are read from
  // the chain ends' table rows: the table is exactly symmetric.
  double insertion_gain(std::uint32_t first, std::uint32_t last,
                        double removed, std::uint32_t u, std::uint32_t v,
                        double d_uv, bool& reversed) const {
    const double added_fwd = table_(first, u) + table_(last, v) - d_uv;
    const double added_rev = table_(last, u) + table_(first, v) - d_uv;
    reversed = added_rev < added_fwd;
    return removed - (reversed ? added_rev : added_fwd);
  }
  bool gains_at(std::size_t j, std::uint32_t first, std::uint32_t last,
                double removed) const {
    bool reversed = false;
    return insertion_gain(first, last, removed, order_[j], order_[succ(j)],
                          edge_len_[j], reversed) > min_gain_;
  }

  // The first insertion edge j of row (chain, i) that gains, or n. The
  // window's own edges j = i .. i + chain are skipped; every other edge is
  // a legal insertion.
  std::size_t scan_row(std::size_t i, std::size_t chain, std::uint32_t first,
                       std::uint32_t last, double removed) const {
    for (std::size_t j = 0; j < n_; ++j) {
      if (j == i) {
        j += chain;
        continue;
      }
      if (gains_at(j, first, last, removed)) return j;
    }
    return n_;
  }

  // The same answer for a row whose window is unchanged since it found
  // nothing with `since` edge ends logged: an edge's gain depends only on
  // its two cities and the window's, so only the edges logged since can
  // gain. The smallest gaining position among those still in the tour is
  // the full scan's first.
  std::size_t scan_log(std::size_t i, std::size_t chain, std::uint32_t first,
                       std::uint32_t last, double removed,
                       std::size_t since) const {
    std::size_t best = n_;
    for (std::size_t e = since; e < log_.size(); e += 2) {
      std::size_t j = pos_[log_[e]];
      if (order_[succ(j)] != log_[e + 1]) {
        j = pos_[log_[e + 1]];
        if (order_[succ(j)] != log_[e]) continue;  // no longer a tour edge
      }
      if (j >= best || (j >= i && j <= i + chain)) continue;
      if (gains_at(j, first, last, removed)) best = j;
    }
    return best;
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
    bool reversed = false;
    const double gain =
        insertion_gain(first, last, removed, u, v, table_(u, v), reversed);
    if (gain <= min_gain_) return false;
    apply_or_opt(pf, chain, u, reversed);
    note_move(gain);
    wake(prev, next, u, v);
    wake_one(first);
    wake_one(last);
    log_edge(prev, next);
    log_edge(u, reversed ? last : first);
    log_edge(reversed ? first : last, v);
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
  std::size_t k_;
  double min_gain_;
  const DistanceTable& table_;
  bool shared_;
  const std::uint32_t* nbr_;           // n * k by city id, distance-ascending
  std::vector<std::uint32_t> order_;   // tour position -> city
  std::vector<std::uint32_t> pos_;     // city -> tour position
  std::vector<std::uint32_t> own_nbr_;
  std::vector<std::uint32_t> pass_order_;
  std::vector<char> dont_look_;
  std::vector<std::uint32_t> scratch_;
  std::vector<double> edge_len_;        // edge (p, p+1) during one sweep
  std::vector<RowRecord> records_;      // (chain - 1) * n + first city
  std::vector<std::uint32_t> log_;      // created edges, two cities each
  double gain_sum_ = 0.0;
  std::uint64_t moves_ = 0;
  std::uint64_t dont_look_resets_ = 0;
  std::uint64_t certify_rows_ = 0;
  std::uint64_t memo_rows_ = 0;
  std::vector<double> move_gains_;
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

// The counters and gain histogram of one improver, `prefix`.*.
struct CallMetrics {
  explicit CallMetrics(const std::string& prefix)
      : calls(prefix + ".calls"),
        moves(prefix + ".moves"),
        resets(prefix + ".dont_look_resets"),
        sweeps(prefix + ".certify_sweeps"),
        passes(prefix + ".passes"),
        gains(prefix + ".move_gain", kGainBounds) {}
  obs::Counter calls, moves, resets, sweeps, passes;
  obs::Histogram gains;
};

// One 2-opt or Or-opt call on `search`: restricted passes until no city
// improves, then a certification sweep against the full neighbourhood; a
// move found there wakes its endpoints and the passes continue. All three
// improvers are anytime: the tour is valid after every accepted move, so
// a non-null `meter` (charged one unit per pass) simply stops the search
// at the next pass boundary when it trips.
double run_call(SearchState& search, bool or_opt,
                const ImproveOptions& options, support::BudgetMeter* meter) {
  const std::size_t n = search.size();
  if (n < (or_opt ? 5u : 4u)) return 0.0;
  obs::TraceSpan span(or_opt ? "tsp.or_opt" : "tsp.two_opt");
  span.attr("n", static_cast<std::int64_t>(n));
  search.begin_call();
  std::uint64_t passes = 0;
  std::uint64_t certify_sweeps = 0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    if (meter != nullptr && !meter->charge()) break;
    ++passes;
    bool improved = false;
    for (const std::uint32_t a : search.pass_order()) {
      if (search.parked(a)) continue;
      if (or_opt ? search.improve_city_or_opt(a)
                 : search.improve_city_two_opt(a)) {
        improved = true;
      } else {
        search.park(a);
      }
    }
    if (!improved) {
      if (!options.certify) break;
      ++certify_sweeps;
      if (!(or_opt ? search.certify_or_opt() : search.certify_two_opt())) {
        break;
      }
    }
  }
  static const CallMetrics two_opt_metrics("tsp.two_opt");
  static const CallMetrics or_opt_metrics("tsp.or_opt");
  const CallMetrics& metrics = or_opt ? or_opt_metrics : two_opt_metrics;
  metrics.calls.add();
  metrics.moves.add(search.moves());
  metrics.resets.add(search.dont_look_resets());
  metrics.sweeps.add(certify_sweeps);
  metrics.passes.add(passes);
  for (const double gain : search.move_gains()) metrics.gains.observe(gain);
  span.attr("passes", passes)
      .attr("moves", search.moves())
      .attr("certify_sweeps", certify_sweeps)
      .attr("gain", search.gain_sum());
  if (or_opt) {
    // Certification rows scanned in full and rows settled from a record.
    static const obs::Counter rows("tsp.or_opt.certify_rows");
    static const obs::Counter memo_rows("tsp.or_opt.certify_memo_rows");
    rows.add(search.certify_rows());
    memo_rows.add(search.memo_rows());
    span.attr("certify_rows", search.certify_rows())
        .attr("certify_memo_rows", search.memo_rows());
  }
  return search.gain_sum();
}

// A standalone 2-opt or Or-opt call: one search state of its own.
double run_alone(const DistanceTable& table, Tour& order, bool or_opt,
                 const ImproveOptions& options, support::BudgetMeter* meter) {
  support::require(
      is_valid_tour(order, order.size()) && order.size() <= table.size(),
      or_opt ? "or_opt needs a valid tour" : "two_opt needs a valid tour");
  if (order.size() < 4) return 0.0;
  SearchState search(table, order, options, {});
  const double gain = run_call(search, or_opt, options, meter);
  search.write_back(order);
  return gain;
}

}  // namespace

double two_opt(const DistanceTable& table, Tour& order,
               const ImproveOptions& options, support::BudgetMeter* meter) {
  return run_alone(table, order, false, options, meter);
}

double or_opt(const DistanceTable& table, Tour& order,
              const ImproveOptions& options, support::BudgetMeter* meter) {
  return run_alone(table, order, true, options, meter);
}

double improve_tour(const DistanceTable& table, Tour& order,
                    const ImproveOptions& options,
                    support::BudgetMeter* meter) {
  return detail::improve_tour(
      table, order, options, meter,
      detail::shared_neighbor_lists(table, order.size(), options));
}

double two_opt(std::span<const Point2> points, Tour& order,
               const ImproveOptions& options, support::BudgetMeter* meter) {
  return two_opt(tour_table(points, order, options), order, options, meter);
}

double or_opt(std::span<const Point2> points, Tour& order,
              const ImproveOptions& options, support::BudgetMeter* meter) {
  return or_opt(tour_table(points, order, options), order, options, meter);
}

double improve_tour(std::span<const Point2> points, Tour& order,
                    const ImproveOptions& options,
                    support::BudgetMeter* meter) {
  return improve_tour(tour_table(points, order, options), order, options,
                      meter);
}

namespace detail {

std::vector<std::uint32_t> shared_neighbor_lists(
    const DistanceTable& table, std::size_t n, const ImproveOptions& options) {
  std::vector<std::uint32_t> lists;
  if (n < 4 || n > table.size()) return lists;
  std::vector<std::uint32_t> identity(n);
  std::iota(identity.begin(), identity.end(), 0u);
  if (!build_neighbor_lists(table.points(), identity,
                            neighbor_count(options, n), true, lists)) {
    lists.clear();
  }
  return lists;
}

double improve_tour(const DistanceTable& table, Tour& order,
                    const ImproveOptions& options,
                    support::BudgetMeter* meter,
                    std::span<const std::uint32_t> lists) {
  support::require(
      is_valid_tour(order, order.size()) && order.size() <= table.size(),
      "two_opt needs a valid tour");
  if (order.size() < 4) return 0.0;
  SearchState search(table, order, options, lists);
  double total_gain = 0.0;
  for (std::size_t round = 0; round < options.max_passes; ++round) {
    if (meter != nullptr && meter->exhausted()) break;
    const double two_opt_gain = run_call(search, false, options, meter);
    const double gain =
        two_opt_gain + run_call(search, true, options, meter);
    total_gain += gain;
    if (gain <= options.min_gain) break;
  }
  search.write_back(order);
  return total_gain;
}

}  // namespace detail

}  // namespace bc::tsp
