// Resource budgets and cooperative cancellation.
//
// The bundle-generation + exact-cover pipeline is worst-case exponential,
// and experiment sweeps multiply that by hundreds of cells. A production
// planner therefore needs an *anytime* contract: every solver accepts a
// Budget (wall-clock deadline, unit-of-work cap, external cancellation)
// and, when the budget trips, returns the best feasible answer found so
// far instead of hanging or aborting.
//
// Determinism contract: node/unit caps are counted serially by each solver
// and trip at exactly the same expansion regardless of the thread count,
// so node-capped results are bit-identical at BC_THREADS=1/2/8. Wall-clock
// deadlines and external cancellation are inherently *nondeterministic*
// cutoffs — what is returned depends on machine speed and signal timing —
// and are excluded from determinism tests. Solvers poll the clock only
// every kClockPollStride charges, which bounds both the polling overhead
// and how far any solver can overshoot its deadline (one polling interval
// of its innermost loop).

#ifndef BUNDLECHARGE_SUPPORT_DEADLINE_H_
#define BUNDLECHARGE_SUPPORT_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>

namespace bc::support {

// Cooperative cancellation flag. Copies share state, so a token handed to
// a solver can be cancelled from another thread (or a signal handler via
// cancel_on_signals). Cancellation is one-way and sticky.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  friend void cancel_on_signals(const CancelToken& token);
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Installs SIGINT/SIGTERM handlers that request_cancel on `token`, so a
// Ctrl-C turns into a clean flush-and-exit instead of a lost sweep. The
// handler performs a single relaxed atomic store (async-signal-safe).
// Replaces any token installed by a previous call; the token's shared
// state is kept alive for the lifetime of the process.
void cancel_on_signals(const CancelToken& token);

// Declarative resource limits. A default-constructed Budget is unlimited.
// Copies share the cancellation token (cancelling one cancels all).
struct Budget {
  // Wall-clock limit in seconds, measured from BudgetMeter construction
  // (0 = none). Nondeterministic cutoff — see the header comment.
  double deadline_s = 0.0;
  // Deterministic unit-of-work cap: branch-and-bound nodes, simplex
  // pivots, annealing iterations... whatever the solver's natural unit is
  // (0 = none).
  std::size_t node_cap = 0;
  // External cancellation (signals, a supervising thread).
  CancelToken cancel{};

  bool unlimited() const {
    return deadline_s <= 0.0 && node_cap == 0 && !cancel.cancelled();
  }
};

// Why a meter tripped. Ordered by determinism: node caps are bit-exact,
// deadline/cancellation depend on timing.
enum class BudgetTrip {
  kNone = 0,
  kNodeCap,    // deterministic
  kDeadline,   // nondeterministic (wall clock)
  kCancelled,  // nondeterministic (external)
};

std::string to_string(BudgetTrip trip);

// Clock polls happen every this many charges; a power of two so the
// stride test compiles to a mask.
inline constexpr std::size_t kClockPollStride = 1024;

// Running enforcement of one Budget. Construction stamps the start time.
// Not thread-safe: each solver owns one meter (or borrows its caller's)
// and charges it from a single thread — which is exactly what keeps
// node-cap trips deterministic. Once tripped, a meter stays exhausted.
class BudgetMeter {
 public:
  // Unlimited meter: charge() is a counter increment and nothing else.
  BudgetMeter() : BudgetMeter(Budget{}) {}

  explicit BudgetMeter(const Budget& budget)
      : node_cap_(budget.node_cap),
        cancel_(budget.cancel),
        has_deadline_(budget.deadline_s > 0.0) {
    if (has_deadline_) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(budget.deadline_s));
    }
  }

  // Counts `units` of work and checks every limit (the clock only on the
  // polling stride). Returns true while the budget holds; false once
  // exhausted. Charging an exhausted meter stays false and keeps counting.
  bool charge(std::size_t units = 1) {
    nodes_ += units;
    if (trip_ != BudgetTrip::kNone) return false;
    if (node_cap_ != 0 && nodes_ > node_cap_) {
      trip_ = BudgetTrip::kNodeCap;
      return false;
    }
    if (cancel_.cancelled()) {
      trip_ = BudgetTrip::kCancelled;
      return false;
    }
    if (has_deadline_ && nodes_ - last_poll_ >= kClockPollStride) {
      last_poll_ = nodes_;
      if (std::chrono::steady_clock::now() >= deadline_) {
        trip_ = BudgetTrip::kDeadline;
        return false;
      }
    }
    return true;
  }

  // Polls deadline and cancellation *now* without counting work — for
  // coarse-grained checkpoints (between ladder rungs, solver phases,
  // sweep chunks) where overshooting by a stride would be too sloppy.
  bool check() {
    if (trip_ != BudgetTrip::kNone) return false;
    if (cancel_.cancelled()) {
      trip_ = BudgetTrip::kCancelled;
      return false;
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      trip_ = BudgetTrip::kDeadline;
      return false;
    }
    return true;
  }

  bool exhausted() const { return trip_ != BudgetTrip::kNone; }
  // True when the node budget has no headroom left (already tripped, or
  // exactly at the cap so the next charge must trip). Ladder-style callers
  // use this to fail fast instead of burning retry rungs whose very first
  // unit of work is doomed.
  bool node_budget_depleted() const {
    return trip_ == BudgetTrip::kNodeCap ||
           (node_cap_ != 0 && nodes_ >= node_cap_);
  }
  // Units charge() still accepts before the node cap trips: the maximum
  // size_t without a cap, 0 at or past it. A solver that charges a whole
  // loop in one call reads here where a per-unit loop would have tripped.
  std::size_t node_headroom() const {
    if (node_cap_ == 0) return std::numeric_limits<std::size_t>::max();
    return nodes_ >= node_cap_ ? 0 : node_cap_ - nodes_;
  }
  BudgetTrip trip() const { return trip_; }
  std::size_t nodes_used() const { return nodes_; }

  // Seconds left on the wall deadline (clamped at 0), or negative when the
  // meter has none. For callers that must decide whether waiting (retry
  // backoff, queue dwell) can still pay off before the deadline.
  double remaining_deadline_s() const {
    if (!has_deadline_) return -1.0;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline_) return 0.0;
    return std::chrono::duration<double>(deadline_ - now).count();
  }

 private:
  std::size_t node_cap_ = 0;
  CancelToken cancel_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::size_t nodes_ = 0;
  std::size_t last_poll_ = 0;
  BudgetTrip trip_ = BudgetTrip::kNone;
};

// "budget exhausted (node-cap) after 12345 units" — for fault messages.
std::string describe_trip(const BudgetMeter& meter);

}  // namespace bc::support

#endif  // BUNDLECHARGE_SUPPORT_DEADLINE_H_
