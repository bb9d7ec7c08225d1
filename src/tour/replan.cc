#include "tour/replan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "bundle/candidates.h"
#include "bundle/exact_cover.h"
#include "bundle/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/require.h"

namespace bc::tour {

namespace {

using support::Expected;
using support::Fault;
using support::FaultKind;

// One rung of the degradation ladder.
struct Rung {
  bundle::GeneratorKind kind;
  std::size_t node_budget = 0;  // only meaningful for kExact
};

std::vector<Rung> build_ladder(const PlannerConfig& config,
                               const ReplanOptions& options) {
  std::vector<Rung> ladder;
  if (config.generator.kind == bundle::GeneratorKind::kExact) {
    double budget = static_cast<double>(options.initial_node_budget);
    for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
      const auto nodes =
          std::max<std::size_t>(1, static_cast<std::size_t>(budget));
      ladder.push_back({bundle::GeneratorKind::kExact, nodes});
      budget *= options.budget_backoff;
    }
  } else {
    ladder.push_back({config.generator.kind, 0});
  }
  if (options.fallback_to_heuristics) {
    for (const bundle::GeneratorKind kind :
         {bundle::GeneratorKind::kGreedy, bundle::GeneratorKind::kGrid,
          bundle::GeneratorKind::kSweep}) {
      if (kind != config.generator.kind) ladder.push_back({kind, 0});
    }
  }
  return ladder;
}

// Deterministic nearest-neighbour path from `start` over the stops,
// ending wherever the chain ends (the executor adds the depot leg). Ties
// break toward the lower stop index, so the order is reproducible. A
// null metric compares squared Euclidean distances (same argmin, no
// sqrt — the bit-exact pre-metric path).
void order_stops_from(geometry::Point2 start, std::vector<Stop>& stops,
                      const net::MetricSpace* metric) {
  geometry::Point2 at = start;
  for (std::size_t filled = 0; filled + 1 < stops.size(); ++filled) {
    std::size_t best = filled;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t j = filled; j < stops.size(); ++j) {
      const double d =
          metric == nullptr
              ? geometry::distance_squared(at, stops[j].position)
              : metric->distance(at, stops[j].position);
      if (d < best_d) {
        best_d = d;
        best = j;
      }
    }
    std::swap(stops[filled], stops[best]);
    at = stops[filled].position;
  }
}

}  // namespace

Expected<ChargingPlan> replan_tour(const net::Deployment& deployment,
                                   const ReplanRequest& request,
                                   const PlannerConfig& config,
                                   const ReplanOptions& options,
                                   support::BudgetMeter* meter) {
  support::require(request.remaining.size() == request.deficits_j.size(),
                   "one deficit per remaining sensor");
  support::require(std::is_sorted(request.remaining.begin(),
                                  request.remaining.end(),
                                  std::less_equal<net::SensorId>()),
                   "remaining ids must be strictly ascending");
  support::require(config.bundle_radius > 0.0,
                   "bundle radius must be positive");
  support::require(options.max_attempts >= 1, "need at least one attempt");
  support::require(
      options.budget_backoff > 0.0 && options.budget_backoff < 1.0,
      "budget backoff must shrink the budget");

  support::BudgetMeter local_meter(options.budget);
  const bool metered = meter != nullptr || !options.budget.unlimited();
  if (meter == nullptr) meter = &local_meter;

  obs::TraceSpan span("replan");
  span.attr("remaining", static_cast<std::uint64_t>(request.remaining.size()));
  std::uint64_t rungs_attempted = 0;
  const auto flush = [&](bool ok, std::string_view algorithm) {
    static const obs::Counter calls("replan.calls");
    static const obs::Counter rungs("replan.rungs_attempted");
    static const obs::Counter successes("replan.successes");
    static const obs::Counter failures("replan.failures");
    calls.add();
    rungs.add(rungs_attempted);
    successes.add(ok ? 1 : 0);
    failures.add(ok ? 0 : 1);
    span.attr("rungs_attempted", rungs_attempted)
        .attr("ok", ok)
        .attr("algorithm", algorithm);
  };

  ChargingPlan plan;
  plan.algorithm = "REPLAN";
  plan.depot = deployment.depot();
  if (request.remaining.empty()) {
    flush(true, plan.algorithm);
    return plan;
  }

  // Sub-deployment over the remaining sensors; ids are remapped back to
  // the original deployment when stops are emitted. Planning uses surveyed
  // positions: the planner only knows the survey, faults live in physics.
  std::vector<geometry::Point2> positions;
  std::vector<double> demands;
  positions.reserve(request.remaining.size());
  demands.reserve(request.remaining.size());
  for (std::size_t i = 0; i < request.remaining.size(); ++i) {
    const net::SensorId id = request.remaining[i];
    support::require(id < deployment.size(), "remaining id out of range");
    positions.push_back(deployment.sensor(id).position);
    demands.push_back(std::max(request.deficits_j[i], 1e-9));
  }
  const net::Deployment remaining(std::move(positions), deployment.field(),
                                  deployment.depot(), std::move(demands));

  const std::vector<Rung> ladder = build_ladder(config, options);
  std::string attempts_log;
  bool budget_blocked = false;
  for (const Rung& rung : ladder) {
    // Cooperative cancellation: once the shared ladder budget trips, stop
    // trying rungs — a replan must never keep computing past its deadline.
    // A meter whose node budget is already depleted fails fast the same
    // way: every rung's first charge would trip, so attempting the ladder
    // would burn a full pass of doomed rungs before reporting the same
    // kBudgetExhausted (the meter passes check(), which only polls the
    // clock and cancellation, so the depletion must be tested explicitly).
    if (metered && (meter->node_budget_depleted() || !meter->check())) {
      budget_blocked = true;
      attempts_log += "(ladder budget ";
      attempts_log += meter->exhausted()
                          ? "tripped: " + support::to_string(meter->trip())
                          : std::string("depleted: node cap");
      attempts_log += ") ";
      break;
    }
    ++rungs_attempted;
    std::vector<bundle::Bundle> bundles;
    if (rung.kind == bundle::GeneratorKind::kExact) {
      bundle::ExactCoverOptions exact = config.generator.exact;
      exact.max_nodes = rung.node_budget;
      const std::vector<bundle::Bundle> candidates = bundle::
          enumerate_candidates(remaining, config.bundle_radius,
                               metered ? meter : nullptr);
      auto found = bundle::exact_cover_anytime(remaining, candidates, exact,
                                               metered ? meter : nullptr);
      if (!found.has_value() || !found.value().optimal) {
        attempts_log += std::string(bundle::to_string(rung.kind)) + "(budget " +
                        std::to_string(rung.node_budget) + ") ";
        continue;  // budget exhausted: back off or fall down the ladder
      }
      bundles = std::move(found.value().bundles);
    } else {
      bundle::GeneratorOptions generator = config.generator;
      generator.kind = rung.kind;
      bundles = bundle::generate_bundles(remaining, config.bundle_radius,
                                         generator, metered ? meter : nullptr);
    }
    if (!bundle::is_partition(remaining, bundles)) {
      attempts_log += std::string(bundle::to_string(rung.kind)) + "(gap) ";
      continue;  // kCoverageGap for this rung; try the next one
    }

    plan.stops.clear();
    plan.stops.reserve(bundles.size());
    for (const bundle::Bundle& b : bundles) {
      Stop stop;
      stop.position = b.anchor;
      stop.members.reserve(b.members.size());
      for (const net::SensorId local : b.members) {
        stop.members.push_back(request.remaining[local]);
      }
      plan.stops.push_back(std::move(stop));
    }
    order_stops_from(request.current_position, plan.stops,
                     config.metric.get());
    plan.algorithm =
        "REPLAN(" + std::string(bundle::to_string(rung.kind)) + ")";
    flush(true, plan.algorithm);
    return plan;
  }

  flush(false, "none");
  if (metered && (budget_blocked || meter->exhausted())) {
    static const obs::Counter trips("replan.budget_trips");
    trips.add();
    const std::string cause = meter->exhausted()
                                  ? support::describe_trip(*meter)
                                  : "node budget already depleted after " +
                                        std::to_string(meter->nodes_used()) +
                                        " units";
    return Fault{FaultKind::kBudgetExhausted,
                 "replan ladder budget tripped (" + cause +
                     ") before any rung covered " +
                     std::to_string(request.remaining.size()) +
                     " sensors (tried: " + attempts_log + ")"};
  }
  return Fault{FaultKind::kReplanExhausted,
               "no generator rung produced a covering partition for " +
                   std::to_string(request.remaining.size()) +
                   " sensors (tried: " + attempts_log + ")"};
}

}  // namespace bc::tour
