// Closed-loop planning workloads. The untraced run times each
// plan_charging_tour call over a pool of deployments visited in turn, and
// the evaluate_plan after each deployment's first plan. The traced run
// takes the same deployments apart from outside: it times the library's
// layer entry points one by one and reads the spans and counters the
// library already emits.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bundle/candidates.h"
#include "bundle/greedy_cover.h"
#include "bundle/shard.h"
#include "core/profiles.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/evaluate.h"
#include "tour/planner.h"
#include "tour/route_util.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

using bc::tour::Algorithm;

constexpr std::uint64_t kDeployStream = 1;
constexpr std::uint64_t kWarmupStream = 2;
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kMinSamples = 3;
constexpr double kRadiusM = 60.0;
// The untraced run plans a pool of this many deployments in turn, whole
// cycles only, at least kMinCycles of them. Each deployment's latency is
// its fastest visit: the visits are spread over the run, so the fastest
// one dodges the seconds-long slow phases of a shared host, and it is
// what the code costs rather than what the neighbours cost. A pool of 9
// keeps a median over deployments and lets the first cycle, which also
// evaluates every plan (0.7 s each at n = 10 000), fit in a third of a
// 20 s run.
constexpr std::size_t kPool = 9;
constexpr std::size_t kMinCycles = 2;

struct World {
  std::shared_ptr<const bc::net::GraphMetric> graph;  // null = Euclidean
  bc::tour::PlannerConfig config;
  bc::sim::EvaluationConfig evaluation;
};

World build_world(const PlanningWorkload& workload) {
  const bc::core::Profile profile = bc::core::icdcs2019_simulation_profile();
  World world;
  world.config = profile.planner;
  world.config.bundle_radius = kRadiusM;
  world.evaluation = profile.evaluation;
  if (workload.obstacles) {
    world.graph = std::make_shared<const bc::net::GraphMetric>(
        obstacle_world(paper_side_m(workload.n)));
    world.config.metric = world.graph;
    world.evaluation.metric = world.graph.get();
  }
  return world;
}

// Deployment `i` of the seed's pool.
bc::net::Deployment pool_deployment(const PlanningWorkload& workload,
                                    std::uint64_t seed, std::size_t i) {
  return paper_deployment(workload.n,
                          stream_seed(seed, kDeployStream, i % kPool));
}

// World and GraphMetric build plus one untimed warm-up plan on a deployment
// outside the timed stream, repeated; the last world is kept.
World set_up(const PlanningWorkload& workload, const RunOptions& options,
             double& setup_s) {
  std::vector<double> times;
  World world;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    world = build_world(workload);
    const bc::net::Deployment warm = paper_deployment(
        workload.n, stream_seed(options.seed, kWarmupStream, 0));
    bc::tour::plan_charging_tour(warm, workload.algorithm, world.config);
    times.push_back(now_s() - t0);
  }
  setup_s = summarize(times).p50;
  return world;
}

double ms_since(double t0) { return 1e3 * (now_s() - t0); }

// Sum over spans named `name` of their self time (duration minus the part
// covered by their direct children), in milliseconds. Serial runs only:
// depth and containment identify children.
double self_time_ms(const std::vector<bc::obs::TraceRecord>& records,
                    std::string_view name) {
  std::int64_t total_ns = 0;
  for (const bc::obs::TraceRecord& span : records) {
    if (!span.is_span || span.name != name) continue;
    std::int64_t ns = span.t1_ns - span.t0_ns;
    for (const bc::obs::TraceRecord& child : records) {
      if (child.is_span && child.depth == span.depth + 1 &&
          child.seq < span.seq && child.t0_ns >= span.t0_ns &&
          child.t1_ns <= span.t1_ns) {
        ns -= child.t1_ns - child.t0_ns;
      }
    }
    total_ns += ns;
  }
  return static_cast<double>(total_ns) * 1e-6;
}

void digest(Report& report, const PlanningWorkload& workload,
            const RunOptions& options, const bc::tour::ChargingPlan& plan,
            const bc::sim::PlanMetrics& metrics) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "digest %.*s seed=%" PRIu64
                " sample=0 stops=%zu total_energy_j=%s plan_hash=%016" PRIx64,
                static_cast<int>(workload.name.size()), workload.name.data(),
                options.seed, plan.stops.size(),
                hexfloat(metrics.total_energy_j).c_str(), plan_hash(plan));
  report.line(buffer);
}

// One deployment of the untraced run's pool and what its visits found.
struct PoolEntry {
  bc::net::Deployment deployment;
  std::uint64_t hash = 0;      // plan of the first visit
  bool valid = false;          // that plan passed the output checks
  double energy_j = 0.0;       // its total_energy_j
  double evaluate_ms = 0.0;    // its evaluate_plan call
  double best_ms = 0.0;        // fastest plan over all visits
};

// The first visit of a deployment plans, evaluates and checks it. Later
// visits only plan it again; the plan must be bit-identical to the first
// (planning is deterministic), so the first visit's checks hold for them.
void run_untraced(const PlanningWorkload& workload, const World& world,
                  Report& report) {
  const RunOptions& options = report.options();
  std::vector<PoolEntry> pool;
  for (std::size_t d = 0; d < kPool; ++d) {
    pool.push_back({pool_deployment(workload, options.seed, d)});
  }
  const auto rows_before =
      world.graph ? world.graph->cache_stats().row_misses : 0;
  std::vector<double> visit_ms;
  std::size_t failed = 0;
  std::size_t cycles = 0;
  const double start = now_s();
  for (; cycles < kMinCycles || now_s() - start < options.seconds; ++cycles) {
    for (std::size_t d = 0; d < kPool; ++d) {
      PoolEntry& entry = pool[d];
      double t0 = now_s();
      const bc::tour::ChargingPlan plan = bc::tour::plan_charging_tour(
          entry.deployment, workload.algorithm, world.config);
      const double plan_ms = ms_since(t0);
      visit_ms.push_back(plan_ms);
      if (cycles == 0) {
        t0 = now_s();
        const bc::sim::PlanMetrics metrics =
            bc::sim::evaluate_plan(entry.deployment, plan, world.evaluation);
        entry.evaluate_ms = ms_since(t0);
        entry.best_ms = plan_ms;
        entry.hash = plan_hash(plan);
        entry.energy_j = metrics.total_energy_j;
        const std::string problem =
            plan_problem(entry.deployment, plan, metrics);
        entry.valid = problem.empty();
        if (!entry.valid) {
          report.fail("deployment " + std::to_string(d) + ": " + problem);
        }
        if (d == 0) digest(report, workload, options, plan, metrics);
      } else {
        entry.best_ms = std::min(entry.best_ms, plan_ms);
        if (plan_hash(plan) != entry.hash) {
          entry.valid = false;
          report.fail("deployment " + std::to_string(d) + " visit " +
                      std::to_string(cycles) + ": plan differs from visit 0");
        }
      }
      if (!entry.valid) ++failed;
    }
  }
  report.count(visit_ms.size(), failed);

  if (world.graph) {
    const auto rows = world.graph->cache_stats().row_misses - rows_before;
    report.line("obstacle guard: " + std::to_string(rows) +
                " Dijkstra rows computed in the timed loop");
    if (rows == 0) report.fail("obstacle world ran no Dijkstra row");
  }

  std::vector<double> best_ms;
  std::vector<double> req_ms;
  double best_total_ms = 0.0;
  double req_total_ms = 0.0;
  double energy_total = 0.0;
  std::size_t valid = 0;
  for (const PoolEntry& entry : pool) {
    best_ms.push_back(entry.best_ms);
    req_ms.push_back(entry.best_ms + entry.evaluate_ms);
    best_total_ms += entry.best_ms;
    req_total_ms += entry.best_ms + entry.evaluate_ms;
    if (entry.valid) {
      ++valid;
      energy_total += entry.energy_j;
    }
  }
  const Summary visits = summarize(visit_ms);
  char buffer[200];
  std::snprintf(buffer, sizeof buffer,
                "visits: %zu deployments x %zu cycles; every visit: p50 %.1f "
                "ms, tail %.1f ms (p%.1f)",
                kPool, cycles, visits.p50, visits.tail, visits.tail_pct);
  report.line(buffer);
  std::string fastest = "fastest visit per deployment (ms):";
  for (const double ms : best_ms) {
    std::snprintf(buffer, sizeof buffer, " %.1f", ms);
    fastest += buffer;
  }
  report.line(fastest);
  report.latency("plan_ms", summarize(best_ms));
  report.latency("req_ms", summarize(req_ms));
  const double deployments = static_cast<double>(kPool);
  report.metric("sensors_per_s", 1e3 * static_cast<double>(workload.n) *
                                     deployments / best_total_ms);
  report.metric("total_energy_j",
                valid > 0 ? energy_total / static_cast<double>(valid) : 0.0);
  report.metric("goodput_rps",
                1e3 * static_cast<double>(valid) / req_total_ms);
}

// Per-sample layer figures of the traced run; reported as means per plan.
struct LayerSample {
  double plan_traced_ms = 0.0;
  double plan_ms = 0.0;
  double order_ms = 0.0;
  double or_opt_ms = 0.0;
  double two_opt_ms = 0.0;
  double relocate_ms = 0.0;
  double relocated_frac = 0.0;
  double candidates_ms = 0.0;
  double cover_ms = 0.0;
  double shard_ms = 0.0;
  double evaluate_ms = 0.0;
  double metric_ms = 0.0;
  double metric_queries = 0.0;
  double stops = 0.0;
  bool valid = true;  // the plan passed the output checks
  bc::obs::MetricsSnapshot counters;
  bc::net::GraphMetric::CacheStats cache;  // delta over the first plan
};

// Share of BC-OPT stops whose position differs from the BC anchor of the
// same bundle (stops matched by their first member).
double relocated_fraction(const bc::tour::ChargingPlan& bc_plan,
                          const bc::tour::ChargingPlan& opt_plan) {
  std::map<bc::net::SensorId, bc::geometry::Point2> anchors;
  for (const bc::tour::Stop& stop : bc_plan.stops) {
    if (!stop.members.empty()) anchors[stop.members.front()] = stop.position;
  }
  std::size_t moved = 0;
  for (const bc::tour::Stop& stop : opt_plan.stops) {
    if (stop.members.empty()) continue;
    const auto it = anchors.find(stop.members.front());
    if (it == anchors.end() || it->second.x != stop.position.x ||
        it->second.y != stop.position.y) {
      ++moved;
    }
  }
  return opt_plan.stops.empty()
             ? 0.0
             : static_cast<double>(moved) /
                   static_cast<double>(opt_plan.stops.size());
}

// Bundle layer of the sharded planner, tile by tile: the same
// sub-deployments the shard solver builds, timed through
// enumerate_candidates and greedy_cover.
void time_tiles(const bc::net::Deployment& deployment,
                const bc::tour::PlannerConfig& config, LayerSample& s) {
  const bc::bundle::ShardGrid grid =
      bc::bundle::build_shard_grid(deployment, kRadiusM, config.shard);
  for (const auto& ids : grid.tile_members) {
    if (ids.empty()) continue;
    std::vector<bc::geometry::Point2> positions;
    std::vector<double> demands;
    for (const bc::net::SensorId id : ids) {
      positions.push_back(deployment.positions()[id]);
      demands.push_back(deployment.sensor(id).demand_j);
    }
    const bc::geometry::Box2 box = bc::geometry::bounding_box(positions);
    const bc::net::Deployment tile(std::move(positions), box,
                                   deployment.depot(), std::move(demands));
    double t0 = now_s();
    const auto candidates = bc::bundle::enumerate_candidates(tile, kRadiusM);
    s.candidates_ms += ms_since(t0);
    t0 = now_s();
    bc::bundle::greedy_cover(tile, candidates);
    s.cover_ms += ms_since(t0);
  }
}

LayerSample trace_sample(const PlanningWorkload& workload, const World& world,
                         const bc::net::Deployment& deployment,
                         std::size_t index, Report& report) {
  LayerSample s;
  const bc::tour::PlannerConfig& config = world.config;

  // 1. The plan as the untraced loop sees it: the first on this
  // deployment. The metric's cache statistics are read around it.
  const auto cache0 = world.graph ? world.graph->cache_stats()
                                  : bc::net::GraphMetric::CacheStats{};
  const bc::tour::ChargingPlan reference =
      bc::tour::plan_charging_tour(deployment, workload.algorithm, config);
  if (world.graph) {
    const auto cache1 = world.graph->cache_stats();
    s.cache.row_hits = cache1.row_hits - cache0.row_hits;
    s.cache.row_misses = cache1.row_misses - cache0.row_misses;
    s.cache.point_hits = cache1.point_hits - cache0.point_hits;
    s.cache.point_misses = cache1.point_misses - cache0.point_misses;
  }

  // 2. The same plan traced: a fresh registry and span journal, and the
  // metric behind a counting wrapper. Tracing must not change the plan.
  bc::tour::PlannerConfig traced_config = config;
  std::shared_ptr<CountingMetric> counting;
  if (world.graph) {
    counting = std::make_shared<CountingMetric>(*world.graph);
    traced_config.metric = counting;
  }
  bc::obs::MetricsRegistry registry;
  bc::obs::TraceJournal journal;
  bc::tour::ChargingPlan plan;
  {
    bc::obs::ScopedMetricsRegistry scoped_registry(registry);
    bc::obs::ScopedTraceJournal scoped_journal(journal);
    const double t0 = now_s();
    plan = bc::tour::plan_charging_tour(deployment, workload.algorithm,
                                        traced_config);
    s.plan_traced_ms = ms_since(t0);
  }
  if (plan_hash(reference) != plan_hash(plan)) {
    s.valid = false;
    report.fail("sample " + std::to_string(index) +
                ": traced and untraced plans differ");
  }
  if (counting) {
    s.metric_ms = 1e3 * counting->busy_s();
    s.metric_queries = static_cast<double>(counting->queries());
  }
  s.counters = registry.snapshot();
  const std::vector<bc::obs::TraceRecord> records = journal.records();
  s.or_opt_ms = self_time_ms(records, "tsp.or_opt");
  s.two_opt_ms = self_time_ms(records, "tsp.two_opt");
  s.stops = static_cast<double>(plan.stops.size());

  // 3. The untraced twin of the traced call, equally warm: the pair gives
  // the tracing overhead.
  double t0 = now_s();
  bc::tour::plan_charging_tour(deployment, workload.algorithm, config);
  s.plan_ms = ms_since(t0);

  // 4. Algorithm 3's relocation: BC-OPT minus BC on the same deployment.
  if (workload.algorithm == Algorithm::kBcOpt) {
    t0 = now_s();
    const bc::tour::ChargingPlan bc_plan =
        bc::tour::plan_bc(deployment, config);
    s.relocate_ms = s.plan_ms - ms_since(t0);
    s.relocated_frac = relocated_fraction(bc_plan, plan);
  }

  // 5. The bundle layer.
  std::vector<bc::bundle::Bundle> bundles;
  if (workload.algorithm == Algorithm::kBcSharded) {
    t0 = now_s();
    bundles = bc::bundle::sharded_bundles(deployment, kRadiusM, config.shard);
    s.shard_ms = ms_since(t0);
    time_tiles(deployment, config, s);
  } else {
    t0 = now_s();
    const auto candidates =
        bc::bundle::enumerate_candidates(deployment, kRadiusM);
    s.candidates_ms = ms_since(t0);
    t0 = now_s();
    bundles = bc::bundle::greedy_cover(deployment, candidates);
    s.cover_ms = ms_since(t0);
  }

  // 6. The tour layer over those bundles, with the planner's own choice
  // between the exact facade and the snake construction.
  std::vector<bc::tour::Stop> stops;
  for (const bc::bundle::Bundle& b : bundles) {
    stops.push_back(bc::tour::Stop{b.anchor, b.members});
  }
  const bc::tsp::SolverOptions tsp = bc::tour::tsp_options_with_metric(config);
  t0 = now_s();
  if (workload.algorithm == Algorithm::kBcSharded &&
      stops.size() > config.shard_tsp_cutover) {
    bc::tour::order_stops_snake(deployment.depot(), stops, tsp);
  } else {
    bc::tour::order_stops_by_tsp(deployment.depot(), stops, tsp);
  }
  s.order_ms = ms_since(t0);

  // 7. Evaluation (outside plan_ms in the untraced run).
  t0 = now_s();
  const bc::sim::PlanMetrics metrics =
      bc::sim::evaluate_plan(deployment, plan, world.evaluation);
  s.evaluate_ms = ms_since(t0);
  const std::string problem = plan_problem(deployment, plan, metrics);
  if (!problem.empty()) {
    s.valid = false;
    report.fail("sample " + std::to_string(index) + ": " + problem);
  }
  return s;
}

void run_traced(const PlanningWorkload& workload, const World& world,
                Report& report) {
  const RunOptions& options = report.options();
  std::vector<LayerSample> samples;
  const double start = now_s();
  for (std::size_t i = 0;
       i < kMinSamples || now_s() - start < options.seconds; ++i) {
    samples.push_back(trace_sample(
        workload, world, pool_deployment(workload, options.seed, i), i,
        report));
  }
  report.count(samples.size(),
               static_cast<std::size_t>(std::count_if(
                   samples.begin(), samples.end(),
                   [](const LayerSample& s) { return !s.valid; })));

  const double count = static_cast<double>(samples.size());
  const auto mean = [&](double LayerSample::*field) {
    double total = 0.0;
    for (const LayerSample& s : samples) total += s.*field;
    return total / count;
  };
  const auto counter_mean = [&](std::string_view name) {
    double total = 0.0;
    for (const LayerSample& s : samples) {
      total += static_cast<double>(s.counters.counter(name));
    }
    return total / count;
  };
  const auto counter_ratio = [&](std::string_view num, std::string_view den) {
    Ratio r;
    for (const LayerSample& s : samples) {
      r.num += static_cast<double>(s.counters.counter(num));
      r.den += static_cast<double>(s.counters.counter(den));
    }
    return r;
  };

  report.metric("tsp.order_ms", mean(&LayerSample::order_ms));
  report.metric("tsp.or_opt_ms", mean(&LayerSample::or_opt_ms));
  report.metric("tsp.two_opt_ms", mean(&LayerSample::two_opt_ms));
  report.metric("tsp.or_opt.certify_sweeps",
                counter_mean("tsp.or_opt.certify_sweeps"));
  report.metric("tsp.or_opt.moves", counter_mean("tsp.or_opt.moves"));
  report.metric("tsp.two_opt.moves", counter_mean("tsp.two_opt.moves"));
  report.ratio("tsp.or_opt.moves_per_pass",
               counter_ratio("tsp.or_opt.moves", "tsp.or_opt.passes"));
  report.metric("tour.relocate_ms", mean(&LayerSample::relocate_ms));
  report.metric("tour.relocated_frac", mean(&LayerSample::relocated_frac));
  report.metric("anchor.calls", counter_mean("anchor.calls"));
  report.metric("anchor.bisection_iters",
                counter_mean("anchor.bisection_iters"));
  report.metric("bundle.candidates_ms", mean(&LayerSample::candidates_ms));
  report.metric("bundle.cover_ms", mean(&LayerSample::cover_ms));
  report.metric("bundle.shard_ms", mean(&LayerSample::shard_ms));
  report.metric("bundle.stops", mean(&LayerSample::stops));
  report.metric("bundle.sensors_per_stop",
                static_cast<double>(workload.n) / mean(&LayerSample::stops));
  report.ratio("bundle.candidate_yield",
               counter_ratio("candidates.enumerated",
                             "candidates.sets_emitted"));

  Ratio row_hits;
  Ratio point_hits;
  double rows = 0.0;
  for (const LayerSample& s : samples) {
    rows += static_cast<double>(s.cache.row_misses);
    row_hits.num += static_cast<double>(s.cache.row_hits);
    row_hits.den += static_cast<double>(s.cache.row_hits + s.cache.row_misses);
    point_hits.num += static_cast<double>(s.cache.point_hits);
    point_hits.den +=
        static_cast<double>(s.cache.point_hits + s.cache.point_misses);
  }
  report.metric("net.metric_queries", mean(&LayerSample::metric_queries));
  report.metric("net.metric_ms", mean(&LayerSample::metric_ms));
  report.metric("net.dijkstra_rows", rows / count);
  report.ratio("net.row_hit_ratio", row_hits);
  report.ratio("net.point_hit_ratio", point_hits);
  if (world.graph && rows == 0.0) {
    report.fail("obstacle world ran no Dijkstra row");
  }
  report.metric("sim.evaluate_ms", mean(&LayerSample::evaluate_ms));

  report.unmeasured({"service.wire_ms_p50", "service.cold_ms_p50",
                     "service.hit_ms_p50", "service.patch_ms_p50",
                     "service.replan_ms_p50", "service.solve_ms_p50",
                     "service.outside_solve_ms_p50", "service.cache_hit_ratio",
                     "service.incremental_hit_ratio", "service.coalesced",
                     "service.shed", "service.queue_depth_peak",
                     "loadgen.lateness_ms_max"});

  std::vector<double> traced;
  std::vector<double> overhead;
  for (const LayerSample& s : samples) {
    traced.push_back(s.plan_traced_ms);
    overhead.push_back((s.plan_traced_ms - s.plan_ms) / s.plan_ms);
  }
  report.metric("trace.e2e_ms_p50", summarize(traced).p50);
  report.metric("trace.overhead_frac", summarize(overhead).p50);
  report.line("traced samples: " + std::to_string(samples.size()) +
              "; untraced plan mean " + std::to_string(mean(&LayerSample::plan_ms)) +
              " ms");
}

}  // namespace

void run_planning(const PlanningWorkload& workload, Report& report) {
  double setup_s = 0.0;
  const World world = set_up(workload, report.options(), setup_s);
  if (world.graph) {
    const std::size_t blocking = blocking_walls(*world.graph);
    report.line("obstacle guard: " + std::to_string(blocking) + " of " +
                std::to_string(world.graph->graph().obstacles.size()) +
                " walls block line of sight");
    if (blocking == 0) report.fail("no wall blocks line of sight");
  }
  if (report.options().trace) {
    run_traced(workload, world, report);
  } else {
    run_untraced(workload, world, report);
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mib", peak_rss_mib());
  }
}

}  // namespace perfbench
