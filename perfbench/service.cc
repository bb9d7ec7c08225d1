// service_mix_300: an in-process bundlecharged with default options, driven
// open loop by at most kClients client threads. A steady phase below the
// knee is followed by a saturation phase that keeps both workers busy.
// Requests are n = 300 bodies in a fixed mix: new deployments (cold solve,
// cache and base-store writes), exact repeats (cache hits), near-duplicates
// with kMoved moved sensors (incremental patch) and /v1/replan calls.
//
// The mix and the rates are a synthetic assumption: the repository has no
// traffic trace of the daemon. n = 300 and K = 8 follow the
// plan_incremental case of bench/bench_service_throughput.cpp; every other
// share and rate is chosen for the reason given beside it. The knee was
// measured with --rate (README).

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/profiles.h"
#include "io/deployment_io.h"
#include "io/plan_io.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/evaluate.h"
#include "support/rng.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace {

using bc::geometry::Point2;

constexpr std::size_t kSensors = 300;
constexpr std::size_t kMoved = 8;
// Moved sensors shift by up to this much per axis: well inside the
// daemon's patch radius (2 r), so near-duplicates take the patch path.
constexpr double kMoveM = 10.0;
constexpr std::size_t kClients = 4;
constexpr double kSteadyShare = 0.6;  // of --seconds; the rest saturates
// A quarter to a fifth of the measured knee (100-125/s), so steady
// latency is service time with little queueing, and 12 s at this rate hold
// about 60 cold solves: enough for a plan_ms tail with 10 samples beyond.
constexpr double kSteadyRate = 25.0;  // requests/s
// Far above the knee: every client sends as soon as it is free. With
// kClients blocking clients at most kClients requests are in flight (and
// queued), against 2 workers and a queue of 16, so the daemon never sheds;
// this phase measures throughput with both workers busy, not shedding.
constexpr double kSaturateRate = 1500.0;  // requests/s
constexpr double kCutMs = 50.0;         // goodput latency limit
// In the saturation phase a client drops a request it could not send
// within kDropLateMs of its due time, as a client with a deadline would:
// sending it late would only make every later request later too. Goodput
// then measures answers, not the generator's backlog.
constexpr double kDropLateMs = 2.0;
// The stream opens with kPrefill cold bodies, sent one by one during
// set-up, so the measured phases start with a warm cache and base store.
constexpr std::size_t kPrefill = 16;
// Repeats, patches and replans refer to one of the kRecent latest cold
// bodies that are prefilled or at least kMinBack requests back: its solve
// has finished when they arrive, and it is still among the daemon's
// remembered bases.
constexpr std::size_t kMinBack = 16;
constexpr std::size_t kRecent = 8;
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kReplayRequests = 24;
constexpr std::size_t kWireProbes = 200;
constexpr double kRadiusM = 60.0;
constexpr double kTimeoutS = 30.0;

constexpr std::uint64_t kMixStream = 3;

enum class Kind { kCold, kHit, kPatch, kReplan };

struct MixRequest {
  Kind kind = Kind::kCold;
  std::string body;
  const char* path() const {
    return kind == Kind::kReplan ? "/v1/replan" : "/v1/plan";
  }
};

std::string fixed3(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

std::string plan_body(const std::vector<Point2>& positions) {
  std::string body = "algorithm=BC\nradius=" + fixed3(kRadiusM) +
                     "\ndepot=0,0\npositions=";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i != 0) body += ";";
    body += fixed3(positions[i].x) + "," + fixed3(positions[i].y);
  }
  return body + "\n";
}

std::vector<Point2> random_positions(bc::support::Rng& rng) {
  const double side = paper_side_m(kSensors);
  std::vector<Point2> positions(kSensors);
  for (Point2& p : positions) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  return positions;
}

// The mix, exactly, in every block of ten requests (shuffled per block):
// 2 new deployments, 3 repeats, 4 near-duplicates, 1 replan. The daemon's
// cache and patch paths exist for repeated and nearly repeated fields, so
// those make up most of the mix; 2 in 10 new deployments keep the cold
// solve, the costliest class, a fifth of the traffic and give plan_ms its
// samples; one replan keeps that path measured. Fixed shares keep the
// median inside one request class whatever the seed.
constexpr Kind kBlock[] = {Kind::kCold,  Kind::kCold,  Kind::kHit,
                           Kind::kHit,   Kind::kHit,   Kind::kPatch,
                           Kind::kPatch, Kind::kPatch, Kind::kPatch,
                           Kind::kReplan};
constexpr std::size_t kBlockSize = std::size(kBlock);

// The request stream of a seed: a pure function of (seed, count).
std::vector<MixRequest> make_mix(std::uint64_t seed, std::size_t count) {
  bc::support::Rng rng(stream_seed(seed, kMixStream, 0));
  const double side = paper_side_m(kSensors);
  std::vector<MixRequest> mix;
  std::vector<std::size_t> colds;  // indices of cold requests
  std::vector<std::vector<Point2>> cold_positions;
  Kind block[kBlockSize];
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = i >= kPrefill ? (i - kPrefill) % kBlockSize : 0;
    if (slot == 0) {
      std::copy(std::begin(kBlock), std::end(kBlock), block);
      for (std::size_t k = kBlockSize - 1; k > 0; --k) {
        std::swap(block[k], block[rng.below(k + 1)]);
      }
    }
    Kind kind = block[slot];
    std::size_t eligible = 0;
    while (eligible < colds.size() && (colds[eligible] < kPrefill ||
                                       colds[eligible] + kMinBack <= i)) {
      ++eligible;
    }
    if (i < kPrefill || eligible == 0) kind = Kind::kCold;
    MixRequest request;
    request.kind = kind;
    if (kind == Kind::kCold) {
      colds.push_back(i);
      cold_positions.push_back(random_positions(rng));
      request.body = plan_body(cold_positions.back());
      mix.push_back(std::move(request));
      continue;
    }
    const std::size_t base =
        eligible - 1 - rng.below(std::min(eligible, kRecent));
    if (kind == Kind::kHit) {
      request.body = mix[colds[base]].body;
    } else if (kind == Kind::kPatch) {
      std::vector<Point2> moved = cold_positions[base];
      for (std::size_t m = 0; m < kMoved; ++m) {
        Point2& p = moved[rng.below(kSensors)];
        p.x = std::clamp(p.x + rng.uniform(-kMoveM, kMoveM), 0.0, side);
        p.y = std::clamp(p.y + rng.uniform(-kMoveM, kMoveM), 0.0, side);
      }
      request.body = plan_body(moved);
    } else {
      // A third of the sensors still owed energy, charger anywhere in the
      // field: a mission cut off part-way (an assumed, typical replan).
      std::string remaining = "remaining=";
      for (std::size_t id = rng.below(3); id < kSensors; id += 3) {
        if (remaining.back() != '=') remaining += ';';
        remaining += std::to_string(id);
        remaining += ':';
        remaining += fixed3(rng.uniform(0.5, 2.0));
      }
      request.body = plan_body(cold_positions[base]) + "current=" +
                     fixed3(rng.uniform(0.0, side)) + "," +
                     fixed3(rng.uniform(0.0, side)) + "\n" + remaining + "\n";
    }
    mix.push_back(std::move(request));
  }
  return mix;
}

struct Outcome {
  Shot shot;
  int status = 0;
  std::string body;  // dropped once known to be verified
  bool verified = false;
};

// Hashes of the response bodies already checked valid, per steady
// request: a byte-identical answer to the same request needs no second
// decode.
using Verified = std::vector<std::unordered_set<std::size_t>>;

// Sends request i of `schedule` at t0 + schedule[i] from kClients
// threads; its body is mix[kPrefill + i % cycle]. With `drop_late`, a
// request whose send would be more than kDropLateMs late is dropped.
// Answers found in `verified` (read-only here) are not kept.
std::vector<Outcome> run_phase(std::uint16_t port,
                               const std::vector<MixRequest>& mix,
                               std::size_t cycle,
                               const std::vector<double>& schedule, double t0,
                               bool drop_late, const Verified* verified) {
  std::vector<Outcome> outcomes(schedule.size());
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    for (std::size_t i = next++; i < schedule.size(); i = next++) {
      Outcome& out = outcomes[i];
      out.shot.scheduled_s = t0 + schedule[i];
      const auto due = std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(out.shot.scheduled_s)));
      std::this_thread::sleep_until(due);
      const double sent = now_s();
      if (drop_late && 1e3 * (sent - out.shot.scheduled_s) > kDropLateMs) {
        continue;
      }
      const MixRequest& request = mix[kPrefill + i % cycle];
      auto response = bc::service::http_roundtrip(
          port, "POST", request.path(), request.body, kTimeoutS);
      out.shot.sent = true;
      out.shot.sent_s = sent;
      out.shot.done_s = now_s();
      if (!response.has_value()) continue;
      out.status = response.value().status;
      out.body = std::move(response.value().body);
      if (verified != nullptr && out.status == 200 &&
          (*verified)[i % cycle].count(std::hash<std::string>{}(out.body))) {
        out.verified = true;
        out.body = std::string();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  return outcomes;
}

// The JSON text of the "plan" member of a 200 body.
std::string plan_member(const std::string& body) {
  const std::string open = "\"plan\": ";
  const std::string close = ",\n  \"metrics\": ";
  const std::size_t at = body.find(open);
  const std::size_t end = body.rfind(close);
  if (at == std::string::npos || end == std::string::npos || end < at) {
    return "";
  }
  return body.substr(at + open.size(), end - at - open.size());
}

// Checks a 200 body against its request. Returns "" and sets `energy_j`
// and `hash` when the body decodes to a valid plan for the request.
std::string check_body(const MixRequest& request, const std::string& body,
                       const bc::sim::EvaluationConfig& evaluation,
                       double& energy_j, std::uint64_t& hash) {
  auto parsed = bc::service::parse_plan_request(request.body, {});
  if (!parsed.has_value()) return "request does not parse";
  const bc::service::PlanRequest& req = parsed.value();
  std::string text = plan_member(body);
  if (text.empty()) return "no plan in the response";
  const bool replan = request.kind == Kind::kReplan;
  if (replan) {
    // Replan documents carry no stop times; the plan reader needs them.
    const std::string members = "\"members\": [";
    const std::string stop_time = "\"stop_time_s\": 0, ";
    for (std::size_t at = text.find(members); at != std::string::npos;
         at = text.find(members, at + stop_time.size() + members.size())) {
      text.insert(at, stop_time);
    }
  }
  auto loaded = bc::io::read_plan_json(text, replan ? 0 : kSensors);
  if (!loaded.has_value()) {
    return "plan does not decode: " + loaded.fault().message;
  }
  bc::tour::ChargingPlan plan = std::move(loaded.value().plan);
  hash = plan_hash(plan);
  if (!replan) {
    const bc::net::Deployment deployment = bc::io::deployment_from_positions(
        req.positions, req.depot, req.demand_j);
    const auto metrics = bc::sim::evaluate_plan(deployment, plan, evaluation);
    energy_j = metrics.total_energy_j;
    return plan_problem(deployment, plan, metrics);
  }
  // A replan must cover exactly the remaining sensors and deliver their
  // deficits: check it as a plan over the sub-deployment they form.
  std::vector<std::size_t> local(kSensors, kSensors);
  std::vector<Point2> positions;
  for (std::size_t k = 0; k < req.remaining.size(); ++k) {
    local[req.remaining[k]] = k;
    positions.push_back(req.positions[req.remaining[k]]);
  }
  for (bc::tour::Stop& stop : plan.stops) {
    for (bc::net::SensorId& id : stop.members) {
      if (id >= kSensors || local[id] == kSensors) {
        return "replan serves a sensor that is not owed energy";
      }
      id = static_cast<bc::net::SensorId>(local[id]);
    }
  }
  const bc::geometry::Box2 box = bc::geometry::bounding_box(positions);
  const bc::net::Deployment owed(std::move(positions), box, plan.depot,
                                 req.deficits_j);
  const auto metrics = bc::sim::evaluate_plan(owed, plan, evaluation);
  energy_j = metrics.total_energy_j;
  return plan_problem(owed, plan, metrics);
}

bool has_flag(const std::string& body, const char* name) {
  return body.find(std::string("\"") + name + "\": true") != std::string::npos;
}

std::unique_ptr<bc::service::Server> start_server() {
  auto server = bc::service::Server::start(bc::service::ServerOptions{});
  if (!server.has_value()) {
    throw std::runtime_error("server start failed: " +
                             server.fault().message);
  }
  return std::move(server.value());
}

// Server start plus warm-up: one probe, then the stream's prefill of cold
// bodies, one at a time.
std::unique_ptr<bc::service::Server> start_warm(
    const std::vector<MixRequest>& mix) {
  auto server = start_server();
  auto probe = bc::service::http_roundtrip(server->port(), "GET", "/healthz",
                                           "", kTimeoutS);
  bool ok = probe.has_value() && probe.value().status == 200;
  for (std::size_t i = 0; i < kPrefill && ok; ++i) {
    auto response = bc::service::http_roundtrip(
        server->port(), "POST", mix[i].path(), mix[i].body, kTimeoutS);
    ok = response.has_value() && response.value().status == 200;
  }
  if (!ok) throw std::runtime_error("server warm-up failed");
  return server;
}

double ms(double s) { return 1e3 * s; }

std::uint64_t statsz_field(std::uint16_t port, const std::string& name) {
  auto response =
      bc::service::http_roundtrip(port, "GET", "/statsz", "", kTimeoutS);
  if (!response.has_value() || response.value().status != 200) return 0;
  const std::string needle = "\"" + name + "\": ";
  const std::size_t at = response.value().body.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(response.value().body.c_str() + at + needle.size(),
                       nullptr, 10);
}

// Serial latencies (ms) of the first kReplayRequests measured requests of
// `mix` against a fresh warm server.
std::vector<double> replay(const std::vector<MixRequest>& mix) {
  auto server = start_warm(mix);
  std::vector<double> latencies;
  for (std::size_t i = kPrefill;
       i < kPrefill + kReplayRequests && i < mix.size(); ++i) {
    const double t0 = now_s();
    bc::service::http_roundtrip(server->port(), "POST", mix[i].path(),
                                mix[i].body, kTimeoutS);
    latencies.push_back(ms(now_s() - t0));
  }
  server->stop();
  return latencies;
}

double p50_of(const std::vector<double>& values) {
  return summarize(values).p50;
}

}  // namespace

void run_service(Report& report) {
  const RunOptions& options = report.options();
  const bc::sim::EvaluationConfig evaluation =
      bc::core::icdcs2019_simulation_profile().evaluation;

  const double steady_rate =
      options.steady_rate > 0.0 ? options.steady_rate : kSteadyRate;
  const double steady_s = kSteadyShare * options.seconds;
  const double saturation_s = options.seconds - steady_s;
  const std::vector<double> steady = fixed_rate_schedule(steady_rate, steady_s);
  const std::vector<double> saturation =
      fixed_rate_schedule(kSaturateRate, saturation_s);
  // The saturation phase cycles through the steady stream again: by then
  // every new deployment is cached, so it repeats and near-duplicates
  // remembered deployments, and the daemon's caches stay as the steady
  // phase left them instead of churning with the drops.
  const std::vector<MixRequest> mix =
      make_mix(options.seed, kPrefill + steady.size());

  // Set-up: start and warm a server several times; keep the last one.
  std::vector<double> setup_times;
  std::unique_ptr<bc::service::Server> server;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    if (server) server->stop();
    server.reset();
    const double t0 = now_s();
    server = start_warm(mix);
    setup_times.push_back(now_s() - t0);
  }

  // The traced run journals the daemon's own spans (service.plan,
  // service.replan, tsp.*). The journal must be installed while no
  // request is in flight, so the last server is restarted under it.
  std::unique_ptr<bc::obs::TraceJournal> journal;
  std::unique_ptr<bc::obs::ScopedTraceJournal> scoped_journal;
  if (options.trace) {
    server->stop();
    server.reset();
    journal = std::make_unique<bc::obs::TraceJournal>();
    scoped_journal = std::make_unique<bc::obs::ScopedTraceJournal>(*journal);
    server = start_warm(mix);
  }
  const std::uint16_t port = server->port();

  const double steady_t0 = now_s() + 0.01;
  const std::vector<Outcome> steady_out =
      run_phase(port, mix, steady.size(), steady, steady_t0,
                /*drop_late=*/false, /*verified=*/nullptr);
  const double steady_end = now_s();
  // Memory is read after the steady phase, whose request count the
  // schedule fixes. The saturation phase serves as many requests as the
  // host's speed of the moment allows, and the peak grows with that count.
  const double steady_peak_rss_mib = peak_rss_mib();

  // Output checks, outside the measured phases. Every 200 must decode to
  // a valid plan; in the steady phase every request must be a 200.
  std::vector<Shot> steady_shots;
  std::vector<Shot> saturation_shots;
  std::vector<double> cold_ms, hit_ms, patch_ms, replan_ms;
  double energy_total = 0.0;
  std::size_t steady_valid = 0;
  std::size_t steady_failed = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  Verified verified(steady.size());
  const auto check = [&](const Outcome& out, std::size_t i, bool in_steady) {
    const std::size_t index = kPrefill + i % steady.size();
    Shot shot = out.shot;
    if (out.verified) {
      shot.ok = true;
    } else if (shot.sent && out.status == 200) {
      double energy = 0.0;
      std::uint64_t hash = 0;
      const std::string problem =
          check_body(mix[index], out.body, evaluation, energy, hash);
      if (problem.empty()) {
        shot.ok = true;
        verified[i % steady.size()].insert(std::hash<std::string>{}(out.body));
      } else {
        report.fail("request " + std::to_string(index) + ": " + problem);
      }
      if (in_steady && shot.ok) {
        energy_total += energy;
        digest = (digest ^ hash) * 0x100000001b3ULL;
      }
    }
    if (in_steady) {
      if (shot.ok) {
        ++steady_valid;
      } else {
        ++steady_failed;
        report.fail("steady request " + std::to_string(index) +
                    " failed with status " + std::to_string(out.status));
      }
    }
    return shot;
  };
  for (std::size_t i = 0; i < steady_out.size(); ++i) {
    const Outcome& out = steady_out[i];
    steady_shots.push_back(check(out, i, true));
    if (!steady_shots.back().ok) continue;
    const double service_ms = ms(out.shot.done_s - out.shot.sent_s);
    if (mix[kPrefill + i].kind == Kind::kReplan) {
      replan_ms.push_back(service_ms);
    } else if (has_flag(out.body, "cached")) {
      hit_ms.push_back(service_ms);
    } else if (has_flag(out.body, "incremental")) {
      patch_ms.push_back(service_ms);
    } else {
      cold_ms.push_back(service_ms);
    }
  }

  const double saturation_t0 = now_s() + 0.01;
  const std::vector<Outcome> saturation_out =
      run_phase(port, mix, steady.size(), saturation, saturation_t0,
                /*drop_late=*/true, &verified);

  const bc::service::ServerStats stats = server->stats();
  const std::uint64_t queue_peak = statsz_field(port, "queue_depth_peak");
  std::vector<double> wire_ms;
  if (options.trace) {
    for (std::size_t i = 0; i < kWireProbes; ++i) {
      const double t0 = now_s();
      bc::service::http_roundtrip(port, "GET", "/healthz", "", kTimeoutS);
      wire_ms.push_back(ms(now_s() - t0));
    }
  }
  server->stop();
  server.reset();
  scoped_journal.reset();

  for (std::size_t i = 0; i < saturation_out.size(); ++i) {
    saturation_shots.push_back(check(saturation_out[i], i, false));
  }
  report.count(steady_shots.size(), steady_failed);

  const OpenLoopTally steady_tally = tally_open_loop(steady_shots, kCutMs);
  const OpenLoopTally saturation_tally =
      tally_open_loop(saturation_shots, kCutMs);
  char buffer[320];
  std::snprintf(buffer, sizeof buffer,
                "digest service_mix_300 seed=%" PRIu64
                " steady_ok=%zu cold=%zu hit=%zu patch=%zu replan=%zu "
                "energy_sum_j=%s plan_hash=%016" PRIx64,
                options.seed, steady_valid, cold_ms.size(), hit_ms.size(),
                patch_ms.size(), replan_ms.size(), hexfloat(energy_total).c_str(),
                digest);
  report.line(buffer);
  std::snprintf(buffer, sizeof buffer,
                "steady: %zu requests at %.0f/s over %.1f s, answered over "
                "%.2f s, latest send %.1f ms late",
                steady.size(), steady_rate, steady_s, steady_end - steady_t0,
                steady_tally.lateness_ms_max);
  report.line(buffer);
  std::snprintf(buffer, sizeof buffer,
                "saturation: %zu scheduled at %.0f/s over %.1f s, %zu sent, "
                "%zu ok, %zu within %.0f ms",
                saturation.size(), kSaturateRate, saturation_s,
                static_cast<std::size_t>(std::count_if(
                    saturation_shots.begin(), saturation_shots.end(),
                    [](const Shot& s) { return s.sent; })),
                saturation_tally.ok, saturation_tally.good, kCutMs);
  report.line(buffer);

  if (!options.trace) {
    report.latency("plan_ms", summarize(cold_ms));
    report.latency("req_ms", summarize(steady_tally.latency_ms));
    double cold_total_ms = 0.0;
    for (const double v : cold_ms) cold_total_ms += v;
    report.metric("sensors_per_s",
                  cold_total_ms > 0.0
                      ? 1e3 * static_cast<double>(kSensors * cold_ms.size()) /
                            cold_total_ms
                      : 0.0);
    report.metric("total_energy_j",
                  steady_valid > 0
                      ? energy_total / static_cast<double>(steady_valid)
                      : 0.0);
    report.metric("goodput_rps", goodput_rps(saturation_tally, saturation_s));
    report.metric("setup_s", summarize(setup_times).p50);
    report.metric("peak_rss_mib", steady_peak_rss_mib);
    report.line("peak_rss_mib after saturation: " +
                std::to_string(peak_rss_mib()));
    return;
  }

  // Per-layer figures from the daemon's spans in the steady phase.
  const std::int64_t window0 = static_cast<std::int64_t>(steady_t0 * 1e9);
  const std::int64_t window1 = static_cast<std::int64_t>(steady_end * 1e9);
  std::vector<bc::obs::TraceRecord> spans;
  for (bc::obs::TraceRecord& record : journal->records()) {
    if (record.is_span && record.t0_ns >= window0 && record.t1_ns <= window1) {
      spans.push_back(std::move(record));
    }
  }
  std::vector<double> solve_ms;
  std::vector<double> outside_ms;
  double or_opt_ms = 0.0;
  double two_opt_ms = 0.0;
  double planner_calls = 0.0;
  for (const bc::obs::TraceRecord& span : spans) {
    const double span_ms = 1e-6 * static_cast<double>(span.t1_ns - span.t0_ns);
    if (span.name == "tsp.or_opt") or_opt_ms += span_ms;  // leaf spans
    if (span.name == "tsp.two_opt") two_opt_ms += span_ms;
    if (span.name == "plan") planner_calls += 1.0;
    if (span.name != "service.plan" && span.name != "service.replan") continue;
    solve_ms.push_back(span_ms);
    // Pair the span with the one steady request of its kind whose
    // round trip encloses it; ambiguous pairings are skipped.
    const bool replan = span.name == "service.replan";
    const Outcome* owner = nullptr;
    int owners = 0;
    for (std::size_t i = 0; i < steady_out.size(); ++i) {
      const Shot& shot = steady_out[i].shot;
      if (!shot.sent || (mix[kPrefill + i].kind == Kind::kReplan) != replan) {
        continue;
      }
      if (shot.sent_s * 1e9 <= static_cast<double>(span.t0_ns) &&
          static_cast<double>(span.t1_ns) <= shot.done_s * 1e9) {
        owner = &steady_out[i];
        ++owners;
      }
    }
    if (owners == 1) {
      outside_ms.push_back(ms(owner->shot.done_s - owner->shot.sent_s) -
                           span_ms);
    }
  }
  const double per_call = planner_calls > 0.0 ? 1.0 / planner_calls : 0.0;

  report.metric("tsp.or_opt_ms", or_opt_ms * per_call);
  report.metric("tsp.two_opt_ms", two_opt_ms * per_call);
  report.unmeasured({"tsp.order_ms", "tsp.or_opt.certify_sweeps",
                     "tsp.or_opt.moves", "tsp.two_opt.moves",
                     "tsp.or_opt.moves_per_pass", "tour.relocate_ms",
                     "tour.relocated_frac", "anchor.calls",
                     "anchor.bisection_iters", "bundle.candidates_ms",
                     "bundle.cover_ms", "bundle.shard_ms", "bundle.stops",
                     "bundle.sensors_per_stop", "bundle.candidate_yield",
                     "net.metric_queries", "net.metric_ms",
                     "net.dijkstra_rows", "net.row_hit_ratio",
                     "net.point_hit_ratio", "sim.evaluate_ms"});

  report.metric("service.wire_ms_p50", p50_of(wire_ms));
  report.metric("service.cold_ms_p50", p50_of(cold_ms));
  report.metric("service.hit_ms_p50", p50_of(hit_ms));
  report.metric("service.patch_ms_p50", p50_of(patch_ms));
  report.metric("service.replan_ms_p50", p50_of(replan_ms));
  report.metric("service.solve_ms_p50", p50_of(solve_ms));
  report.metric("service.outside_solve_ms_p50", p50_of(outside_ms));
  report.ratio("service.cache_hit_ratio",
               {static_cast<double>(stats.cache_hits),
                static_cast<double>(stats.cache_hits + stats.cache_misses)});
  report.ratio("service.incremental_hit_ratio",
               {static_cast<double>(stats.incremental_hits),
                static_cast<double>(stats.incremental_attempts)});
  report.metric("service.coalesced", static_cast<double>(stats.coalesced));
  report.metric("service.shed", static_cast<double>(stats.shed));
  report.metric("service.queue_depth_peak", static_cast<double>(queue_peak));
  report.metric("loadgen.lateness_ms_max",
                std::max(steady_tally.lateness_ms_max,
                         saturation_tally.lateness_ms_max));
  report.line("paired spans: " + std::to_string(outside_ms.size()) + " of " +
              std::to_string(solve_ms.size()));

  // Tracing overhead: the same serial replay on two fresh servers, the
  // second one under a span journal.
  const std::vector<double> untraced = replay(mix);
  std::vector<double> traced;
  {
    bc::obs::TraceJournal replay_journal;
    bc::obs::ScopedTraceJournal scoped(replay_journal);
    traced = replay(mix);
  }
  report.metric("trace.e2e_ms_p50", summarize(steady_tally.latency_ms).p50);
  report.metric("trace.overhead_frac",
                (p50_of(traced) - p50_of(untraced)) / p50_of(untraced));
}

}  // namespace perfbench
