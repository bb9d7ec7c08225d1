// Service-layer throughput bench: full HTTP round trips against an
// in-process bundlecharged server, covering the request shapes that
// dominate a deployment — health probes, cold plan solves, cached plan
// hits, incremental (patched) near-duplicate solves, and replans. Results
// are written as `BENCH_service_throughput.json` (schema: DESIGN.md §8)
// for the CI perf-smoke job to diff against `bench/baselines/`.
//
// `--saturate` instead runs the overload workload (one worker, a tiny
// queue, a deterministic shed burst) and writes
// `BENCH_service_saturation.json` — the fast-fail latency of a saturated
// daemon, with admission-control counters pinned exactly.
//
// Wall times are the minimum over --repeats runs. The counters come from
// the server's own stats endpoint bookkeeping (completed solves, cache
// hits/misses) and are deterministic per build: a drift means the service
// changed behaviour — e.g. a cache keying bug turning hits into misses —
// not just speed. The incremental case additionally self-gates the
// headline claim: the patched stream must be at least 3x faster than the
// same stream cold-solved, per-request medians.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/client.h"
#include "service/server.h"
#include "support/cli.h"

namespace {

using bc::service::Server;
using bc::service::ServerOptions;
using bc::service::ServerStats;

constexpr std::size_t kSensors = 40;
constexpr std::size_t kHealthRoundtrips = 200;
constexpr std::size_t kColdBodies = 8;
constexpr std::size_t kHotRoundtrips = 50;
constexpr std::size_t kReplanRoundtrips = 5;

std::string positions_line(std::size_t n, std::size_t salt) {
  std::string out = "positions=";
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + salt * 1000;
    out += std::to_string((j * 131 + 17) % 997) + "," +
           std::to_string((j * 197 + 5) % 991);
    if (i + 1 < n) out += ";";
  }
  out += "\n";
  return out;
}

std::string plan_body(std::size_t salt) {
  return "algorithm=BC\nradius=120\n" + positions_line(kSensors, salt) +
         "depot=0,0\n";
}

// n=300 deployment for the incremental case, with `moves` sensors nudged
// by small deterministic offsets per `round` — each round is a distinct
// fingerprint (cache miss) but a tiny, local diff from round-independent
// base positions (the salt-0 scatter).
constexpr std::size_t kIncrementalSensors = 300;
constexpr std::size_t kIncrementalMoves = 8;  // K <= 8 moved sensors
constexpr std::size_t kIncrementalRounds = 6;

std::string incremental_body(std::size_t round, std::size_t moves) {
  std::vector<long> xs(kIncrementalSensors);
  std::vector<long> ys(kIncrementalSensors);
  for (std::size_t i = 0; i < kIncrementalSensors; ++i) {
    xs[i] = static_cast<long>((i * 131 + 17) % 997);
    ys[i] = static_cast<long>((i * 197 + 5) % 991);
  }
  for (std::size_t m = 0; m < moves; ++m) {
    const std::size_t id = (round * 97 + m * 41 + 3) % kIncrementalSensors;
    xs[id] += static_cast<long>((round * 31 + m * 17) % 51) - 25;
    ys[id] += static_cast<long>((round * 13 + m * 29) % 51) - 25;
  }
  std::string out = "algorithm=BC\nradius=120\npositions=";
  for (std::size_t i = 0; i < kIncrementalSensors; ++i) {
    out += std::to_string(xs[i]) + "," + std::to_string(ys[i]);
    if (i + 1 < kIncrementalSensors) out += ";";
  }
  out += "\ndepot=0,0\n";
  return out;
}

std::unique_ptr<Server> must_start(ServerOptions options = {}) {
  auto server = Server::start(std::move(options));
  if (!server.has_value()) {
    std::cerr << "server start failed: " << server.fault().message << "\n";
    std::exit(1);
  }
  return std::move(server.value());
}

void must_request(std::uint16_t port, const std::string& method,
                  const std::string& path, const std::string& body,
                  int expected_status = 200) {
  auto response = bc::service::http_roundtrip(port, method, path, body);
  if (!response.has_value()) {
    std::cerr << "roundtrip failed: " << response.fault().message << "\n";
    std::exit(1);
  }
  if (response.value().status != expected_status) {
    std::cerr << "unexpected status " << response.value().status << " for "
              << method << " " << path << ": " << response.value().body
              << "\n";
    std::exit(1);
  }
}

// Integer field from the /statsz body (saturation setup polls the queue).
std::uint64_t statsz_u64(std::uint16_t port, const std::string& name) {
  auto response = bc::service::http_roundtrip(port, "GET", "/statsz", "");
  if (!response.has_value() || response.value().status != 200) {
    std::cerr << "statsz roundtrip failed\n";
    std::exit(1);
  }
  const std::string needle = "\"" + name + "\": ";
  const std::size_t at = response.value().body.find(needle);
  if (at == std::string::npos) {
    std::cerr << "statsz has no field " << name << "\n";
    std::exit(1);
  }
  return std::strtoull(response.value().body.c_str() + at + needle.size(),
                       nullptr, 10);
}

double median_ms(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void bench_service(const std::string& out_dir, std::size_t repeats,
                   std::size_t threads) {
  bc::bench::BenchReporter reporter("service_throughput");

  // Health probes: pure wire + dispatch overhead, no solver work.
  {
    auto server = must_start();
    reporter
        .time_case("healthz", repeats,
                   [&] {
                     for (std::size_t i = 0; i < kHealthRoundtrips; ++i) {
                       must_request(server->port(), "GET", "/healthz", "");
                     }
                   })
        .counter("roundtrips",
                 static_cast<std::int64_t>(kHealthRoundtrips));
  }

  // Cold plan solves: a fresh (memory-only) server per repetition so every
  // request misses the cache and runs the full planning pipeline. The
  // incremental fast path is pinned off so this keeps measuring the pure
  // cold pipeline even though the salted bodies are near-duplicates.
  {
    ServerStats stats;
    double best_ms = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      ServerOptions options;
      options.enable_incremental = false;
      auto server = must_start(options);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t salt = 0; salt < kColdBodies; ++salt) {
        must_request(server->port(), "POST", "/v1/plan", plan_body(salt));
      }
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      stats = server->stats();
    }
    reporter.add_case("plan_cold", best_ms, repeats)
        .counter("completed", static_cast<std::int64_t>(stats.completed))
        .counter("cache_misses",
                 static_cast<std::int64_t>(stats.cache_misses))
        // Robustness counters, all deterministically zero in a healthy
        // unsaturated run: a nonzero value means the bench rig itself
        // started shedding, watchdog-killing, or losing journal writes —
        // behaviour drift the perf-smoke diff must flag.
        .counter("shed", static_cast<std::int64_t>(stats.shed))
        .counter("watchdog_kills",
                 static_cast<std::int64_t>(stats.watchdog_kills))
        .counter("cache_flush_failures",
                 static_cast<std::int64_t>(stats.cache_flush_failures))
        .counter("degraded_mode_entries",
                 static_cast<std::int64_t>(stats.degraded_mode_entries))
        .counter("fault_recoveries",
                 static_cast<std::int64_t>(stats.fault_recoveries));
  }

  // Cached plan hits: one server pre-warmed with a single body, then the
  // same request repeatedly — decode + serialize, no solving.
  {
    auto server = must_start();
    const std::string body = plan_body(0);
    must_request(server->port(), "POST", "/v1/plan", body);
    reporter
        .time_case("plan_hot", repeats,
                   [&] {
                     for (std::size_t i = 0; i < kHotRoundtrips; ++i) {
                       must_request(server->port(), "POST", "/v1/plan", body);
                     }
                   })
        .counter("roundtrips", static_cast<std::int64_t>(kHotRoundtrips));
    const ServerStats stats = server->stats();
    // One miss from the warm-up; everything timed must have hit.
    if (stats.cache_misses != 1) {
      std::cerr << "plan_hot: expected 1 cache miss, saw "
                << stats.cache_misses << "\n";
      std::exit(1);
    }
  }

  // Replans: uncacheable by design (they depend on charger position and
  // per-sensor deficits), so every request solves.
  {
    auto server = must_start();
    const std::string body =
        plan_body(0) + "current=500,500\nremaining=0:1.5;5:0.5;9:2\n";
    reporter
        .time_case("replan", repeats,
                   [&] {
                     for (std::size_t i = 0; i < kReplanRoundtrips; ++i) {
                       must_request(server->port(), "POST", "/v1/replan",
                                    body);
                     }
                   })
        .counter("roundtrips",
                 static_cast<std::int64_t>(kReplanRoundtrips));
  }

  // Incremental replans: a cold n=300 base, then kIncrementalRounds
  // near-duplicate bodies (K=8 moved sensors each) that must all ride the
  // patch-and-splice fast path. The case self-gates both the routing
  // (every mutated body patched, none fell back) and the headline claim:
  // per-request median latency at least 3x better than cold-solving the
  // identical mutated stream.
  {
    ServerStats stats;
    double best_ms = 0.0;
    std::vector<double> patched_samples;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      auto server = must_start();
      must_request(server->port(), "POST", "/v1/plan",
                   incremental_body(0, 0));  // cold base, becomes the anchor
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t round = 1; round <= kIncrementalRounds; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        must_request(server->port(), "POST", "/v1/plan",
                     incremental_body(round, kIncrementalMoves));
        const auto t1 = std::chrono::steady_clock::now();
        patched_samples.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
      stats = server->stats();
      if (stats.incremental_hits != kIncrementalRounds ||
          stats.incremental_fallbacks != 0) {
        std::cerr << "plan_incremental: expected " << kIncrementalRounds
                  << " patched solves, saw hits=" << stats.incremental_hits
                  << " fallbacks=" << stats.incremental_fallbacks << "\n";
        std::exit(1);
      }
    }

    // Cold reference: the same mutated stream with the fast path disabled.
    std::vector<double> cold_samples;
    {
      ServerOptions options;
      options.enable_incremental = false;
      auto server = must_start(options);
      must_request(server->port(), "POST", "/v1/plan", incremental_body(0, 0));
      for (std::size_t round = 1; round <= kIncrementalRounds; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        must_request(server->port(), "POST", "/v1/plan",
                     incremental_body(round, kIncrementalMoves));
        const auto t1 = std::chrono::steady_clock::now();
        cold_samples.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    }
    const double patched_median = median_ms(patched_samples);
    const double cold_median = median_ms(cold_samples);
    if (cold_median < 3.0 * patched_median) {
      std::cerr << "plan_incremental: fast path below the 3x bar "
                << "(cold median " << cold_median << " ms, patched median "
                << patched_median << " ms)\n";
      std::exit(1);
    }
    std::cerr << "plan_incremental: cold median " << cold_median
              << " ms vs patched median " << patched_median << " ms ("
              << cold_median / patched_median << "x)\n";
    reporter.add_case("plan_incremental", best_ms, repeats)
        .counter("completed", static_cast<std::int64_t>(stats.completed))
        .counter("cache_misses",
                 static_cast<std::int64_t>(stats.cache_misses))
        .counter("incremental_attempts",
                 static_cast<std::int64_t>(stats.incremental_attempts))
        .counter("incremental_hits",
                 static_cast<std::int64_t>(stats.incremental_hits))
        .counter("incremental_fallbacks",
                 static_cast<std::int64_t>(stats.incremental_fallbacks));
  }

  reporter.write(out_dir, threads);
}

// Overload workload: one worker and a four-slot queue, wedged by stalled
// requests (test-hooks stall_ms), then a serial burst of requests that
// must all be fast-failed with 503. Times the shed path — the latency an
// overloaded deployment's clients actually see — and pins the admission
// counters exactly: any drift in shed/accepted/completed means the
// admission-control or batching logic changed behaviour.
void bench_saturation(const std::string& out_dir, std::size_t repeats,
                      std::size_t threads) {
  constexpr int kStallMs = 1500;
  constexpr std::size_t kFillers = 4;   // == queue capacity
  constexpr std::size_t kProbes = 16;   // serial shed burst
  bc::bench::BenchReporter reporter("service_saturation");

  const std::string stall_body = "algorithm=BC\nradius=120\nstall_ms=" +
                                 std::to_string(kStallMs) + "\n" +
                                 positions_line(kSensors, 0) + "depot=0,0\n";
  const std::string probe_body = plan_body(9);

  double best_ms = 0.0;
  std::uint64_t shed = 0, accepted = 0, completed = 0, peak = 0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = kFillers;
    options.enable_test_hooks = true;
    auto server = must_start(options);
    const std::uint16_t port = server->port();

    // Wedge the single worker, then fill every queue slot. The holder must
    // be *popped* (accepted, queue drained) before the fillers start or a
    // filler would race it for the queue slot and be shed.
    std::thread holder([&] { must_request(port, "POST", "/v1/plan",
                                          stall_body); });
    while (statsz_u64(port, "accepted") < 1 ||
           statsz_u64(port, "queue_depth") > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<std::thread> fillers;
    for (std::size_t i = 0; i < kFillers; ++i) {
      fillers.emplace_back([&] { must_request(port, "POST", "/v1/plan",
                                              stall_body); });
      while (statsz_u64(port, "queue_depth") < i + 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    // The saturated daemon fast-fails the burst; stall requests carry
    // stall_ms so they never coalesce, and the serial probes each complete
    // (503) before the next starts, so batching never parks them either.
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kProbes; ++i) {
      must_request(port, "POST", "/v1/plan", probe_body, /*expected=*/503);
    }
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < best_ms) best_ms = ms;

    holder.join();
    for (std::thread& t : fillers) t.join();
    shed = statsz_u64(port, "shed");
    accepted = statsz_u64(port, "accepted");
    completed = statsz_u64(port, "completed");
    peak = statsz_u64(port, "queue_depth_peak");
    if (shed != kProbes || accepted != 1 + kFillers ||
        completed != 1 + kFillers || peak != kFillers) {
      std::cerr << "saturation: counter drift (shed=" << shed
                << " accepted=" << accepted << " completed=" << completed
                << " queue_depth_peak=" << peak << ")\n";
      std::exit(1);
    }
  }

  reporter.add_case("shed_burst", best_ms, repeats)
      .counter("shed", static_cast<std::int64_t>(shed))
      .counter("accepted", static_cast<std::int64_t>(accepted))
      .counter("completed", static_cast<std::int64_t>(completed))
      .counter("queue_depth_peak", static_cast<std::int64_t>(peak));
  reporter.write(out_dir, threads);
}

}  // namespace

int main(int argc, char** argv) {
  bc::support::CliFlags flags(
      "Planning-service throughput bench; writes "
      "BENCH_service_throughput.json (or BENCH_service_saturation.json "
      "with --saturate).");
  flags.define_string("out-dir", ".",
                      "directory for BENCH_service_throughput.json");
  flags.define_int("repeats", 5, "timed repetitions per case (min is kept)");
  flags.define_bool("saturate", false,
                    "run the overload/shed workload instead of throughput");
  bc::bench::define_obs_flags(flags);
  if (!flags.parse(argc, argv, std::cerr)) return 2;
  if (flags.help_requested()) return 0;
  bc::bench::ensure_out_dir(flags.get_string("out-dir"));
  bc::bench::ObsControl obs(flags);

  const auto repeats = static_cast<std::size_t>(flags.get_int("repeats"));
  // Request handling forces solver parallel sections inline (per-request
  // metrics isolation), so thread count is not a knob here.
  if (flags.get_bool("saturate")) {
    // Each repetition holds a worker for kStallMs plus the queue drain, so
    // keep the overload workload to two repetitions regardless of
    // --repeats: the timed path (serial 503s) is cheap and stable.
    bench_saturation(flags.get_string("out-dir"),
                     std::min<std::size_t>(repeats, 2), /*threads=*/1);
  } else {
    bench_service(flags.get_string("out-dir"), repeats, /*threads=*/1);
  }
  return 0;
}
