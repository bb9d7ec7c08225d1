// Shared plumbing for the figure-reproduction benches: flag wiring for the
// paper's experimental setting (§VI-A) and experiment-spec construction.

#ifndef BUNDLECHARGE_BENCH_BENCH_UTIL_H_
#define BUNDLECHARGE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/bundlecharge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"
#include "support/atomic_file.h"
#include "support/cli.h"
#include "support/deadline.h"
#include "support/parallel.h"
#include "support/table.h"

namespace bc::bench {

// Observability flags shared by every bench binary. Kept separate from
// define_common_flags so benches with bespoke flag sets (the perf
// kernels) can opt in without the simulation flags.
inline void define_obs_flags(support::CliFlags& flags) {
  flags.define_string("trace-out", "",
                      "write a JSONL trace journal of the run to this path");
  flags.define_string("metrics-out", "",
                      "write the merged metrics snapshot (JSON) to this path");
  flags.define_string(
      "trace-clock", "steady",
      "trace timestamp source: steady (wall time) or virtual (logical "
      "ticks; byte-stable across runs and thread counts)");
}

// Creates the report directory (and its parents) right after flag
// parsing, so a path that cannot be made fails before any timed work
// instead of after it. Prints the path and exits 2 on error.
inline void ensure_out_dir(const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    std::cerr << "cannot create --out-dir '" << dir
              << "': " << error.message() << "\n";
    std::exit(2);
  }
}

// Honours --trace-out/--metrics-out/--trace-clock for the lifetime of the
// object: installs a trace journal while alive, writes the journal and the
// metrics snapshot on destruction. Declare one at the top of main(), after
// flag parsing.
class ObsControl {
 public:
  explicit ObsControl(const support::CliFlags& flags)
      : trace_path_(flags.get_string("trace-out")),
        metrics_path_(flags.get_string("metrics-out")) {
    const std::string clock = flags.get_string("trace-clock");
    if (clock != "steady" && clock != "virtual") {
      std::cerr << "--trace-clock must be 'steady' or 'virtual', got '"
                << clock << "'\n";
      std::exit(2);
    }
    if (!trace_path_.empty()) {
      journal_.emplace(clock == "virtual"
                           ? std::make_unique<obs::VirtualTraceClock>()
                           : nullptr);
      scope_.emplace(journal_.value());
    }
  }

  ~ObsControl() {
    if (journal_.has_value()) {
      scope_.reset();  // uninstall before serialising
      auto written = journal_->write(trace_path_);
      if (!written.has_value()) {
        std::cerr << support::describe(written.fault()) << "\n";
      }
    }
    if (!metrics_path_.empty()) {
      auto written = obs::write_metrics_json(
          metrics_path_, obs::global_metrics().snapshot());
      if (!written.has_value()) {
        std::cerr << support::describe(written.fault()) << "\n";
      }
    }
  }

  ObsControl(const ObsControl&) = delete;
  ObsControl& operator=(const ObsControl&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::optional<obs::TraceJournal> journal_;
  std::optional<obs::ScopedTraceJournal> scope_;
};

// Declares the flags every simulation bench shares. The defaults follow
// §VI-A; `runs` defaults below the paper's 100 to keep a full bench suite
// run fast — pass --runs=100 for paper-strength averaging.
inline void define_common_flags(support::CliFlags& flags) {
  flags.define_int("runs", 25, "seeded repetitions per data point");
  flags.define_int("seed", 2019, "base RNG seed");
  flags.define_double("field", 1000.0, "square field side length (m)");
  flags.define_double(
      "cost-multiplier", 1.0,
      "charger electrical draw as a multiple of radiated power "
      "(1 = energy-conserving reading of the paper; ~4 = realistic PA)");
  flags.define_bool("csv", false, "emit CSV instead of an aligned table");
  flags.define_int("threads", 0,
                   "worker threads (0 = BC_THREADS env or hardware); "
                   "results are identical at every thread count");
  support::define_budget_flags(flags);  // --deadline, --node-budget
  flags.define_string(
      "checkpoint", "",
      "journal completed (config, run) cells to <dir>/<bench>.ckpt; an "
      "existing journal is resumed (completed cells are not recomputed)");
  flags.define_string(
      "resume", "",
      "like --checkpoint, but the journal must already exist — guards "
      "against typos silently starting a sweep from scratch");
  define_obs_flags(flags);  // --trace-out, --metrics-out, --trace-clock
}

// Builds the ICDCS'19 profile honouring the common flags, and applies the
// requested thread count to the global pool so every stage of the bench
// (experiment sweeps and the planners inside them) uses it.
inline core::Profile profile_from_flags(const support::CliFlags& flags) {
  support::set_thread_count(
      static_cast<std::size_t>(flags.get_int("threads")));
  core::Profile profile = core::icdcs2019_simulation_profile();
  const double side = flags.get_double("field");
  profile.field.field = {{0.0, 0.0}, {side, side}};
  const double mult = flags.get_double("cost-multiplier");
  profile.planner.charging =
      charging::ChargingModel(36.0, 30.0, 3.0, 3.0 * mult);
  profile.evaluation.charging = profile.planner.charging;
  // Per-planning-call budget (--deadline / --node-budget): every solver
  // stage inside each experiment cell degrades anytime-style instead of
  // hanging. Node caps keep cells deterministic; deadlines do not.
  profile.planner.budget = support::budget_from_flags(flags);
  return profile;
}

inline sim::ExperimentSpec spec_from_flags(const support::CliFlags& flags,
                                           const core::Profile& profile,
                                           std::size_t n,
                                           tour::Algorithm algorithm,
                                           double radius) {
  sim::ExperimentSpec spec;
  spec.make_deployment = sim::uniform_factory(n, profile.field);
  spec.algorithm = algorithm;
  spec.planner = profile.planner;
  spec.planner.bundle_radius = radius;
  spec.evaluation = profile.evaluation;
  spec.runs = static_cast<std::size_t>(flags.get_int("runs"));
  spec.base_seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  return spec;
}

// Compact float formatting for sweep ids and cell keys ("20", not
// "20.000000").
inline std::string num_token(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Fingerprints every result-affecting flag plus the bench's own parameters
// (`extra`) into a whitespace-free sweep id. Threads and output format are
// excluded: they never change results. A journal written under a
// different id refuses to resume — cached cells from another
// configuration would silently poison the sweep.
inline std::string sweep_id_from_flags(const support::CliFlags& flags,
                                       const std::string& bench_name,
                                       const std::string& extra = "") {
  std::string id = bench_name;
  id += "|runs=" + std::to_string(flags.get_int("runs"));
  id += "|seed=" + std::to_string(flags.get_int("seed"));
  id += "|field=" + num_token(flags.get_double("field"));
  id += "|cost=" + num_token(flags.get_double("cost-multiplier"));
  id += "|deadline=" + num_token(flags.get_double("deadline"));
  id += "|node-budget=" + std::to_string(flags.get_int("node-budget"));
  if (!extra.empty()) id += "|" + extra;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", support::crc32(id));
  return bench_name + "-" + buf;
}

// Journal + cancellation state for one bench process.
struct SweepControl {
  std::optional<sim::CheckpointJournal> journal;
  support::CancelToken cancel{};
  bool enabled() const { return journal.has_value(); }
};

// Honours --checkpoint/--resume: opens (or creates) <dir>/<bench>.ckpt
// and installs SIGINT/SIGTERM -> cancel, so an interrupt flushes the
// journal and exits cleanly instead of losing the sweep. Prints a
// diagnostic and exits on an unusable journal.
inline SweepControl sweep_control_from_flags(const support::CliFlags& flags,
                                             const std::string& bench_name,
                                             const std::string& extra_id) {
  SweepControl control;
  const std::string resume_dir = flags.get_string("resume");
  const std::string dir =
      resume_dir.empty() ? flags.get_string("checkpoint") : resume_dir;
  if (dir.empty()) return control;
  const std::string path = dir + "/" + bench_name + ".ckpt";
  if (!resume_dir.empty() && !support::file_exists(path)) {
    std::cerr << "--resume: no journal at " << path << "\n";
    std::exit(1);
  }
  auto journal = sim::CheckpointJournal::open(
      path, sweep_id_from_flags(flags, bench_name, extra_id));
  if (!journal.has_value()) {
    std::cerr << support::describe(journal.fault()) << "\n";
    std::exit(1);
  }
  control.journal.emplace(std::move(journal.value()));
  support::cancel_on_signals(control.cancel);
  return control;
}

// One configuration cell's aggregate, journaled and resumable when
// `control` is enabled. A cancelled sweep exits 130 (like an interrupted
// shell command) with all completed cells flushed for --resume.
inline sim::AggregateMetrics run_cells(SweepControl& control,
                                       const sim::ExperimentSpec& spec,
                                       const std::string& cell_prefix) {
  if (!control.enabled()) return sim::run_experiment(spec);
  sim::ExperimentControl ctl;
  ctl.journal = &control.journal.value();
  ctl.cell_prefix = cell_prefix;
  ctl.cancel = control.cancel;
  auto result = sim::run_experiment_resumable(spec, ctl);
  if (!result.has_value()) {
    std::cerr << "\n" << support::describe(result.fault()) << "\n";
    std::exit(result.fault().kind == support::FaultKind::kBudgetExhausted
                  ? 130
                  : 1);
  }
  return result.value();
}

inline void print_table(const support::CliFlags& flags,
                        const support::Table& table) {
  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

// --- Perf-regression reporting ------------------------------------------
//
// Machine-readable micro-bench records: one `BENCH_<kernel>.json` file per
// kernel so the bench trajectory accumulates as CI artifacts and can be
// diffed against the committed baseline (`bench/baselines/`) by
// `tools/check_bench_regression.py`. Schema (see DESIGN.md §8):
//
//   {
//     "bench": "<kernel>",
//     "schema_version": 2,
//     "threads": <worker threads the run used>,
//     "cases": [
//       {"name": "n=300", "wall_ms": 12.345, "repeats": 5,
//        "counters": {"nodes_expanded": 50001},
//        "metrics": {"tour_len_after": 8123.4}}
//     ],
//     "observability": { ...obs::MetricsSnapshot::to_json()... }
//   }
//
// v2 added the "observability" block — the process-wide metrics snapshot
// at write time (deterministic integers, see src/obs/metrics.h). v1 files
// (no such block) remain readable by check_bench_regression.py.
//
// `wall_ms` is the minimum over `repeats` timed runs (minimum, not mean:
// it is the least noisy estimator of the true kernel cost on a shared
// machine). `counters` are exact integers (work done — nodes expanded,
// candidates enumerated, moves applied) and must be deterministic for a
// given build; `metrics` are informational doubles.
class BenchReporter {
 public:
  explicit BenchReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  class Case {
   public:
    Case& counter(const std::string& key, std::int64_t value) {
      counters_.emplace_back(key, value);
      return *this;
    }
    Case& metric(const std::string& key, double value) {
      metrics_.emplace_back(key, value);
      return *this;
    }

   private:
    friend class BenchReporter;
    std::string name_;
    double wall_ms_ = 0.0;
    std::size_t repeats_ = 0;
    std::vector<std::pair<std::string, std::int64_t>> counters_;
    std::vector<std::pair<std::string, double>> metrics_;
  };

  // Records one case; `wall_ms` should be the min over `repeats` runs.
  Case& add_case(const std::string& name, double wall_ms,
                 std::size_t repeats) {
    cases_.emplace_back();
    cases_.back().name_ = name;
    cases_.back().wall_ms_ = wall_ms;
    cases_.back().repeats_ = repeats;
    return cases_.back();
  }

  // Times `fn` `repeats` times and records the minimum wall time.
  template <typename Fn>
  Case& time_case(const std::string& name, std::size_t repeats, Fn&& fn) {
    double best_ms = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    return add_case(name, best_ms, repeats);
  }

  // Serialises to `<dir>/BENCH_<bench>.json` (atomic write) and echoes a
  // one-line summary per case to stdout.
  void write(const std::string& dir, std::size_t threads) const {
    std::string json = "{\n";
    json += "  \"bench\": \"" + bench_name_ + "\",\n";
    json += "  \"schema_version\": 2,\n";
    json += "  \"threads\": " + std::to_string(threads) + ",\n";
    json += "  \"cases\": [\n";
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      json += "    {\"name\": \"" + c.name_ + "\", ";
      json += "\"wall_ms\": " + fmt_double(c.wall_ms_, 3) + ", ";
      json += "\"repeats\": " + std::to_string(c.repeats_);
      json += json_map(c.counters_, "counters");
      json += json_map(c.metrics_, "metrics");
      json += "}";
      if (i + 1 < cases_.size()) json += ",";
      json += "\n";
      std::printf("%-24s %10.3f ms  (min of %zu)\n", c.name_.c_str(),
                  c.wall_ms_, c.repeats_);
    }
    json += "  ],\n";
    json += "  \"observability\": " +
            obs::global_metrics().snapshot().to_json("  ") + "\n}\n";
    const std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    auto written = support::write_file_atomic(path, json);
    if (!written.has_value()) {
      std::cerr << support::describe(written.fault()) << "\n";
      std::exit(1);
    }
  }

 private:
  static std::string fmt_double(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
  }
  static std::string json_map(
      const std::vector<std::pair<std::string, std::int64_t>>& entries,
      const std::string& key) {
    if (entries.empty()) return "";
    std::string out = ", \"" + key + "\": {";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + entries[i].first +
             "\": " + std::to_string(entries[i].second);
    }
    return out + "}";
  }
  static std::string json_map(
      const std::vector<std::pair<std::string, double>>& entries,
      const std::string& key) {
    if (entries.empty()) return "";
    std::string out = ", \"" + key + "\": {";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + entries[i].first + "\": " + fmt_double(entries[i].second, 3);
    }
    return out + "}";
  }

  std::string bench_name_;
  std::vector<Case> cases_;
};

}  // namespace bc::bench

#endif  // BUNDLECHARGE_BENCH_BENCH_UTIL_H_
