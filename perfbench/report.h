// What one benchmark run prints: human-readable lines (digests, tail
// percentiles, ratio bases), then one JSON line with the verdict and the
// value of every metric the run reported. Names and units belong to
// BENCHMARK.json; run.py checks the names against it and attaches the units.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // service_mix_300's steady-phase rate in requests/s; 0 keeps the
  // workload's own. Only for measuring the knee by hand (README).
  double steady_rate = 0.0;
};

class Report {
 public:
  explicit Report(RunOptions options) : options_(std::move(options)) {}

  const RunOptions& options() const { return options_; }

  void line(const std::string& text) { lines_.push_back(text); }
  void metric(std::string_view name, double value);
  // Layers the workload does not exercise read 0.
  void unmeasured(std::initializer_list<std::string_view> names);
  // Median and tail of `summary` as <prefix>_p50 / <prefix>_tail, with a
  // line stating the tail's percentile and the sample count.
  void latency(std::string_view prefix, const Summary& summary);
  // A ratio metric, with its base on a line of its own.
  void ratio(std::string_view name, const Ratio& ratio);
  // A failed output check or guard: the run is not correct.
  void fail(const std::string& what);
  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  // Prints everything; returns the process exit code (0 only when every
  // check passed and every metric was reported once, with a finite value).
  int finish();

 private:
  RunOptions options_;
  std::vector<std::string> lines_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;
};

// Peak resident set size of this process (VmHWM) in MiB; 0 if unknown.
double peak_rss_mib();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
