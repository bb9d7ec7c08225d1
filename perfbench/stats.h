// The benchmark's own arithmetic: latency summaries, ratios with their
// bases, and open-loop send accounting. Kept free of library types so the
// self-test (selftest.cc) can pin every rule on hand-made inputs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// A tail percentile is reported only where at least this many samples lie
// beyond it, so a single slow sample can never be the tail.
inline constexpr std::size_t kTailBeyond = 10;

// Median and tail of one sample set. The tail is the highest order
// statistic with at least kTailBeyond samples strictly after it in sorted
// order; it never drops below the median, so with fewer than
// 2 * kTailBeyond + 1 samples the tail is the median itself.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;     // percentile of the tail, in [50, 100]
  std::size_t beyond = 0;    // samples after the tail in sorted order
};

Summary summarize(std::vector<double> samples);

// A ratio kept with its base, so a report can print "0.93 (931/1001)".
// An empty base reads as 0.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den > 0.0 ? num / den : 0.0; }
  std::string describe() const;
};

// One open-loop request: when it was due, when it went out, when its
// answer came back (seconds on one clock), and whether it was sent at all
// and answered with a valid 200.
struct Shot {
  double scheduled_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool sent = false;
  bool ok = false;
};

// Send offsets of a fixed-rate open loop: request i is due at i / rate,
// for every i with i / rate < seconds.
std::vector<double> fixed_rate_schedule(double rate_per_s, double seconds);

// Tally of an open-loop phase. Latency is measured from the scheduled send
// time, so a stalled generator charges its wait to every later request;
// lateness is how far behind schedule the generator sent.
struct OpenLoopTally {
  std::size_t attempted = 0;  // every scheduled request
  std::size_t ok = 0;         // sent and answered with a valid 200
  std::size_t good = 0;       // ok and latency <= the cut
  std::vector<double> latency_ms;  // ok requests only
  double lateness_ms_max = 0.0;    // sent requests only
};

OpenLoopTally tally_open_loop(std::span<const Shot> shots, double cut_ms);

// Requests per second that came back valid within the cut.
double goodput_rps(const OpenLoopTally& tally, double phase_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
