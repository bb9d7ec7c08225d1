// Self-test of the benchmark's arithmetic (stats.h): the tail rule, ratios
// with their bases, open-loop send-time accounting, lateness, and the
// 50 ms goodput cut. Prints one line per failed check and exits non-zero
// if any failed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so summarize has to sort
}

void tail_rule() {
  using perfbench::summarize;
  const auto s100 = summarize(one_to(100));
  expect(s100.count == 100, "count of 100 samples");
  expect(near(s100.p50, 50.5), "median of 1..100 is 50.5");
  expect(near(s100.tail, 90.0), "tail of 1..100 leaves ten samples beyond");
  expect(s100.beyond == 10, "tail of 1..100 has ten beyond");
  expect(near(s100.tail_pct, 100.0 * 89.0 / 99.0), "tail percentile of 1..100");

  // 21 samples: the only order statistic with ten beyond is the median.
  const auto s21 = summarize(one_to(21));
  expect(near(s21.p50, 11.0) && near(s21.tail, 11.0), "21 samples: tail = p50");
  expect(s21.beyond == 10, "21 samples: ten beyond the median");

  // Too few samples for a tail: report the median, and say so.
  const auto s20 = summarize(one_to(20));
  expect(near(s20.tail, s20.p50), "20 samples: tail clamps to the median");
  expect(near(s20.tail_pct, 50.0), "20 samples: tail percentile is 50");
  expect(s20.beyond == 9, "20 samples: nine beyond the median");

  const auto s1 = summarize({7.0});
  expect(near(s1.p50, 7.0) && near(s1.tail, 7.0) && s1.beyond == 0,
         "one sample is its own median and tail");
  expect(summarize({}).count == 0, "empty summary");

  // A single outlier cannot be the tail.
  std::vector<double> spiky(30, 1.0);
  spiky.back() = 1000.0;
  expect(near(summarize(spiky).tail, 1.0), "one outlier never sets the tail");
}

void ratios() {
  perfbench::Ratio r{931.0, 1001.0};
  expect(near(r.value(), 931.0 / 1001.0), "ratio value");
  expect(r.describe().find("(931/1001)") != std::string::npos,
         "ratio prints its base");
  perfbench::Ratio empty{0.0, 0.0};
  expect(empty.value() == 0.0, "empty base reads as 0");
  expect(empty.describe().find("(0/0)") != std::string::npos,
         "empty base is printed");
}

void open_loop() {
  using perfbench::Shot;
  const auto schedule = perfbench::fixed_rate_schedule(100.0, 1.0);
  expect(schedule.size() == 100, "100/s for 1 s schedules 100 sends");
  expect(near(schedule[0], 0.0) && near(schedule[99], 0.99),
         "sends are due at i / rate");
  expect(perfbench::fixed_rate_schedule(0.0, 1.0).empty(), "zero rate");

  std::vector<Shot> shots = {
      // On time, 45 ms: good.
      {0.000, 0.000, 0.045, true, true},
      // Sent 30 ms late, answered 25 ms after sending: 55 ms from its
      // due time, so it misses the 50 ms cut although service took 25 ms.
      {0.010, 0.040, 0.065, true, true},
      // Exactly at the cut (1e3 * 0.05 rounds to 50.0): counts as good.
      {0.000, 0.000, 0.050, true, true},
      // A 503 (not ok): attempted, not good, but its lateness counts.
      {0.030, 0.035, 0.036, true, false},
      // Never sent (abandoned past the cut): attempted only.
      {0.040, 0.0, 0.0, false, false},
  };
  const auto t = perfbench::tally_open_loop(shots, 50.0);
  expect(t.attempted == 5, "every scheduled request is attempted");
  expect(t.ok == 3, "ok counts valid 200s only");
  expect(t.good == 2, "the 50 ms cut is inclusive and from the due time");
  expect(t.latency_ms.size() == 3 && near(t.latency_ms[1], 55.0),
         "latency is measured from the scheduled send time");
  expect(near(t.lateness_ms_max, 30.0), "lateness is send minus due time");
  expect(near(perfbench::goodput_rps(t, 0.5), 4.0),
         "goodput is good requests per phase second");
  expect(perfbench::goodput_rps(t, 0.0) == 0.0, "empty phase");
}

}  // namespace

int main() {
  tail_rule();
  ratios();
  open_loop();
  if (g_failures == 0) std::printf("selftest ok\n");
  return g_failures == 0 ? 0 : 1;
}
