#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.p50 = n % 2 == 1 ? samples[n / 2]
                     : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  // Highest index with kTailBeyond samples after it, never below the
  // median's rank.
  const std::size_t mid = n / 2;
  if (n > kTailBeyond && n - 1 - kTailBeyond >= mid) {
    const std::size_t k = n - 1 - kTailBeyond;
    s.tail = std::max(samples[k], s.p50);
    s.tail_pct = 100.0 * static_cast<double>(k) / static_cast<double>(n - 1);
    s.beyond = kTailBeyond;
  } else {
    s.tail = s.p50;
    s.tail_pct = 50.0;
    s.beyond = n - 1 - mid;
  }
  return s;
}

std::string Ratio::describe() const {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%.6g (%.0f/%.0f)", value(), num, den);
  return buffer;
}

std::vector<double> fixed_rate_schedule(double rate_per_s, double seconds) {
  std::vector<double> offsets;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return offsets;
  for (std::size_t i = 0;; ++i) {
    const double t = static_cast<double>(i) / rate_per_s;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  return offsets;
}

OpenLoopTally tally_open_loop(std::span<const Shot> shots, double cut_ms) {
  OpenLoopTally t;
  t.attempted = shots.size();
  for (const Shot& shot : shots) {
    if (!shot.sent) continue;
    t.lateness_ms_max =
        std::max(t.lateness_ms_max, 1e3 * (shot.sent_s - shot.scheduled_s));
    if (!shot.ok) continue;
    ++t.ok;
    const double latency_ms = 1e3 * (shot.done_s - shot.scheduled_s);
    t.latency_ms.push_back(latency_ms);
    if (latency_ms <= cut_ms) ++t.good;
  }
  return t;
}

double goodput_rps(const OpenLoopTally& tally, double phase_seconds) {
  return phase_seconds > 0.0 ? static_cast<double>(tally.good) / phase_seconds
                             : 0.0;
}

}  // namespace perfbench
