#include "report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench {

void Report::metric(std::string_view name, double value) {
  metrics_.emplace_back(std::string(name), value);
}

void Report::unmeasured(std::initializer_list<std::string_view> names) {
  for (const std::string_view name : names) metric(name, 0.0);
}

void Report::latency(std::string_view prefix, const Summary& summary) {
  const std::string p(prefix);
  metric(p + "_p50", summary.p50);
  metric(p + "_tail", summary.tail);
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "%s: %zu samples, tail = p%.1f with %zu samples beyond", p.c_str(),
                summary.count, summary.tail_pct, summary.beyond);
  line(buffer);
}

void Report::ratio(std::string_view name, const Ratio& ratio) {
  metric(name, ratio.value());
  line(std::string(name) + " = " + ratio.describe());
}

void Report::fail(const std::string& what) { problems_.push_back(what); }

int Report::finish() {
  std::set<std::string> seen;
  for (const auto& [name, value] : metrics_) {
    if (!seen.insert(name).second) fail("metric reported twice: " + name);
    if (!std::isfinite(value)) fail("non-finite metric: " + name);
  }

  for (const std::string& text : lines_) std::printf("%s\n", text.c_str());
  for (const std::string& problem : problems_) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  const bool correct = problems_.empty() && failed_ == 0 && attempted_ > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, value] : metrics_) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    json += separator;
    json += "\"" + name + "\": " + number;
    separator = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string text;
  while (std::getline(status, text)) {
    long kb = 0;
    if (std::sscanf(text.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
