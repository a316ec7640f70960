#include "bench.h"

#include <sys/resource.h>

#include "stats.h"

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double median_or_zero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : median(samples);
}

void report_latency(const std::string& label, const std::vector<double>& samples,
                    RunOutcome& out) {
  const LatencySummary s = summarize(samples);
  std::string line = label + ": n=" + std::to_string(s.count) + " p50=" + std::to_string(s.p50) + " ms";
  if (s.tail) {
    line += " tail p" + std::to_string(s.tail->percentile) + "=" + std::to_string(s.tail->value) +
            " ms (" + std::to_string(s.tail->beyond) + " samples beyond)";
  }
  out.report.push_back(line + " ladder " + percentile_ladder(samples));
}

void trace_overhead(double untraced_p50, double traced_p50, RunOutcome& out) {
  out.layer("trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%");
}

}  // namespace perfbench
