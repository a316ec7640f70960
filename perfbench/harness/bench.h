// The four workloads and what a run of one reports.
//
// Each workload sets up (several times; setup_s is the median), runs its
// timed window with tracing off, then — in a traced run — a second window
// with spans on, and finally checks every output against an independent
// in-process computation. A check that fails counts the op as failed and
// fails the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string bcclb_path;  // the `bcclb` binary (serve workloads)
  std::string workdir;     // working directory for sockets, logs, rank segments
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // why ops or checks failed
  std::vector<Metric> end_to_end;   // untraced window
  std::vector<Metric> per_layer;    // traced run only
  std::vector<std::string> report;  // human-readable lines

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    if (errors.size() < 20) errors.push_back(why);
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

// Number of set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

RunOutcome run_serve_hot(const RunOptions& options, Tracer& tracer);
RunOutcome run_serve_hol(const RunOptions& options, Tracer& tracer);
RunOutcome run_rank_m8(const RunOptions& options, Tracer& tracer);
RunOutcome run_search_n7(const RunOptions& options, Tracer& tracer);

// Wall seconds since `start_ns`.
inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

// User + system CPU seconds of this process so far.
double process_cpu_seconds();

// Median, or 0 for a layer with no samples on this workload's path.
double median_or_zero(const std::vector<double>& samples);

// Appends "label: n=.. p50=.. p<tail>=.. ladder ..." to the report.
void report_latency(const std::string& label, const std::vector<double>& samples,
                    RunOutcome& out);

// trace.overhead_pct: traced minus untraced end-to-end median, in percent.
void trace_overhead(double untraced_p50, double traced_p50, RunOutcome& out);

}  // namespace perfbench
