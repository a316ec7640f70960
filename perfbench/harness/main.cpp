// bcclb_perf — the benchmark harness. run.py builds it and calls
//
//   bcclb_perf --workload W --seed N --seconds S --trace 0|1
//              --bcclb PATH --workdir DIR --result FILE
//
// It runs one workload in DIR, prints a human-readable report, and writes
// every metric it measured (end-to-end and per-layer) with the op counts
// and check verdict to FILE as one JSON object. With --trace 1 the spans are
// written to DIR/trace.jsonl at exit.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunOutcome;

int usage() {
  std::fprintf(stderr,
               "usage: bcclb_perf --workload serve_hot|serve_hol|rank_m8|search_n7 --seed N\n"
               "                  --seconds S --trace 0|1 --bcclb PATH --workdir DIR --result FILE\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void write_result(const std::string& path, const RunOutcome& out) {
  const bool correct = out.failed == 0 && out.errors.empty() && out.attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    json += (i ? ", " : "") + json_string(out.errors[i]);
  }
  json += "], \"end_to_end\": " + json_metrics(out.end_to_end) +
          ", \"per_layer\": " + json_metrics(out.per_layer) + "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(json.c_str(), f) < 0 || std::fclose(f) != 0) {
    throw std::runtime_error("cannot write result file " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string result_path;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0 && options.seconds <= 600)) {
        return usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (flag == "--bcclb") {
      options.bcclb_path = std::filesystem::absolute(value).string();
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--result") {
      result_path = std::filesystem::absolute(value).string();
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || options.workdir.empty() || result_path.empty()) return usage();

  using Runner = RunOutcome (*)(const RunOptions&, perfbench::Tracer&);
  const std::map<std::string, Runner> workloads = {
      {"serve_hot", perfbench::run_serve_hot},
      {"serve_hol", perfbench::run_serve_hol},
      {"rank_m8", perfbench::run_rank_m8},
      {"search_n7", perfbench::run_search_n7},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage();

  try {
    std::filesystem::create_directories(options.workdir);
    if (::chdir(options.workdir.c_str()) != 0) {
      throw std::runtime_error("cannot enter " + options.workdir);
    }
    perfbench::Tracer tracer(options.trace);
    const RunOutcome out = it->second(options, tracer);
    if (tracer.enabled()) tracer.write_jsonl("trace.jsonl");
    for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
    for (const std::string& error : out.errors) std::printf("FAILED: %s\n", error.c_str());
    std::printf("%s fail_pct=%.4f (%llu of %llu ops)\n", options.workload.c_str(),
                out.attempted ? 100.0 * static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 100.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    std::fflush(stdout);
    write_result(result_path, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcclb_perf %s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
