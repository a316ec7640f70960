// rank_m8 and search_n7: the library calls `bcclb rank` and `bcclb search`
// make, in this process, at four threads.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "bcc/batch_runner.h"
#include "bcc/checkpoint.h"
#include "bench.h"
#include "crossing/indistinguishability_graph.h"
#include "crossing/matching.h"
#include "daemon.h"
#include "linalg/tiled_rank.h"
#include "partition/bell.h"
#include "search/engine.h"
#include "search/fitness.h"
#include "stats.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr unsigned kThreads = 4;

// Batch windows run a fixed number of ops, sized so the window lasts about
// --seconds at the ops' nominal cost on 4 cores. Every run then does the same
// work, and the tail (the 11th-slowest sample) sits at the same rank.
std::size_t ops_for(double seconds, double nominal_op_seconds, std::size_t minimum) {
  return std::max(minimum, static_cast<std::size_t>(std::llround(seconds / nominal_op_seconds)));
}


// ---- rank_m8 ----------------------------------------------------------------------

constexpr std::size_t kRankN = 8;
constexpr std::size_t kTileRows = 512;
constexpr char kJobDir[] = "rank-job";

// The closed form rank of M_n over GF(p): sum_{k <= p} S(n, k), with the
// Stirling numbers from their own recurrence (not the program's table).
std::uint64_t closed_form_rank(std::size_t n, std::uint64_t p) {
  std::vector<std::vector<std::uint64_t>> s(n + 1, std::vector<std::uint64_t>(n + 1, 0));
  s[0][0] = 1;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t k = 1; k <= i; ++k) s[i][k] = k * s[i - 1][k] + s[i - 1][k - 1];
  }
  std::uint64_t rank = 0;
  for (std::size_t k = 1; k <= n && k <= p; ++k) rank += s[n][k];
  return rank;
}

struct RankJob {
  double wall_ms = 0;
  std::vector<double> tile_ms;
  bcclb::TiledRankReport report;
};

// One full tiled mod-p certificate of M_8 with a fresh checkpoint directory,
// so segment writes and fsyncs are real. Tile times come from the progress
// callback.
RankJob run_rank_job(std::uint64_t prime, Tracer& tracer, std::uint64_t id) {
  fs::remove_all(kJobDir);
  fs::create_directories(kJobDir);
  bcclb::TiledRankConfig cfg;
  cfg.n = kRankN;
  cfg.field = bcclb::RankField::kModp;
  cfg.prime = prime;
  cfg.tile_rows = kTileRows;
  cfg.threads = kThreads;
  cfg.dir = kJobDir;
  RankJob job;
  const std::int64_t start = now_ns();
  const std::int64_t root = tracer.begin("rank.job", id);
  std::int64_t last = start;
  cfg.progress = [&](std::size_t, std::size_t, std::size_t) {
    const std::int64_t t = now_ns();
    job.tile_ms.push_back(ns_to_ms(t - last));
    tracer.record("tiled_rank.tile", id, root, last, t);
    last = t;
  };
  job.report = bcclb::tiled_partition_rank(cfg);
  tracer.end(root);
  job.wall_ms = ns_to_ms(now_ns() - start);
  return job;
}

void check_rank_job(const RankJob& job, std::uint64_t expected_rank,
                    const std::string& expected_certificate, RunOutcome& out) {
  const bcclb::TiledRankReport& r = job.report;
  if (!r.complete || r.rank != expected_rank || !r.full_rank) {
    out.fail(1, "rank job: rank " + std::to_string(r.rank) + " (complete=" +
                    std::to_string(r.complete) + "), closed form " + std::to_string(expected_rank));
  } else if (r.certificate_digest != expected_certificate) {
    out.fail(1, "rank job: certificate " + r.certificate_digest + " differs from " +
                    expected_certificate);
  }
}

constexpr double kNominalJobSeconds = 2.5;
constexpr std::size_t kMinJobs = 3;  // at least 27 tiles, enough for a tile tail

struct RankWindow {
  std::vector<RankJob> jobs;
  double wall_s = 0;
  double cpu_s = 0;
};

RankWindow run_rank_window(double seconds, std::uint64_t prime, Tracer& tracer) {
  RankWindow w;
  const std::int64_t start = now_ns();
  const double cpu0 = process_cpu_seconds();
  const std::size_t jobs = ops_for(seconds, kNominalJobSeconds, kMinJobs);
  while (w.jobs.size() < jobs) {
    w.jobs.push_back(run_rank_job(prime, tracer, w.jobs.size()));
  }
  w.wall_s = seconds_since(start);
  w.cpu_s = process_cpu_seconds() - cpu0;
  return w;
}

std::vector<double> job_walls(const RankWindow& w) {
  std::vector<double> out;
  for (const RankJob& j : w.jobs) out.push_back(j.wall_ms);
  return out;
}

// In-tile layers of the last job, timed by calling the same public
// functions on the same tiles: generation, standalone in-tile elimination
// (a proxy for the serial phase 2), and an atomic fsynced write of each
// segment's bytes. reduce = tile - generation - segment write, per tile.
void rank_layers(const RankJob& last, std::uint64_t prime, Tracer& tracer, RunOutcome& out) {
  const std::size_t dim = bcclb::bell_number_u64(kRankN);
  std::vector<double> gen_ms, write_ms, reduce_ms;
  std::vector<double> segment_bytes;
  for (std::size_t t = 0; t * kTileRows < dim; ++t) {
    const std::uint64_t id = (1ULL << 50) + t;
    const std::int64_t g0 = now_ns();
    const bcclb::JoinTile tile =
        bcclb::generate_join_tile(kRankN, t * kTileRows, std::min(dim, (t + 1) * kTileRows), kThreads);
    const std::int64_t g1 = now_ns();
    tracer.record("tiled_rank.generate_join_tile", id, -1, g0, g1);
    {
      ScopedSpan s(tracer, "tiled_rank.join_tile_rank", id);
      bcclb::join_tile_rank(tile, bcclb::RankField::kModp, prime);
    }
    const std::string segment = bcclb::read_file(bcclb::rank_segment_path(kJobDir, t));
    const std::int64_t w0 = now_ns();
    bcclb::write_file_atomic("segment-probe.bin", segment);
    const std::int64_t w1 = now_ns();
    tracer.record("checkpoint.write_file_atomic", id, -1, w0, w1);
    gen_ms.push_back(ns_to_ms(g1 - g0));
    write_ms.push_back(ns_to_ms(w1 - w0));
    segment_bytes.push_back(static_cast<double>(segment.size()));
    if (t < last.tile_ms.size()) reduce_ms.push_back(last.tile_ms[t] - gen_ms.back() - write_ms.back());
  }
  fs::remove("segment-probe.bin");
  out.layer("tiled_rank.tile_ms", median_or_zero(tracer.durations_ms("tiled_rank.tile")), "ms");
  out.layer("tiled_rank.gen_ms", median_or_zero(gen_ms), "ms");
  out.layer("tiled_rank.in_tile_ms",
            median_or_zero(tracer.durations_ms("tiled_rank.join_tile_rank")), "ms");
  out.layer("tiled_rank.reduce_ms", median_or_zero(reduce_ms), "ms");
  out.layer("checkpoint.write_ms", median_or_zero(write_ms), "ms");
  out.layer("tiled_rank.segment_bytes", median_or_zero(segment_bytes), "bytes");
  out.layer("tiled_rank.peak_resident_mib",
            static_cast<double>(last.report.peak_resident_bytes) / (1024.0 * 1024.0), "MiB");
}

// ---- search_n7 --------------------------------------------------------------------

constexpr std::size_t kDistinctCells = 8;  // cell configs per run, cycled
constexpr double kNominalCellSeconds = 0.33;
constexpr std::size_t kMinCells = kTailMinSamples;
constexpr std::size_t kWarmCells = 2;
constexpr std::size_t kProbeRepeats = 5;

bcclb::SearchConfig cell_config(std::uint64_t seed, std::size_t index, unsigned threads) {
  bcclb::SearchConfig c;
  c.n = 7;
  c.rounds = 2;
  c.buckets = 16;
  c.budget = 512;
  c.driver = bcclb::SearchDriver::kEvolution;
  c.seed = derive_seed(seed, 300 + index) & 0xffffffffULL;
  c.threads = threads;
  return c;
}

struct CellResult {
  std::string artifact;
  bcclb::SearchOutcome outcome;
};

struct SearchWindow {
  std::vector<double> cell_ms;
  std::vector<char> ok;  // per cell
  std::map<std::size_t, CellResult> first;  // by distinct config index
  double wall_s = 0;
  double cpu_s = 0;
};

// Evolution cells until the window ends; every repeat of a config must
// render the same artifact bytes as its first run.
SearchWindow run_search_window(std::uint64_t seed, double seconds,
                               const bcclb::FitnessOracle& oracle, Tracer& tracer,
                               RunOutcome& out) {
  SearchWindow w;
  const std::int64_t start = now_ns();
  const double cpu0 = process_cpu_seconds();
  const std::size_t cells = ops_for(seconds, kNominalCellSeconds, kMinCells);
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t config_index = i % kDistinctCells;
    const bcclb::SearchConfig cfg = cell_config(seed, config_index, kThreads);
    const std::int64_t c0 = now_ns();
    bcclb::SearchOutcome outcome;
    {
      ScopedSpan s(tracer, "search.cell", i);
      outcome = bcclb::run_search(cfg, oracle);
    }
    w.cell_ms.push_back(ns_to_ms(now_ns() - c0));
    w.ok.push_back(1);
    std::string artifact = bcclb::render_search_artifact(cfg, outcome);
    const auto it = w.first.find(config_index);
    if (it == w.first.end()) {
      w.first.emplace(config_index, CellResult{std::move(artifact), outcome});
    } else if (artifact != it->second.artifact) {
      w.ok.back() = 0;
      out.fail(0, "search cell " + std::to_string(i) + " differs from an earlier run of its config");
    }
  }
  w.wall_s = seconds_since(start);
  w.cpu_s = process_cpu_seconds() - cpu0;
  return w;
}

// Each distinct config's artifact must equal a 1-thread run_search of the
// same config with its own oracle.
void check_search_window(SearchWindow& w, std::uint64_t seed, RunOutcome& out) {
  for (const auto& [index, cell] : w.first) {
    const bcclb::SearchConfig cfg = cell_config(seed, index, 1);
    const std::string ref = bcclb::render_search_artifact(cfg, bcclb::run_search(cfg));
    if (ref != cell.artifact) {
      for (std::size_t i = index; i < w.ok.size(); i += kDistinctCells) w.ok[i] = 0;
      out.fail(0, "search config " + std::to_string(index) + " differs from its 1-thread reference");
    }
  }
  out.attempted += w.ok.size();
  out.failed += static_cast<std::uint64_t>(std::count(w.ok.begin(), w.ok.end(), 0));
}

// Layer probes on the window's best tables: exact fitness evaluation, the
// Theorem 3.1 certificate floor, and the indistinguishability build and
// Hopcroft-Karp matching behind it.
void search_layers(const SearchWindow& w, const bcclb::FitnessOracle& oracle, Tracer& tracer,
                   RunOutcome& out) {
  const bcclb::BatchRunner runner(kThreads);
  double evals = 0, improvements = 0;
  for (const auto& [index, cell] : w.first) {
    evals += static_cast<double>(cell.outcome.evaluated);
    improvements += static_cast<double>(cell.outcome.improvements);
    for (std::size_t r = 0; r < kProbeRepeats; ++r) {
      const std::uint64_t id = (1ULL << 50) + index * kProbeRepeats + r;
      {
        ScopedSpan s(tracer, "fitness.evaluate", id);
        oracle.evaluate(cell.outcome.best, runner);
      }
      {
        ScopedSpan s(tracer, "fitness.certificate_floor_scaled", id);
        oracle.certificate_floor_scaled(cell.outcome.best);
      }
      bcclb::IndistinguishabilityGraph graph;
      {
        ScopedSpan s(tracer, "indist.build_indistinguishability_graph", id);
        graph = bcclb::build_indistinguishability_graph(oracle.n(), bcclb::all_edges_active(), kThreads);
      }
      {
        ScopedSpan s(tracer, "matching.max_bipartite_matching", id);
        bcclb::max_bipartite_matching(graph.adj, graph.two_cycles.size());
      }
    }
  }
  const double eval_ms = median_or_zero(tracer.durations_ms("fitness.evaluate"));
  out.layer("fitness.eval_ms", eval_ms, "ms");
  out.layer("round_engine.run_us", eval_ms * 1e3 / static_cast<double>(oracle.num_instances()), "us");
  out.layer("search.evals", evals, "count");
  out.layer("search.improvements", improvements, "count");
  out.layer("fitness.cert_ms",
            median_or_zero(tracer.durations_ms("fitness.certificate_floor_scaled")), "ms");
  out.layer("indist.build_ms",
            median_or_zero(tracer.durations_ms("indist.build_indistinguishability_graph")), "ms");
  out.layer("matching.hk_ms",
            median_or_zero(tracer.durations_ms("matching.max_bipartite_matching")), "ms");
}

}  // namespace

RunOutcome run_rank_m8(const RunOptions& options, Tracer& tracer) {
  RunOutcome out;
  const std::uint64_t prime = seeded_prime_30bit(options.seed);
  const std::uint64_t expected = closed_form_rank(kRankN, prime);
  Tracer off(false);

  // Set-up: one discarded warm-up job, kSetups times. Its certificate is
  // the one every timed job must reproduce.
  std::vector<double> setups;
  std::string certificate;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    const RankJob warm = run_rank_job(prime, off, 0);
    setups.push_back(seconds_since(start));
    if (!warm.report.complete || warm.report.rank != expected) {
      throw std::runtime_error("warm-up rank job: rank " + std::to_string(warm.report.rank) +
                               " != closed form " + std::to_string(expected));
    }
    if (i > 0 && warm.report.certificate_digest != certificate) {
      throw std::runtime_error("warm-up rank jobs disagree on the certificate");
    }
    certificate = warm.report.certificate_digest;
  }
  out.e2e("setup_s", median(setups), "s");

  const RankWindow w = run_rank_window(options.seconds, prime, off);
  out.e2e("peak_rss_mib", vm_hwm_mib(0), "MiB");
  const LatencySummary jobs = summarize(job_walls(w));
  std::vector<double> tiles;
  for (const RankJob& j : w.jobs) tiles.insert(tiles.end(), j.tile_ms.begin(), j.tile_ms.end());
  const LatencySummary tile_summary = summarize(tiles);
  out.e2e("p50_ms", jobs.p50, "ms");
  if (tile_summary.tail) {
    out.e2e("tail_ms", tile_summary.tail->value, "ms");
  } else {
    out.fail(0, "too few tiles for a tail");
  }
  report_latency("rank_m8 job wall (p50_ms)", job_walls(w), out);
  report_latency("rank_m8 tile wall (tail_ms)", tiles, out);
  out.report.push_back("rank_m8 prime=" + std::to_string(prime) + " rank=" + std::to_string(expected) +
                       " certificate=" + certificate + " ops_per_s=" +
                       std::to_string(static_cast<double>(w.jobs.size()) / w.wall_s));
  out.attempted += w.jobs.size();
  for (const RankJob& j : w.jobs) check_rank_job(j, expected, certificate, out);

  if (tracer.enabled()) {
    const RankWindow traced = run_rank_window(options.seconds, prime, tracer);
    out.attempted += traced.jobs.size();
    for (const RankJob& j : traced.jobs) check_rank_job(j, expected, certificate, out);
    trace_overhead(jobs.p50, median(job_walls(traced)), out);
    out.layer("tiled_rank.cpu_util", w.cpu_s / (w.wall_s * kThreads), "ratio");
    rank_layers(traced.jobs.back(), prime, tracer, out);
  }
  fs::remove_all(kJobDir);
  return out;
}

RunOutcome run_search_n7(const RunOptions& options, Tracer& tracer) {
  RunOutcome out;
  Tracer off(false);

  // Set-up: oracle build plus kWarmCells discarded cells, kSetups times.
  std::vector<double> setups;
  std::unique_ptr<bcclb::FitnessOracle> oracle;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    oracle = std::make_unique<bcclb::FitnessOracle>(7, 2);
    for (std::size_t c = 0; c < kWarmCells; ++c) {
      bcclb::run_search(cell_config(derive_seed(options.seed, 900 + i), c, kThreads), *oracle);
    }
    setups.push_back(seconds_since(start));
  }
  out.e2e("setup_s", median(setups), "s");

  SearchWindow w = run_search_window(options.seed, options.seconds, *oracle, off, out);
  out.e2e("peak_rss_mib", vm_hwm_mib(0), "MiB");
  const LatencySummary cells = summarize(w.cell_ms);
  out.e2e("p50_ms", cells.p50, "ms");
  if (cells.tail) {
    out.e2e("tail_ms", cells.tail->value, "ms");
  } else {
    out.fail(0, "too few cells for a tail");
  }
  report_latency("search_n7 cell wall", w.cell_ms, out);
  out.report.push_back("search_n7 ops_per_s=" +
                       std::to_string(static_cast<double>(w.cell_ms.size()) / w.wall_s) +
                       " distinct configs=" + std::to_string(w.first.size()));

  if (tracer.enabled()) {
    SearchWindow traced = run_search_window(options.seed, options.seconds, *oracle, tracer, out);
    trace_overhead(cells.p50, median(traced.cell_ms), out);
    out.layer("batch_runner.cpu_util", w.cpu_s / (w.wall_s * kThreads), "ratio");
    search_layers(traced, *oracle, tracer, out);
    check_search_window(traced, options.seed, out);
  }
  check_search_window(w, options.seed, out);
  return out;
}

}  // namespace perfbench
