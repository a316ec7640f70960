// serve_hot and serve_hol: the real `bcclb serve` daemon over its socket.
//
// Both workloads run the same daemon configuration (two worker threads) and
// the same warm pool. serve_hot is a closed loop of pure memory-tier hits on
// two connections with eight requests in flight each; serve_hol is an open
// loop of hits at a fixed rate with fresh-key cold misses on a third
// connection. The harness uses at most
// nproc = 4 threads plus connections: serve_hot has two threads with one
// connection each, serve_hol one thread driving three connections.
#include <poll.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bcc/checkpoint.h"
#include "bench.h"
#include "daemon.h"
#include "serve/artifact_cache.h"
#include "serve/handlers.h"
#include "serve/wire.h"
#include "stats.h"

namespace perfbench {

using bcclb::CacheSource;
using bcclb::Request;
using bcclb::RequestType;
using bcclb::Response;

namespace {

constexpr unsigned kDaemonThreads = 2;
constexpr std::uint32_t kHotConnections = 2;
constexpr std::size_t kOutstanding = 8;  // serve_hot requests in flight per connection
constexpr std::uint64_t kTraceSampling = 64;  // serve_hot traces one request in 64
// serve_hot's tail is p90: with 16 requests in flight, any host stall of a
// few ms delays a thousand round trips, so its p99 tracked host preemptions
// (0.12-0.67 ms across ten runs) rather than bccd.
constexpr double kHotTailCap = 0.90;
constexpr double kHitRate = 200.0;       // serve_hol hits per second
constexpr double kMissRate = 2.0;        // serve_hol misses per second
constexpr double kLateGateMs = 10.0;     // open-loop validity gate on generator lateness
constexpr double kWarmLoopSeconds = 0.3; // closed-loop warm-up at the end of set-up
constexpr double kDrainSeconds = 30.0;   // open loop: time allowed for the last answers
constexpr std::size_t kCodecProbeOps = 20000;
constexpr char kSocket[] = "bccd.sock";
constexpr char kDaemonLog[] = "bccd.log";

const char* handler_span(RequestType type) {
  switch (type) {
    case RequestType::kClassify: return "handlers.classify";
    case RequestType::kIndistGraph: return "handlers.indist_graph";
    case RequestType::kRank: return "handlers.rank";
    case RequestType::kInfo: return "handlers.info";
    case RequestType::kSimImplicit: return "handlers.sim_implicit";
    case RequestType::kRankTile: return "handlers.rank_tile";
    case RequestType::kBestStrategy: return "handlers.best_strategy";
    case RequestType::kStats: break;
  }
  return "handlers.other";
}

std::string describe(const Request& r) {
  return std::string(bcclb::request_type_name(r.type)) + " n=" + std::to_string(r.n) +
         " key=" + bcclb::digest_hex(bcclb::request_cache_key(r));
}

// Sends every request on one connection back to back, then reads the
// answers in order. Throws unless each is OK with a verified digest.
std::vector<Response> pipelined(Conn& conn, const std::vector<Request>& requests) {
  std::string frames;
  for (const Request& r : requests) frames += bcclb::encode_request_frame(r);
  conn.write_all(frames);
  std::vector<Response> responses;
  for (const Request& r : requests) {
    responses.push_back(decode_response_frame(conn.read_frame()));
    if (!response_verified(responses.back())) {
      throw std::runtime_error("set-up request failed: " + describe(r) + ": " +
                               responses.back().artifact);
    }
  }
  return responses;
}

// CPU placement. Each load-generator thread is pinned to one CPU, the last
// CPU first, so it never migrates onto the daemon's CPUs. serve_hot confines
// the daemon to CPU 0: its hit path hands every request from the I/O thread
// to the scheduler thread and back, and on one CPU those hand-offs are local
// switches instead of cross-CPU wake-ups, whose cost on a shared VM moved
// the p99 several-fold between runs. serve_hol leaves the daemon free, since
// its misses need both worker threads. With fewer than three CPUs nothing is
// pinned.
int online_cpus() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }

std::vector<int> hot_daemon_cpus() {
  if (online_cpus() < 3) return {};
  return {0};
}

std::vector<int> load_cpu(std::uint32_t index) {
  const int n = online_cpus();
  if (n < 3) return {};
  return {n - 1 - static_cast<int>(index)};
}

// ---- Closed loop --------------------------------------------------------------

struct ClosedLoopLog {
  std::vector<double> latency_ms;
  std::vector<double> start_ms;  // send time, ms from the window's start
  std::vector<std::uint32_t> picks;
  std::vector<std::uint64_t> digests;
  std::vector<char> ok;  // per op: answered, verified, and (after checks) correct
  std::vector<std::string> errors;
};

std::uint64_t failed_ops(const std::vector<char>& ok) {
  return static_cast<std::uint64_t>(std::count(ok.begin(), ok.end(), 0));
}

// One connection's closed loop with kOutstanding requests in flight: each
// answer releases the next request, until `seconds` have passed. The daemon
// never idles, so the round trip measures the request path rather than
// thread wake-up latency. Every answer must be a verified memory-tier hit.
void closed_loop(const std::vector<Request>& pool, std::uint64_t seed, std::uint32_t conn_index,
                 std::int64_t window_start, double seconds, Tracer& tracer, ClosedLoopLog& log) {
  struct InFlight {
    std::uint32_t pick = 0;
    std::uint64_t id = 0;
    std::int64_t sent_ns = 0;
    Tracer* tracer = nullptr;  // `tracer` for sampled requests, else untraced
    std::int64_t span = -1;
  };
  const ScopedAffinity pin(load_cpu(conn_index));
  Conn conn(kSocket);
  ClosedLoopPicker picker(seed, conn_index, pool.size());
  Tracer untraced(false);
  std::deque<InFlight> in_flight;
  std::uint64_t next_id = static_cast<std::uint64_t>(conn_index) << 40;
  const auto send = [&] {
    InFlight op{picker.next(), ++next_id, now_ns(), nullptr, -1};
    op.tracer = op.id % kTraceSampling == 0 ? &tracer : &untraced;
    op.span = op.tracer->begin("serve.request", op.id);
    std::string frame;
    {
      ScopedSpan s(*op.tracer, "wire.encode_request_frame", op.id, op.span);
      frame = bcclb::encode_request_frame(pool[op.pick]);
    }
    {
      ScopedSpan s(*op.tracer, "socket.write", op.id, op.span);
      conn.write_all(frame);
    }
    in_flight.push_back(op);
  };

  const std::int64_t stop = window_start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t k = 0; k < kOutstanding; ++k) send();
  while (!in_flight.empty()) {
    const InFlight op = in_flight.front();
    in_flight.pop_front();
    std::string reply;
    {
      ScopedSpan s(*op.tracer, "socket.read", op.id, op.span);
      reply = conn.read_frame();
    }
    Response response;
    {
      ScopedSpan s(*op.tracer, "wire.decode_response", op.id, op.span);
      response = decode_response_frame(reply);
    }
    op.tracer->end(op.span);
    const std::int64_t done = now_ns();
    bool ok = false;
    {
      ScopedSpan s(*op.tracer, "client.verify_digest", op.id);
      ok = response_verified(response) && response.source == CacheSource::kHit;
    }
    log.latency_ms.push_back(ns_to_ms(done - op.sent_ns));
    log.start_ms.push_back(ns_to_ms(op.sent_ns - window_start));
    log.picks.push_back(op.pick);
    log.digests.push_back(response.digest);
    log.ok.push_back(ok ? 1 : 0);
    if (!ok) {
      if (log.errors.size() < 5) {
        log.errors.push_back("closed loop: " + describe(pool[op.pick]) + " answered " +
                             bcclb::status_code_name(response.status) + "/" +
                             bcclb::cache_source_name(response.source));
      }
    }
    if (done < stop) send();
  }
}

// Runs closed_loop on kHotConnections threads (this one included) and
// merges their logs and spans.
ClosedLoopLog run_closed_loop(const std::vector<Request>& pool, std::uint64_t seed,
                              double seconds, Tracer& tracer, double& wall_seconds) {
  std::vector<ClosedLoopLog> logs(kHotConnections);
  std::vector<Tracer> tracers(kHotConnections, Tracer(tracer.enabled()));
  std::vector<std::string> fatal(kHotConnections);
  const std::int64_t start = now_ns();
  const auto worker = [&](std::uint32_t c) {
    try {
      closed_loop(pool, seed, c, start, seconds, tracers[c], logs[c]);
    } catch (const std::exception& e) {
      fatal[c] = e.what();
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t c = 1; c < kHotConnections; ++c) threads.emplace_back(worker, c);
  worker(0);
  for (std::thread& t : threads) t.join();
  wall_seconds = seconds_since(start);

  ClosedLoopLog all;
  for (std::uint32_t c = 0; c < kHotConnections; ++c) {
    if (!fatal[c].empty()) throw std::runtime_error("closed loop: " + fatal[c]);
    tracer.merge(tracers[c]);
    all.latency_ms.insert(all.latency_ms.end(), logs[c].latency_ms.begin(), logs[c].latency_ms.end());
    all.start_ms.insert(all.start_ms.end(), logs[c].start_ms.begin(), logs[c].start_ms.end());
    all.picks.insert(all.picks.end(), logs[c].picks.begin(), logs[c].picks.end());
    all.digests.insert(all.digests.end(), logs[c].digests.begin(), logs[c].digests.end());
    all.ok.insert(all.ok.end(), logs[c].ok.begin(), logs[c].ok.end());
    all.errors.insert(all.errors.end(), logs[c].errors.begin(), logs[c].errors.end());
  }
  return all;
}

// ---- Set-up -------------------------------------------------------------------------

struct WarmDaemon {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> hit_artifacts;  // per pool entry, as the warm pass read them
  double setup_s = 0;
};

// Starts a daemon and warms it: every pool entry built cold, then read back
// as a memory-tier hit; with `warm_misses`, one cold miss of every miss
// shape (so no handler runs for the first time inside the timed window);
// then a short closed loop. Everything here counts toward setup_s.
WarmDaemon start_warm_daemon(const RunOptions& options, const std::vector<Request>& pool,
                             bool warm_misses, int setup_index) {
  // warm_misses marks serve_hol, whose daemon is not confined.
  const std::vector<int> cpus = warm_misses ? std::vector<int>{} : hot_daemon_cpus();
  const std::int64_t start = now_ns();
  WarmDaemon warm;
  warm.daemon =
      std::make_unique<Daemon>(options.bcclb_path, kSocket, kDaemonThreads, kDaemonLog, cpus);
  {
    Conn conn(kSocket);
    for (const Response& r : pipelined(conn, pool)) {
      if (r.source == CacheSource::kHit) throw std::runtime_error("a fresh daemon answered a hit");
    }
    for (Response& r : pipelined(conn, pool)) {
      if (r.source != CacheSource::kHit) throw std::runtime_error("warm pool entry missed");
      warm.hit_artifacts.push_back(std::move(r.artifact));
    }
    if (warm_misses) {
      for (std::size_t shape = 0; shape < kMissShapes; ++shape) {
        const Response r = pipelined(conn, {fresh_miss(options.seed, shape, 0)}).front();
        if (r.source != CacheSource::kCold) throw std::runtime_error("warm-up miss was not cold");
      }
    }
  }
  Tracer off(false);
  double wall = 0;
  const ClosedLoopLog log =
      run_closed_loop(pool, derive_seed(options.seed, 50 + setup_index), kWarmLoopSeconds, off, wall);
  if (failed_ops(log.ok) != 0) throw std::runtime_error("warm-up loop: " + log.errors.front());
  warm.setup_s = seconds_since(start);
  return warm;
}

// Sets up kSetups times, each on a fresh daemon (the earlier ones drained),
// and keeps the last; setup_s is the median.
WarmDaemon set_up(const RunOptions& options, const std::vector<Request>& pool, bool warm_misses,
                  RunOutcome& out) {
  std::vector<double> times;
  WarmDaemon warm;
  for (int i = 0; i < kSetups; ++i) {
    if (warm.daemon && warm.daemon->stop() != 0) {
      throw std::runtime_error("set-up daemon did not drain cleanly; see bccd.log");
    }
    warm = start_warm_daemon(options, pool, warm_misses, i);
    times.push_back(warm.setup_s);
  }
  out.e2e("setup_s", median(times), "s");
  return warm;
}

// Reads the daemon's counters and peak RSS, then drains it.
std::map<std::string, double> finish_daemon(WarmDaemon& warm, RunOutcome& out) {
  const std::map<std::string, double> counters = probe_stats(kSocket);
  out.e2e("peak_rss_mib", warm.daemon->peak_rss_mib(), "MiB");
  const int status = warm.daemon->stop();
  if (status != 0) out.fail(0, "daemon exited with status " + std::to_string(status));
  return counters;
}

double counter(const std::map<std::string, double>& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

void daemon_counters(const std::map<std::string, double>& counters, RunOutcome& out) {
  const double hits = counter(counters, "cache_hits");
  const double misses = counter(counters, "cache_misses");
  out.layer("server.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  out.layer("server.coalesced", counter(counters, "coalesced"), "count");
  out.layer("server.queue_full", counter(counters, "rejected_queue_full"), "count");
}

// ---- Checks and layer probes -------------------------------------------------------

// The independent reference: every pool artifact computed in-process. The
// warm pass's hit bytes must equal it; returns the reference artifacts.
std::vector<std::string> check_pool(const std::vector<Request>& pool,
                                    const std::vector<std::string>& hit_artifacts,
                                    Tracer& tracer, RunOutcome& out) {
  std::vector<std::string> refs;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    {
      ScopedSpan s(tracer, handler_span(pool[i].type), i);
      refs.push_back(bcclb::compute_artifact(pool[i], kDaemonThreads));
    }
    // A wrong entry also fails every timed hit on it, through its digest.
    if (refs.back() != hit_artifacts[i]) out.fail(0, "served bytes differ: " + describe(pool[i]));
  }
  return refs;
}

// Every served digest (each already verified against its own bytes) must be
// the reference artifact's digest; an op that fails here stops being ok.
void check_digests(ClosedLoopLog& log, const std::vector<std::string>& refs,
                   const std::vector<Request>& pool, RunOutcome& out) {
  std::vector<std::uint64_t> ref_digests;
  for (const std::string& r : refs) ref_digests.push_back(bcclb::fnv1a(r));
  for (std::size_t k = 0; k < log.picks.size(); ++k) {
    if (log.ok[k] && log.digests[k] != ref_digests[log.picks[k]]) {
      log.ok[k] = 0;
      out.fail(0, "served digest differs from reference: " + describe(pool[log.picks[k]]));
    }
  }
}

// The daemon-side hit path cannot be timed from outside, so the traced run
// times the same public calls in-process on the same requests: the request
// codec, the verified cache lookup, and the response codec.
void probe_hit_path(const std::vector<Request>& pool, const std::vector<std::string>& refs,
                    const std::vector<std::uint32_t>& picks, Tracer& tracer) {
  bcclb::ArtifactCache cache(0);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    cache.insert(bcclb::request_cache_key(pool[i]), refs[i]);
  }
  const std::size_t ops = std::min(picks.size(), kCodecProbeOps);
  for (std::size_t k = 0; k < ops; ++k) {
    const std::uint64_t id = (1ULL << 50) + k;
    ScopedSpan op(tracer, "probe.hit_path", id);
    Request decoded;
    {
      ScopedSpan s(tracer, "wire.req_codec", id, op.index());
      const std::string frame = bcclb::encode_request_frame(pool[picks[k]]);
      const bcclb::FrameHeader header = bcclb::decode_frame_header(frame);
      decoded = bcclb::decode_request(header.type,
                                      std::string_view(frame).substr(bcclb::kFrameHeaderBytes));
    }
    std::optional<std::string> artifact;
    {
      ScopedSpan s(tracer, "artifact_cache.lookup", id, op.index());
      artifact = cache.lookup(bcclb::request_cache_key(decoded));
    }
    if (!artifact) throw std::runtime_error("hit-path probe missed its own cache");
    {
      ScopedSpan s(tracer, "wire.resp_codec", id, op.index());
      const std::string reply = bcclb::encode_ok_frame(decoded.type, CacheSource::kHit,
                                                       bcclb::fnv1a(*artifact), *artifact);
      if (decode_response_frame(reply).artifact.size() != artifact->size()) {
        throw std::runtime_error("hit-path probe: response codec round trip lost bytes");
      }
    }
  }
}

void handler_layers(const Tracer& tracer, RunOutcome& out) {
  for (const char* name : {"handlers.sim_implicit", "handlers.rank_tile", "handlers.best_strategy",
                           "handlers.indist_graph", "handlers.rank"}) {
    out.layer(std::string(name) + "_ms", median_or_zero(tracer.durations_ms(name)), "ms");
  }
}

// Request-path layers from the hit-path probe; residual = the time one hit
// costs the daemon minus codec and lookup (socket, admission, scheduler
// hand-off). `hit_cost_ms` is the idle-hit latency on serve_hol and the
// per-request service time (wall / completed hits) on serve_hot, whose round
// trip also holds the wait behind the other requests in flight.
void hit_path_layers(const Tracer& tracer, double hit_cost_ms, RunOutcome& out) {
  const double req_us = median_or_zero(tracer.durations_ms("wire.req_codec")) * 1e3;
  const double resp_us = median_or_zero(tracer.durations_ms("wire.resp_codec")) * 1e3;
  const double hit_us = median_or_zero(tracer.durations_ms("artifact_cache.lookup")) * 1e3;
  out.layer("wire.req_codec_us", req_us, "us");
  out.layer("wire.resp_codec_us", resp_us, "us");
  out.layer("artifact_cache.hit_us", hit_us, "us");
  out.layer("server.residual_us", hit_cost_ms * 1e3 - req_us - resp_us - hit_us, "us");
}


// p50_ms and tail_ms of the primary op as medians over slices of the
// window; a window too thin for a tail in every slice fails loudly rather
// than reporting a median as a tail.
void primary_latency(const std::string& label, const std::vector<double>& latencies,
                     const std::vector<double>& start_ms, double seconds, double tail_cap,
                     RunOutcome& out) {
  const SlicedSummary s = sliced_summary(latencies, start_ms, seconds * 1e3, tail_cap);
  out.e2e("p50_ms", s.p50, "ms");
  if (!s.tail) {
    out.fail(0, label + ": a slice has too few samples for a tail (" +
                    std::to_string(s.min_slice_count) + ")");
  } else {
    out.e2e("tail_ms", *s.tail, "ms");
  }
  out.report.push_back(label + ": p50_ms and tail_ms (tail capped at p" +
                       std::to_string(static_cast<int>(std::lround(tail_cap * 100))) +
                       ") are medians over " + std::to_string(kSlices) + " slices of " +
                       std::to_string(s.count) + " samples (thinnest slice " +
                       std::to_string(s.min_slice_count) + ", at least " +
                       std::to_string(s.min_beyond) + " samples beyond each slice's tail)");
  report_latency(label + ", whole window", latencies, out);
}

// ---- Open loop --------------------------------------------------------------------

struct OpenLoopLog {
  std::vector<OpenLoopRecord> records;
  std::vector<std::uint64_t> digests;
  std::vector<std::string> miss_artifacts;  // per op; empty for hits
  std::vector<char> ok;  // per op: answered, verified, and (after checks) correct
  std::vector<std::string> errors;
};

// Sends each scheduled op at its due time on its own connection, whatever
// is still outstanding, and timestamps answers as they arrive. One thread.
OpenLoopLog open_loop(const std::vector<ScheduledOp>& schedule, double seconds, Tracer& tracer) {
  std::vector<Conn> conns;
  for (std::uint32_t c = 0; c < kHolConnections; ++c) {
    conns.emplace_back(kSocket);
    conns.back().set_nonblocking();
  }
  const ScopedAffinity pin(load_cpu(0));
  std::vector<std::deque<std::size_t>> in_flight(kHolConnections);
  OpenLoopLog log;
  log.records.resize(schedule.size());
  log.digests.resize(schedule.size());
  log.miss_artifacts.resize(schedule.size());
  log.ok.assign(schedule.size(), 1);

  const std::int64_t origin = now_ns() + 1'000'000;
  const auto due_ns = [&](std::size_t i) {
    return origin + static_cast<std::int64_t>(std::llround(schedule[i].due_ms * 1e6));
  };
  const std::int64_t give_up = origin + static_cast<std::int64_t>((seconds + kDrainSeconds) * 1e9);
  std::size_t next = 0, answered = 0;
  while (answered < schedule.size()) {
    std::int64_t now = now_ns();
    while (next < schedule.size() && due_ns(next) <= now) {
      const ScheduledOp& op = schedule[next];
      OpenLoopRecord& rec = log.records[next];
      rec.due_ms = ns_to_ms(due_ns(next));
      rec.sent_ms = ns_to_ms(now);
      rec.expect_hit = !op.miss;
      conns[op.conn].write_all(bcclb::encode_request_frame(op.request));
      in_flight[op.conn].push_back(next);
      ++next;
      now = now_ns();
    }
    if (now > give_up) {
      throw std::runtime_error("open loop: " + std::to_string(schedule.size() - answered) +
                               " requests unanswered " + std::to_string(kDrainSeconds) +
                               " s after the window");
    }
    pollfd fds[kHolConnections];
    for (std::uint32_t c = 0; c < kHolConnections; ++c) fds[c] = pollfd{conns[c].fd(), POLLIN, 0};
    // Busy-poll: the generator never sleeps, so neither its timer wake-up
    // nor its wake-up on an answer is charged to the daemon.
    const timespec timeout{0, 0};
    if (::ppoll(fds, kHolConnections, &timeout, nullptr) <= 0) continue;
    const std::int64_t arrived = now_ns();
    for (std::uint32_t c = 0; c < kHolConnections; ++c) {
      if (fds[c].revents == 0) continue;
      if (!conns[c].read_available()) throw std::runtime_error("open loop: daemon closed a connection");
      std::string frame;
      while (conns[c].pop_frame(frame)) {
        if (in_flight[c].empty()) throw std::runtime_error("open loop: unsolicited response");
        const std::size_t i = in_flight[c].front();
        in_flight[c].pop_front();
        OpenLoopRecord& rec = log.records[i];
        rec.done_ms = ns_to_ms(arrived);
        const Response response = decode_response_frame(frame);
        rec.source = response.source;
        log.digests[i] = response.digest;
        if (!response_verified(response)) {
          log.ok[i] = 0;
          if (log.errors.size() < 5) {
            log.errors.push_back("open loop: " + describe(schedule[i].request) + " answered " +
                                 bcclb::status_code_name(response.status));
          }
        }
        if (schedule[i].miss) log.miss_artifacts[i] = response.artifact;
        const std::int64_t root = tracer.record("hol.request", i, -1, due_ns(i), arrived);
        tracer.record("loadgen.lateness", i, root, due_ns(i),
                      static_cast<std::int64_t>(std::llround(rec.sent_ms * 1e6)));
        ++answered;
      }
    }
  }
  return log;
}

struct HolWindow {
  OpenLoopLog log;
  HitMissSplit split;
  std::vector<double> hit_due_ms;  // due offset of each split.hit_ms sample
  std::vector<double> lateness_ms;
};

HolWindow run_hol_window(const RunOptions& options, std::uint64_t window,
                         const std::vector<Request>& pool, std::vector<std::size_t>& next_use,
                         std::vector<ScheduledOp>& schedule, Tracer& tracer) {
  schedule = open_loop_schedule(options.seed, window, options.seconds, pool, kHitRate, kMissRate,
                                next_use);
  HolWindow w;
  w.log = open_loop(schedule, options.seconds, tracer);
  w.split = split_hits_and_misses(w.log.records);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (is_hit(w.log.records[i].source)) w.hit_due_ms.push_back(schedule[i].due_ms);
    w.lateness_ms.push_back(lateness_ms(w.log.records[i]));
  }
  return w;
}

// Open-loop checks: the right source, every hit digest equal to the pool
// reference, every miss's bytes equal to an in-process build.
void check_hol_window(HolWindow& w, const std::vector<ScheduledOp>& schedule,
                      const std::vector<std::string>& refs, Tracer& tracer, RunOutcome& out) {
  std::vector<char>& ok = w.log.ok;
  for (const std::string& e : w.log.errors) out.fail(0, e);
  if (w.split.mismatched != 0) {
    out.fail(0, std::to_string(w.split.mismatched) +
                    " answers came from an unexpected tier (hit vs miss)");
  }
  const std::optional<TailPoint> late = tail_point(w.lateness_ms);
  const bool generator_late = late && late->value > kLateGateMs;
  if (generator_late) {
    out.fail(0, "generator ran late: p" + std::to_string(late->percentile) + " lateness " +
                    std::to_string(late->value) + " ms > gate " + std::to_string(kLateGateMs) +
                    " ms");
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledOp& op = schedule[i];
    const OpenLoopRecord& r = w.log.records[i];
    if (is_hit(r.source) != r.expect_hit) ok[i] = 0;
    if (generator_late && lateness_ms(r) > kLateGateMs) ok[i] = 0;
    if (!op.miss) {
      if (ok[i] && w.log.digests[i] != bcclb::fnv1a(refs[op.pool_index])) {
        ok[i] = 0;
        out.fail(0, "served digest differs from reference: " + describe(op.request));
      }
      continue;
    }
    std::string ref;
    {
      ScopedSpan s(tracer, handler_span(op.request.type), i);
      ref = bcclb::compute_artifact(op.request, kDaemonThreads);
    }
    if (ok[i] && ref != w.log.miss_artifacts[i]) {
      ok[i] = 0;
      out.fail(0, "served bytes differ: " + describe(op.request));
    }
  }
  out.attempted += schedule.size();
  out.failed += failed_ops(ok);
}

}  // namespace

// ---- Workloads -----------------------------------------------------------------------

RunOutcome run_serve_hot(const RunOptions& options, Tracer& tracer) {
  RunOutcome out;
  const std::vector<Request> pool = make_pool(options.seed);
  WarmDaemon warm = set_up(options, pool, /*warm_misses=*/false, out);

  Tracer off(false);
  double wall = 0;
  ClosedLoopLog log = run_closed_loop(pool, options.seed, options.seconds, off, wall);
  const LatencySummary rtt = summarize(log.latency_ms);
  primary_latency("serve_hot round trip (all hits)", log.latency_ms, log.start_ms, options.seconds,
                  kHotTailCap, out);
  out.report.push_back("serve_hot ops_per_s=" + std::to_string(static_cast<double>(rtt.count) / wall) +
                       " over " + std::to_string(wall) + " s on " +
                       std::to_string(kHotConnections) + " connections");

  ClosedLoopLog traced;
  if (tracer.enabled()) {
    double traced_wall = 0;
    traced = run_closed_loop(pool, derive_seed(options.seed, 77), options.seconds, tracer, traced_wall);
    trace_overhead(rtt.p50, summarize(traced.latency_ms).p50, out);
  }
  const std::map<std::string, double> counters = finish_daemon(warm, out);

  for (const std::string& e : log.errors) out.fail(0, e);
  for (const std::string& e : traced.errors) out.fail(0, e);
  const std::vector<std::string> refs = check_pool(pool, warm.hit_artifacts, tracer, out);
  check_digests(log, refs, pool, out);
  check_digests(traced, refs, pool, out);
  out.attempted += log.latency_ms.size() + traced.latency_ms.size();
  out.failed += failed_ops(log.ok) + failed_ops(traced.ok);

  if (tracer.enabled()) {
    probe_hit_path(pool, refs, traced.picks, tracer);
    hit_path_layers(tracer, 1e3 * wall / static_cast<double>(rtt.count), out);
    daemon_counters(counters, out);
    handler_layers(tracer, out);
  }
  return out;
}

RunOutcome run_serve_hol(const RunOptions& options, Tracer& tracer) {
  RunOutcome out;
  const std::vector<Request> pool = make_pool(options.seed);
  WarmDaemon warm = set_up(options, pool, /*warm_misses=*/true, out);

  std::vector<std::size_t> next_use(kMissShapes, kFirstMissUse);
  std::vector<ScheduledOp> schedule, traced_schedule;
  Tracer off(false);
  HolWindow w = run_hol_window(options, 0, pool, next_use, schedule, off);
  const LatencySummary hits = summarize(w.split.hit_ms);
  const LatencySummary misses = summarize(w.split.miss_ms);
  primary_latency("serve_hol hits (from due time)", w.split.hit_ms, w.hit_due_ms, options.seconds,
                  kTailCap, out);
  report_latency("serve_hol misses (from due time)", w.split.miss_ms, out);
  out.report.push_back("serve_hol miss_p50_ms=" + std::to_string(misses.p50) + " over " +
                       std::to_string(misses.count) + " fresh-key misses");
  if (misses.count == 0) out.fail(0, "no misses in the window");
  const HolSummary hol = hol_summary(w.log.records);
  out.report.push_back("serve_hol hits behind a miss=" + std::to_string(hol.hol_hits) +
                       " idle hits=" + std::to_string(hol.idle_hits) +
                       " idle_p50_ms=" + std::to_string(hol.idle_p50_ms) +
                       " hol_wait_p50_ms=" + std::to_string(hol.wait_p50_ms) +
                       " generator lateness p50_ms=" + std::to_string(median(w.lateness_ms)));
  std::map<std::string, std::vector<double>> by_type;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].miss) {
      by_type[bcclb::request_type_name(schedule[i].request.type)].push_back(
          latency_ms(w.log.records[i]));
    }
  }
  for (const auto& [type, latencies] : by_type) {
    report_latency(("serve_hol " + type + " misses").c_str(), latencies, out);
    out.report.back() += " max=" + std::to_string(*std::max_element(latencies.begin(), latencies.end())) + " ms";
  }

  HolWindow traced;
  if (tracer.enabled()) {
    traced = run_hol_window(options, 1, pool, next_use, traced_schedule, tracer);
    trace_overhead(hits.p50, summarize(traced.split.hit_ms).p50, out);
  }
  const std::map<std::string, double> counters = finish_daemon(warm, out);

  // Handler spans here come from the timed misses only; the pool's cold
  // builds belong to set-up (serve_hot reports them).
  const std::vector<std::string> refs = check_pool(pool, warm.hit_artifacts, off, out);
  check_hol_window(w, schedule, refs, tracer, out);
  if (tracer.enabled()) {
    check_hol_window(traced, traced_schedule, refs, tracer, out);
    std::vector<std::uint32_t> picks;
    for (const ScheduledOp& op : traced_schedule) {
      if (!op.miss) picks.push_back(op.pool_index);
    }
    probe_hit_path(pool, refs, picks, tracer);
    const HolSummary hol = hol_summary(traced.log.records);
    hit_path_layers(tracer, hol.idle_p50_ms, out);
    out.layer("server.hol_hits", static_cast<double>(hol.hol_hits), "count");
    out.layer("server.hol_wait_p50_ms", hol.wait_p50_ms, "ms");
    daemon_counters(counters, out);
    handler_layers(tracer, out);
    const std::optional<TailPoint> late = tail_point(traced.lateness_ms);
    out.layer("loadgen.late_p99_ms", late ? late->value : 0.0, "ms");
  }
  return out;
}

}  // namespace perfbench
