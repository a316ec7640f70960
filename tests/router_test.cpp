// bccr shard router: rendezvous hashing, the per-backend circuit breaker,
// failover, digest-verified relays, the typed all-shards-dead answer, and
// the front-side cases it shares with bccd (daemon_cases.h).
//
// End-to-end tests run real ServeServer backends on ephemeral TCP ports
// behind a real RouterServer, driven through ServeClient — the same path
// `bcclb serve` / `bcclb route` / `bcclb loadgen --router` take. Circuit
// state-machine tests drive BackendPool with explicit synthetic clocks, so
// no transition depends on wall-clock sleeps. Active probing is disabled
// (probe_interval_ms = 0) except where a test is about probing, so health
// transitions happen exactly when the test performs them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "daemon_cases.h"

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "serve/backend_pool.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace bcclb {
namespace {

// ---- helpers ---------------------------------------------------------------

Request classify_request(std::uint32_t n, std::uint64_t packed) {
  Request r;
  r.type = RequestType::kClassify;
  r.n = n;
  r.packed = packed;
  return r;
}

Request indist_request(std::uint32_t n) {
  Request r;
  r.type = RequestType::kIndistGraph;
  r.n = n;
  return r;
}

Request stats_request() {
  Request r;
  r.type = RequestType::kStats;
  return r;
}

// Packed word of the canonical single cycle 0 -> 1 -> ... -> n-1 -> 0.
std::uint64_t ring_word(std::uint32_t n) {
  std::uint64_t packed = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    packed |= static_cast<std::uint64_t>((v + 1) % n) << (4 * v);
  }
  return packed;
}

// A small bag of distinct real requests to pick routing victims from.
std::vector<Request> candidate_requests() {
  std::vector<Request> out;
  for (std::uint32_t n = 4; n <= 12; ++n) out.push_back(classify_request(n, ring_word(n)));
  for (std::uint32_t n = kMinIndistN; n <= kMaxIndistN; ++n) out.push_back(indist_request(n));
  return out;
}

// Binds and runs a real bccd on an ephemeral TCP port; drains on stop().
class RunningBackend {
 public:
  explicit RunningBackend(ServeConfig config = {}) : server_(std::move(config)) {
    server_.bind();
    thread_ = std::thread([this] { stats_ = server_.run(); });
  }
  ~RunningBackend() { stop(); }
  std::uint16_t port() const { return server_.tcp_port(); }
  ServeStats stop() {
    if (thread_.joinable()) {
      server_.begin_drain();
      thread_.join();
    }
    return stats_;
  }

 private:
  ServeServer server_;
  std::thread thread_;
  ServeStats stats_;
};

BackendEndpoint tcp_backend(std::uint16_t port) {
  BackendEndpoint ep;
  ep.tcp_port = port;
  return ep;
}

// Binds and runs a RouterServer over the given backends on an ephemeral TCP
// port. Probing is off by default so tests control every health transition.
class RunningRouter {
 public:
  explicit RunningRouter(RouterConfig config) : router_(std::move(config)) {
    router_.bind();
    thread_ = std::thread([this] { stats_ = router_.run(); });
  }
  ~RunningRouter() { stop(); }
  RouterServer& router() { return router_; }
  ServeClient connect() { return ServeClient::connect_tcp(router_.tcp_port()); }
  RouterStats stop() {
    if (thread_.joinable()) {
      router_.begin_drain();
      thread_.join();
    }
    return stats_;
  }

 private:
  RouterServer router_;
  std::thread thread_;
  RouterStats stats_;
};

RouterConfig router_config(std::vector<std::uint16_t> backend_ports) {
  RouterConfig config;
  for (const std::uint16_t port : backend_ports) config.backends.push_back(tcp_backend(port));
  config.health.probe_interval_ms = 0;  // tests drive health explicitly
  config.health.fail_threshold = 1;
  config.attempt_deadline_ms = 5000;
  return config;
}

// A request whose rendezvous rank puts `backend` first — the deterministic
// victim for failover scenarios.
Request request_owned_by(const BackendPool& pool, std::size_t backend) {
  for (const Request& request : candidate_requests()) {
    if (pool.rank(request_cache_key(request))[0] == backend) return request;
  }
  ADD_FAILURE() << "no candidate request hashes to backend " << backend;
  return stats_request();
}

// ---- endpoint parsing ------------------------------------------------------

TEST(BackendEndpoint, ParsesUnixAndTcpForms) {
  const auto unix_ep = parse_backend_endpoint("unix:/tmp/bccd.sock");
  ASSERT_TRUE(unix_ep.has_value());
  EXPECT_EQ(unix_ep->unix_path, "/tmp/bccd.sock");
  EXPECT_EQ(unix_ep->to_string(), "unix:/tmp/bccd.sock");

  const auto tcp_ep = parse_backend_endpoint("tcp:4321");
  ASSERT_TRUE(tcp_ep.has_value());
  EXPECT_EQ(tcp_ep->tcp_port, 4321);
  EXPECT_EQ(tcp_ep->to_string(), "tcp:4321");
}

TEST(BackendEndpoint, RejectsMalformedSpecs) {
  for (const char* bad : {"", "unix:", "tcp:", "tcp:0", "tcp:65536", "tcp:12x", "tcp:-1",
                          "http://x", "4321", "/tmp/plain.sock"}) {
    EXPECT_FALSE(parse_backend_endpoint(bad).has_value()) << bad;
  }
}

// ---- rendezvous hashing ----------------------------------------------------

TEST(Rendezvous, RankIsADeterministicPermutation) {
  BackendPool pool({tcp_backend(1), tcp_backend(2), tcp_backend(3), tcp_backend(4)}, {});
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const std::vector<std::size_t> order = pool.rank(key);
    EXPECT_EQ(order, pool.rank(key));  // pure in the key
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()),
              (std::set<std::size_t>{0, 1, 2, 3}));
    // The ranking really is by descending score.
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_GE(rendezvous_score(key, order[i - 1]), rendezvous_score(key, order[i]));
    }
  }
}

TEST(Rendezvous, OwnershipIsRoughlyBalanced) {
  BackendPool pool(std::vector<BackendEndpoint>(5, tcp_backend(1)), {});
  std::vector<int> owned(5, 0);
  const int kKeys = 5000;
  for (int k = 0; k < kKeys; ++k) {
    ++owned[pool.rank(0x9e3779b97f4a7c15ULL * (k + 1))[0]];
  }
  for (int count : owned) {
    // Expected 1000 per backend; a factor-2 band is far outside noise for a
    // working mixer and far inside it for a broken one.
    EXPECT_GT(count, 500);
    EXPECT_LT(count, 2000);
  }
}

TEST(Rendezvous, RemovingABackendOnlyRemapsItsOwnKeys) {
  BackendPool pool({tcp_backend(1), tcp_backend(2), tcp_backend(3), tcp_backend(4)}, {});
  for (std::uint64_t key = 1; key <= 256; ++key) {
    const std::vector<std::size_t> order = pool.rank(key);
    const std::size_t owner = order[0];
    // Keys not owned by the "removed" backend keep their owner; the removed
    // backend's keys fall to their second choice — the failover invariant
    // that preserves the rest of the fleet's cache locality.
    for (std::size_t removed = 0; removed < 4; ++removed) {
      std::size_t surviving_owner = order[0] == removed ? order[1] : order[0];
      if (removed != owner) {
        EXPECT_EQ(surviving_owner, owner);
      }
    }
  }
}

// ---- circuit breaker (synthetic clock, no I/O) ------------------------------

BackendPolicy breaker_policy(unsigned fail_threshold = 3) {
  BackendPolicy policy;
  policy.fail_threshold = fail_threshold;
  policy.open_cooldown_ms = 50;
  policy.probe_interval_ms = 0;
  return policy;
}

TEST(CircuitBreaker, OpensAfterThresholdThenHalfOpensAndReadmits) {
  BackendPool pool({tcp_backend(1), tcp_backend(2)}, breaker_policy(3));
  const std::uint64_t t0 = 1'000'000'000ULL;

  pool.record_failure(0, t0);
  pool.record_failure(0, t0);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);  // under threshold
  EXPECT_TRUE(pool.admits(0));

  pool.record_failure(0, t0);
  EXPECT_EQ(pool.state(0), BackendState::kOpen);
  EXPECT_FALSE(pool.admits(0));
  EXPECT_TRUE(pool.admits(1));  // the breaker is per-backend

  // Cooldown not yet elapsed: stays open.
  EXPECT_FALSE(pool.tick(0, t0 + 49'000'000ULL));
  EXPECT_EQ(pool.state(0), BackendState::kOpen);

  // Cooldown elapsed: probation, and probation admits traffic.
  EXPECT_TRUE(pool.tick(0, t0 + 50'000'000ULL));
  EXPECT_EQ(pool.state(0), BackendState::kHalfOpen);
  EXPECT_TRUE(pool.admits(0));

  pool.record_success(0);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);

  const std::vector<BackendSnapshot> snapshot = pool.snapshot();
  EXPECT_EQ(snapshot[0].counters.circuit_opened, 1u);
  EXPECT_EQ(snapshot[0].counters.circuit_half_open, 1u);
  EXPECT_EQ(snapshot[0].counters.circuit_closed, 1u);
  EXPECT_EQ(snapshot[1].counters.circuit_opened, 0u);
}

TEST(CircuitBreaker, HalfOpenFailureReopensImmediately) {
  BackendPool pool({tcp_backend(1)}, breaker_policy(2));
  const std::uint64_t t0 = 1'000'000'000ULL;
  pool.record_failure(0, t0);
  pool.record_failure(0, t0);
  ASSERT_EQ(pool.state(0), BackendState::kOpen);
  ASSERT_TRUE(pool.tick(0, t0 + 50'000'000ULL));

  // One failure in probation is enough — no second threshold to climb.
  pool.record_failure(0, t0 + 51'000'000ULL);
  EXPECT_EQ(pool.state(0), BackendState::kOpen);
  EXPECT_EQ(pool.snapshot()[0].counters.circuit_opened, 2u);

  // And the cooldown restarts from the re-open.
  EXPECT_FALSE(pool.tick(0, t0 + 52'000'000ULL));
  EXPECT_TRUE(pool.tick(0, t0 + 101'000'000ULL));
  pool.record_success(0);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveFailureCount) {
  BackendPool pool({tcp_backend(1)}, breaker_policy(3));
  const std::uint64_t t0 = 1'000'000'000ULL;
  pool.record_failure(0, t0);
  pool.record_failure(0, t0);
  pool.record_success(0);  // sporadic failures never accumulate
  pool.record_failure(0, t0);
  pool.record_failure(0, t0);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);
  pool.record_failure(0, t0);
  EXPECT_EQ(pool.state(0), BackendState::kOpen);
}

// ---- probing against a real backend ----------------------------------------

TEST(BackendPool, ProbeDiscoversDeathAndRecovery) {
  const std::string path =
      "/tmp/bcclb_router_probe_" + std::to_string(::getpid()) + ".sock";
  ServeConfig backend_config;
  backend_config.unix_path = path;
  auto backend = std::make_unique<RunningBackend>(backend_config);

  BackendEndpoint ep;
  ep.unix_path = path;
  BackendPolicy policy = breaker_policy(2);
  policy.probe_deadline_ms = 2000;
  BackendPool pool({ep}, policy);

  std::uint64_t now = 1'000'000'000ULL;
  pool.probe_once(now);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);
  EXPECT_GE(pool.snapshot()[0].counters.probes_ok, 1u);

  // Kill the daemon; two failed probes open the circuit.
  backend->stop();
  backend.reset();
  pool.probe_once(now += 1'000'000ULL);
  pool.probe_once(now += 1'000'000ULL);
  EXPECT_EQ(pool.state(0), BackendState::kOpen);

  // While open, probes do not dial at all (the count stays put).
  const std::uint64_t probes_before = pool.snapshot()[0].counters.probes_failed;
  pool.probe_once(now += 1'000'000ULL);
  EXPECT_EQ(pool.snapshot()[0].counters.probes_failed, probes_before);

  // Restart on the same socket path; after the cooldown the next probe pass
  // half-opens and immediately re-admits.
  backend = std::make_unique<RunningBackend>(backend_config);
  pool.probe_once(now += policy.open_cooldown_ms * 1'000'000ULL);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);
  EXPECT_GE(pool.snapshot()[0].counters.circuit_closed, 1u);
}

// ---- routing end-to-end -----------------------------------------------------

TEST(Router, RelaysByteIdenticalArtifacts) {
  RunningBackend b0, b1;
  RunningRouter router(router_config({b0.port(), b1.port()}));

  const Request request = classify_request(6, ring_word(6));
  ServeClient direct = ServeClient::connect_tcp(b0.port());
  const Response want = direct.request(request);
  ASSERT_EQ(want.status, StatusCode::kOk);

  ServeClient client = router.connect();
  const Response got = client.request(request);
  ASSERT_EQ(got.status, StatusCode::kOk);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.artifact, want.artifact);  // byte identity through the router
  EXPECT_EQ(fnv1a(got.artifact), got.digest);

  const RouterStats stats = router.stop();
  EXPECT_EQ(stats.requests_routed, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
  EXPECT_EQ(stats.digest_rejected, 0u);
}

TEST(Router, StatsProbeAnswersInlineWithRouterCounters) {
  RunningBackend b0;
  RunningRouter router(router_config({b0.port()}));
  ServeClient client = router.connect();
  client.request(classify_request(5, ring_word(5)));

  const Response stats = client.request(stats_request());
  ASSERT_EQ(stats.status, StatusCode::kOk);
  EXPECT_EQ(fnv1a(stats.artifact), stats.digest);
  EXPECT_EQ(stats.artifact.rfind("bccr stats\n", 0), 0u);  // the router's own artifact
  EXPECT_NE(stats.artifact.find("requests routed = 1"), std::string::npos);
  EXPECT_NE(stats.artifact.find("backend 0 tcp:" + std::to_string(b0.port())),
            std::string::npos);
}

TEST(Router, FailsOverWhenThePrimaryShardDies) {
  RunningBackend b0, b1;
  RunningRouter router(router_config({b0.port(), b1.port()}));
  const Request victim = request_owned_by(router.router().pool(), 0);

  b0.stop();  // rank-0 shard for `victim` is now gone

  ServeClient client = router.connect();
  const Response response = client.request(victim);
  ASSERT_EQ(response.status, StatusCode::kOk);  // served by the surviving shard
  EXPECT_EQ(fnv1a(response.artifact), response.digest);

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.no_backend, 0u);
  // fail_threshold is 1 in router_config: the single failed attempt opened
  // the dead shard's circuit.
  EXPECT_EQ(stats.backends[0].state, BackendState::kOpen);
  EXPECT_GE(stats.backends[0].counters.circuit_opened, 1u);
}

TEST(Router, AllShardsDeadYieldsTypedNoBackendNotAHang) {
  RunningBackend b0;
  RouterConfig config = router_config({b0.port()});
  config.attempt_deadline_ms = 1000;
  RunningRouter router(config);
  b0.stop();

  ServeClient client = router.connect();
  const auto t0 = std::chrono::steady_clock::now();
  const Response response = client.request(classify_request(6, ring_word(6)));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(response.status, StatusCode::kNoBackend);
  EXPECT_NE(response.artifact.find("no live backend"), std::string::npos);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);

  // The second request finds the circuit already open: no dial, instant
  // typed answer.
  const auto t1 = std::chrono::steady_clock::now();
  const Response again = client.request(classify_request(7, ring_word(7)));
  const auto fast = std::chrono::steady_clock::now() - t1;
  EXPECT_EQ(again.status, StatusCode::kNoBackend);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(fast).count(), 500);

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.no_backend, 2u);
}

TEST(Router, RetryNoBackendConsumesTheRetryBudget) {
  RunningBackend b0;
  RouterConfig config = router_config({b0.port()});
  config.attempt_deadline_ms = 500;
  RunningRouter router(config);
  b0.stop();

  ServeClient client = router.connect();
  ClientRetryPolicy policy;
  policy.max_retries = 2;
  policy.deadline_ms = 3000;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 2;
  policy.retry_no_backend = true;
  const RetryOutcome outcome = client.request_with_retry(classify_request(6, ring_word(6)),
                                                         policy);
  EXPECT_EQ(outcome.response.status, StatusCode::kNoBackend);
  EXPECT_EQ(outcome.retries, 2u);  // the budget was spent on NoBackend answers

  // Without opting in, NoBackend is terminal: no retries burned.
  ClientRetryPolicy no_opt_in = policy;
  no_opt_in.retry_no_backend = false;
  const RetryOutcome terminal =
      client.request_with_retry(classify_request(7, ring_word(7)), no_opt_in);
  EXPECT_EQ(terminal.response.status, StatusCode::kNoBackend);
  EXPECT_EQ(terminal.retries, 0u);
}

TEST(Router, CorruptArtifactsAreRejectedByDigestAndFailedOver) {
  ServeConfig corrupt_config;
  corrupt_config.faults.seed = 11;
  corrupt_config.faults.corrupt_response_every = 1;  // every artifact flips a byte
  RunningBackend corrupt(corrupt_config);
  RunningBackend clean;
  RouterConfig config = router_config({corrupt.port(), clean.port()});
  config.health.fail_threshold = 100;  // keep the corrupt shard admitted
  RunningRouter router(config);
  const Request victim = request_owned_by(router.router().pool(), 0);

  ServeClient client = router.connect();
  const Response response = client.request(victim);
  ASSERT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(fnv1a(response.artifact), response.digest);  // the clean shard's bytes

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.digest_rejected, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
}

TEST(Router, OversizedFrameIsSkippedWithoutDroppingTheConnection) {
  RunningBackend b0;
  RunningRouter router(router_config({b0.port()}));
  daemon_cases::oversized_frame_is_skipped_without_dropping_the_connection(
      router, classify_request(6, ring_word(6)));
}

TEST(Router, BadMagicGetsOneErrorFrameThenClose) {
  RunningBackend b0;
  RunningRouter router(router_config({b0.port()}));
  daemon_cases::bad_magic_gets_one_error_frame_then_close(router);
}

TEST(Router, UnixSocketReclaimsStaleFilesAndRefusesLiveOnes) {
  RunningBackend b0;
  const std::string path =
      "/tmp/bcclb_router_test_" + std::to_string(::getpid()) + ".sock";
  daemon_cases::unix_socket_reclaims_stale_files_and_refuses_live_ones<RunningRouter,
                                                                       RouterServer>(
      path,
      [&b0](const std::string& unix_path) {
        RouterConfig config = router_config({b0.port()});
        config.unix_path = unix_path;
        return config;
      },
      classify_request(6, ring_word(6)));
}

TEST(Router, DrainAnswersTypedDrainingThenExits) {
  RunningBackend b0;
  RunningRouter router(router_config({b0.port()}));
  ServeClient client = router.connect();
  const Response before = client.request(classify_request(6, ring_word(6)));
  ASSERT_EQ(before.status, StatusCode::kOk);

  router.router().begin_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const Response during = client.request(classify_request(7, ring_word(7)));
  EXPECT_EQ(during.status, StatusCode::kDraining);

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.draining_rejected, 1u);
}

}  // namespace
}  // namespace bcclb
