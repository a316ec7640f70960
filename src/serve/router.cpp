#include "serve/router.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "serve/client.h"

namespace bcclb {

namespace {

ServeClient dial(const BackendEndpoint& endpoint) {
  return endpoint.unix_path.empty() ? ServeClient::connect_tcp(endpoint.tcp_port)
                                    : ServeClient::connect_unix(endpoint.unix_path);
}

// Blocking send of a whole frame to the (non-blocking) client socket.
// Returns false when the client is gone — the connection closes.
bool send_to_client(int fd, std::string_view frame) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) return false;
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

struct RouterServer::ConnCtx {
  // Cached data-path connection per backend id; dropped on any transport
  // failure so the next attempt redials a possibly-restarted daemon.
  std::vector<std::unique_ptr<ServeClient>> clients;
};

RouterServer::RouterServer(RouterConfig config)
    : config_(std::move(config)), pool_(config_.backends, config_.health) {
  if (config_.backends.empty()) throw ServeError("route: no backends configured");
  if (config_.attempt_deadline_ms == 0) {
    throw ServeError("route: attempt_deadline_ms must be > 0 (failover needs bounded attempts)");
  }
}

RouterServer::~RouterServer() { pool_.stop_probing(); }

void RouterServer::bind() {
  if (listener_.is_open()) throw ServeError("route: already bound");
  listener_ = Listener("route", config_.unix_path, config_.tcp_port);
}

void RouterServer::begin_drain() { drain_requested_.store(true, std::memory_order_relaxed); }

bool RouterServer::drain_now() const {
  if (drain_requested_.load(std::memory_order_relaxed)) return true;
  return config_.drain_flag != nullptr && *config_.drain_flag != 0;
}

std::string RouterServer::render_stats() const {
  std::string out = "bccr stats\n";
  const auto line = [&out](const char* name, std::uint64_t v) {
    out += name;
    out += " = ";
    out += std::to_string(v);
    out += "\n";
  };
  out += std::string("draining = ") + (drain_now() ? "yes" : "no") + "\n";
  line("backends", pool_.size());
  line("connections accepted", connections_accepted_.load(std::memory_order_relaxed));
  line("connections rejected", connections_rejected_.load(std::memory_order_relaxed));
  line("requests routed", requests_routed_.load(std::memory_order_relaxed));
  line("responses ok", responses_ok_.load(std::memory_order_relaxed));
  line("responses error", responses_error_.load(std::memory_order_relaxed));
  line("failovers", failovers_.load(std::memory_order_relaxed));
  line("digest rejected", digest_rejected_.load(std::memory_order_relaxed));
  line("no backend", no_backend_.load(std::memory_order_relaxed));
  line("stats probes", stats_probes_.load(std::memory_order_relaxed));
  line("protocol violations", protocol_violations_.load(std::memory_order_relaxed));
  line("rejected too-large", too_large_.load(std::memory_order_relaxed));
  line("rejected draining", draining_rejected_.load(std::memory_order_relaxed));
  const std::vector<BackendSnapshot> backends = pool_.snapshot();
  for (std::size_t id = 0; id < backends.size(); ++id) {
    const BackendSnapshot& b = backends[id];
    out += "backend " + std::to_string(id) + " " + b.endpoint.to_string() +
           " state=" + backend_state_name(b.state) +
           " routed=" + std::to_string(b.counters.routed) +
           " ok=" + std::to_string(b.counters.ok) +
           " failures=" + std::to_string(b.counters.failures) +
           " probes-ok=" + std::to_string(b.counters.probes_ok) +
           " probes-failed=" + std::to_string(b.counters.probes_failed) +
           " opened=" + std::to_string(b.counters.circuit_opened) +
           " half-open=" + std::to_string(b.counters.circuit_half_open) +
           " readmitted=" + std::to_string(b.counters.circuit_closed) + "\n";
  }
  return out;
}

std::optional<RouterServer::RouteResult> RouterServer::attempt_backend(const Request& request,
                                                                       std::size_t id,
                                                                       ConnCtx& ctx) {
  pool_.count_routed(id);
  std::unique_ptr<ServeClient>& client = ctx.clients[id];
  try {
    if (client == nullptr) client = std::make_unique<ServeClient>(dial(pool_.endpoint(id)));
    ClientRetryPolicy policy;
    policy.max_retries = 0;  // retries across shards are route()'s job
    policy.deadline_ms = config_.attempt_deadline_ms;
    policy.retry_queue_full = false;
    const RetryOutcome out = client->request_with_retry(request, policy);
    const Response& resp = out.response;
    if (resp.status == StatusCode::kOk) {
      if (fnv1a(resp.artifact) != resp.digest) {
        // A corrupt artifact must never be relayed: treat the shard as
        // failing and let failover fetch the byte-identical answer elsewhere.
        digest_rejected_.fetch_add(1, std::memory_order_relaxed);
        pool_.record_failure(id, steady_now_ns());
        client.reset();
        return std::nullopt;
      }
      pool_.record_success(id);
      return RouteResult{encode_ok_frame(resp.type, resp.source, resp.digest, resp.artifact),
                         true};
    }
    // A decoded non-OK answer proves the shard is alive; its verdict
    // (QueueFull, Draining, ...) is relayed verbatim — backpressure is the
    // client's business, not a reason to eject the shard.
    pool_.record_success(id);
    return RouteResult{encode_error_frame(resp.type, resp.status, resp.artifact), false};
  } catch (const ServeError&) {
    // Dial refused, timeout, EOF mid-frame, undecodable response: the shard
    // is unreachable or unwell. Feed the circuit breaker and fail over.
    pool_.record_failure(id, steady_now_ns());
    client.reset();
    return std::nullopt;
  }
}

RouterServer::RouteResult RouterServer::route(const Request& request, std::uint64_t key,
                                              ConnCtx& ctx) {
  requests_routed_.fetch_add(1, std::memory_order_relaxed);
  bool any_failed = false;
  for (const std::size_t id : pool_.rank(key)) {
    if (!pool_.admits(id)) continue;
    if (any_failed) failovers_.fetch_add(1, std::memory_order_relaxed);
    std::optional<RouteResult> result = attempt_backend(request, id, ctx);
    if (!result.has_value()) {
      any_failed = true;
      continue;
    }
    if (result->ok) {
      responses_ok_.fetch_add(1, std::memory_order_relaxed);
    } else {
      responses_error_.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(*result);
  }

  // Every shard was circuit-open or failed the attempt: a typed, immediate
  // answer — the cluster-down story is a retryable error, never a hang.
  no_backend_.fetch_add(1, std::memory_order_relaxed);
  responses_error_.fetch_add(1, std::memory_order_relaxed);
  return RouteResult{
      encode_error_frame(request.type, StatusCode::kNoBackend,
                         "no live backend: all " + std::to_string(pool_.size()) +
                             " shard(s) circuit-open or failing"),
      false};
}

void RouterServer::conn_main(int fd) {
  ConnCtx ctx;
  ctx.clients.resize(pool_.size());
  FrameReader reader(config_.max_request_bytes);
  std::uint64_t drain_close_ns = 0;
  bool open = true;
  char buf[4096];

  while (open) {
    if (drain_now()) {
      // Linger briefly so a request already on the wire gets its typed
      // Draining answer instead of a reset, then close.
      const std::uint64_t now = steady_now_ns();
      if (drain_close_ns == 0) {
        drain_close_ns = now + 500'000'000ULL;
      } else if (now >= drain_close_ns) {
        break;
      }
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r == 0) break;  // client hung up
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    reader.append(std::string_view(buf, static_cast<std::size_t>(r)));

    while (open) {
      const FrameReader::Next next = reader.next();
      if (next.kind == FrameReader::Next::Kind::kNeedMore) break;
      if (next.kind == FrameReader::Next::Kind::kReject) {
        if (next.status == StatusCode::kRequestTooLarge) {
          too_large_.fetch_add(1, std::memory_order_relaxed);
        } else {
          protocol_violations_.fetch_add(1, std::memory_order_relaxed);
        }
        open = send_to_client(fd, next.reply) && !next.close_after;
        continue;
      }

      const RequestType type = static_cast<RequestType>(next.header.type);
      std::string reply;
      if (type == RequestType::kStats) {
        stats_probes_.fetch_add(1, std::memory_order_relaxed);
        const std::string artifact = render_stats();
        reply = encode_ok_frame(type, CacheSource::kCold, fnv1a(artifact), artifact);
      } else if (drain_now()) {
        draining_rejected_.fetch_add(1, std::memory_order_relaxed);
        reply = encode_error_frame(type, StatusCode::kDraining,
                                   "router is draining; request not admitted");
      } else {
        try {
          const Request request = decode_request(next.header.type, next.payload);
          reply = route(request, request_cache_key(request), ctx).frame;
        } catch (const ProtocolViolationError& e) {
          protocol_violations_.fetch_add(1, std::memory_order_relaxed);
          reply = encode_error_frame(type, StatusCode::kProtocolViolation, e.what());
        }
      }
      if (!send_to_client(fd, reply)) open = false;
    }
  }

  ::close(fd);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

RouterStats RouterServer::run() {
  if (!listener_.is_open()) throw ServeError("route: run() before bind()");
  pool_.start_probing();

  struct ConnThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<ConnThread> conns;
  const auto reap_finished = [&conns] {
    for (std::size_t i = 0; i < conns.size();) {
      if (conns[i].done->load(std::memory_order_relaxed)) {
        conns[i].thread.join();
        conns[i] = std::move(conns.back());
        conns.pop_back();
      } else {
        ++i;
      }
    }
  };

  while (!drain_now()) {
    reap_finished();
    pollfd pfd{listener_.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      pool_.stop_probing();
      throw ServeError(std::string("route: poll: ") + std::strerror(errno));
    }
    if (rc == 0) continue;
    for (;;) {
      const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;
      if (active_connections_.load(std::memory_order_relaxed) >= config_.max_connections) {
        connections_rejected_.fetch_add(1, std::memory_order_relaxed);
        ::close(fd);
        continue;
      }
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      active_connections_.fetch_add(1, std::memory_order_relaxed);
      auto done = std::make_shared<std::atomic<bool>>(false);
      conns.push_back(ConnThread{std::thread([this, fd, done] {
                                   conn_main(fd);
                                   done->store(true, std::memory_order_relaxed);
                                 }),
                                 done});
    }
  }

  drain_requested_.store(true, std::memory_order_relaxed);
  listener_.close();
  for (ConnThread& conn : conns) conn.thread.join();
  pool_.stop_probing();

  RouterStats stats;
  stats.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  stats.requests_routed = requests_routed_.load(std::memory_order_relaxed);
  stats.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  stats.responses_error = responses_error_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.digest_rejected = digest_rejected_.load(std::memory_order_relaxed);
  stats.no_backend = no_backend_.load(std::memory_order_relaxed);
  stats.stats_probes = stats_probes_.load(std::memory_order_relaxed);
  stats.protocol_violations = protocol_violations_.load(std::memory_order_relaxed);
  stats.too_large = too_large_.load(std::memory_order_relaxed);
  stats.draining_rejected = draining_rejected_.load(std::memory_order_relaxed);
  stats.backends = pool_.snapshot();
  return stats;
}

}  // namespace bcclb
