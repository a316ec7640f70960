// The listening socket both daemons (bccd and bccr) serve on.
//
// One owner for the endpoint policy: a non-empty unix_path listens on a
// Unix-domain socket, otherwise on TCP 127.0.0.1:tcp_port (0 = kernel-
// assigned, read back with tcp_port()). On a unix path a live socket means
// another instance is serving and is refused; a dead file left by a crash
// is unlinked and reclaimed. The socket is non-blocking and close-on-exec,
// with a backlog of 128. close() (and the destructor) unlinks the path only
// when this listener created it, so a refused second instance never removes
// the first one's socket.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace bcclb {

class Listener {
 public:
  Listener() = default;
  // Binds and listens. Error texts start with "<prefix>: " (the daemon's
  // name, e.g. "serve" or "route"). Throws ServeError.
  Listener(std::string_view prefix, std::string unix_path, std::uint16_t tcp_port);
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  // The bound TCP port (0 on a unix socket); still readable after close().
  std::uint16_t tcp_port() const { return port_; }
  // "unix:<path>" or "tcp:127.0.0.1:<port>", for logs.
  std::string endpoint() const;

  // Stops listening and unlinks the socket file if this listener made it.
  // Idempotent.
  void close();

 private:
  int fd_ = -1;
  std::string unix_path_;
  std::uint16_t port_ = 0;
  bool owns_unix_path_ = false;
};

}  // namespace bcclb
