#include "serve/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/errors.h"

namespace bcclb {

Listener::Listener(std::string_view prefix, std::string unix_path, std::uint16_t tcp_port)
    : unix_path_(std::move(unix_path)), port_(tcp_port) {
  const std::string tag = std::string(prefix) + ": ";
  // Closes whatever was opened so far (the constructor never completes, so
  // the destructor will not) and throws with errno's text appended.
  const auto fail = [&](const std::string& what) {
    const std::string text = tag + what + ": " + std::strerror(errno);
    close();
    throw ServeError(text);
  };

  if (!unix_path_.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path_.size() >= sizeof addr.sun_path) {
      throw ServeError(tag + "unix socket path longer than " +
                       std::to_string(sizeof addr.sun_path - 1) + " bytes");
    }
    std::strncpy(addr.sun_path, unix_path_.c_str(), sizeof addr.sun_path - 1);

    // A stale socket file from a crashed daemon blocks bind(); a live one
    // means another instance is serving. Probe: if anyone accepts, refuse.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      const bool live =
          ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
      ::close(probe);
      if (live) throw ServeError(tag + "'" + unix_path_ + "' is already being served");
    }
    ::unlink(unix_path_.c_str());

    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail("socket");
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      fail("bind '" + unix_path_ + "'");
    }
    owns_unix_path_ = true;
  } else {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail("socket");
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(tcp_port);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      fail("bind 127.0.0.1");
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(fd_, 128) != 0) fail("listen");
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      unix_path_(std::move(other.unix_path_)),
      port_(other.port_),
      owns_unix_path_(std::exchange(other.owns_unix_path_, false)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    unix_path_ = std::move(other.unix_path_);
    port_ = other.port_;
    owns_unix_path_ = std::exchange(other.owns_unix_path_, false);
  }
  return *this;
}

std::string Listener::endpoint() const {
  if (!unix_path_.empty()) return "unix:" + unix_path_;
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (owns_unix_path_) {
    ::unlink(unix_path_.c_str());
    owns_unix_path_ = false;
  }
}

}  // namespace bcclb
