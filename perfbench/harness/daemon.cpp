#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bcc/checkpoint.h"

extern char** environ;

namespace perfbench {

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("connect(" + path + "): " + std::strerror(err));
  }
  return fd;
}

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

}  // namespace

// ---- Daemon -------------------------------------------------------------------

Daemon::Daemon(const std::string& bcclb_path, const std::string& socket_path, unsigned threads,
               const std::string& log_path, const std::vector<int>& cpus) {
  ::unlink(socket_path.c_str());
  const std::string threads_text = std::to_string(threads);
  std::vector<std::string> args = {bcclb_path,   "serve",          "--socket",
                                   socket_path,  "--threads",      threads_text,
                                   "--cache-budget", "256M"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  int rc = 0;
  {
    const ScopedAffinity confined(cpus);
    rc = posix_spawn(&pid_, bcclb_path.c_str(), &actions, nullptr, argv.data(), environ);
  }
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + bcclb_path + ": " + std::strerror(rc));
  }

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("bcclb serve exited during start-up; see " + log_path);
    }
    try {
      ::close(connect_unix(socket_path));
      return;
    } catch (const std::runtime_error&) {
      if (std::chrono::steady_clock::now() > deadline) {
        stop();
        throw std::runtime_error("bcclb serve did not accept on " + socket_path + " in 30 s");
      }
      sleep_ms(2);
    }
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mib() const { return vm_hwm_mib(pid_); }

int Daemon::stop() {
  if (pid_ < 0) return status_;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int status = 0;
  for (;;) {
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_) break;
    if (got < 0 && errno != EINTR) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    sleep_ms(2);
  }
  pid_ = -1;
  status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return status_;
}

double vm_hwm_mib(pid_t pid) {
  const std::string path = pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

ScopedAffinity::ScopedAffinity(const std::vector<int>& cpus) {
  if (cpus.empty() || ::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  active_ = ::sched_setaffinity(0, sizeof set, &set) == 0;
}

ScopedAffinity::~ScopedAffinity() {
  if (active_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

// ---- Conn ---------------------------------------------------------------------

Conn::Conn(const std::string& socket_path) : fd_(connect_unix(socket_path)) {}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::set_nonblocking() {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

void Conn::write_all(std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, 1000);
    } else {
      throw std::runtime_error("send(): " + std::string(std::strerror(errno)));
    }
  }
}

bool Conn::read_available() {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) return true;
    } else if (n == 0) {
      return false;
    } else if (errno == EINTR) {
      continue;
    } else {
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }
}

bool Conn::pop_frame(std::string& frame) {
  if (inbuf_.size() < bcclb::kFrameHeaderBytes) return false;
  const bcclb::FrameHeader header = bcclb::decode_frame_header(inbuf_);
  const std::size_t total = bcclb::kFrameHeaderBytes + header.payload_len;
  if (inbuf_.size() < total) return false;
  frame.assign(inbuf_, 0, total);
  inbuf_.erase(0, total);
  return true;
}

std::string Conn::read_frame() {
  std::string frame;
  int idle_polls = 0;
  while (!pop_frame(frame)) {
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, 1000) == 0 && ++idle_polls >= kReadTimeoutSeconds) {
      throw std::runtime_error("no response from the daemon in " +
                               std::to_string(kReadTimeoutSeconds) + " s");
    }
    if (!read_available()) throw std::runtime_error("connection closed by the daemon");
  }
  return frame;
}

bcclb::Response decode_response_frame(std::string_view frame) {
  const bcclb::FrameHeader header = bcclb::decode_frame_header(frame);
  return bcclb::decode_response(header, frame.substr(bcclb::kFrameHeaderBytes));
}

bool response_verified(const bcclb::Response& response) {
  return response.status == bcclb::StatusCode::kOk &&
         bcclb::fnv1a(response.artifact) == response.digest;
}

std::map<std::string, double> probe_stats(const std::string& socket_path) {
  Conn conn(socket_path);
  bcclb::Request probe;
  probe.type = bcclb::RequestType::kStats;
  conn.write_all(bcclb::encode_request_frame(probe));
  const bcclb::Response response = decode_response_frame(conn.read_frame());
  if (!response_verified(response)) throw std::runtime_error("stats probe failed");

  std::map<std::string, double> counters;
  std::istringstream lines(response.artifact);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t split = line.find(" = ");
    std::size_t value_at = split == std::string::npos ? std::string::npos : split + 3;
    if (split == std::string::npos) {
      split = line.rfind(' ');
      if (split == std::string::npos) continue;
      value_at = split + 1;
    }
    std::string key;
    for (char c : line.substr(0, split)) {
      key.push_back(std::isalnum(static_cast<unsigned char>(c)) ? static_cast<char>(std::tolower(c)) : '_');
    }
    try {
      counters[key] = std::stod(line.substr(value_at));
    } catch (const std::exception&) {
      // Non-numeric lines ("draining = no") are not counters.
    }
  }
  return counters;
}

}  // namespace perfbench
