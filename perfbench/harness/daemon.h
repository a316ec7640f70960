// The process under test for the serve workloads: a real `bcclb serve`
// daemon on a Unix socket, and the harness's socket connections to it.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "serve/wire.h"

namespace perfbench {

// Owns one `bcclb serve --socket S --threads T` child. The destructor stops
// it (SIGTERM drain, then SIGKILL after a bound) and always reaps it.
class Daemon {
 public:
  // Spawns the daemon with stdout/stderr appended to `log_path`, confined to
  // `cpus` (empty: unconfined), and waits until its socket accepts a
  // connection. Throws std::runtime_error if it exits or does not come up
  // within 30 s.
  Daemon(const std::string& bcclb_path, const std::string& socket_path, unsigned threads,
         const std::string& log_path, const std::vector<int>& cpus);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // VmHWM of the daemon in MiB (peak resident set so far).
  double peak_rss_mib() const;

  // Drains and reaps the daemon; returns its exit status (0 = clean
  // drain). Idempotent.
  int stop();

 private:
  pid_t pid_ = -1;
  int status_ = -1;
};

// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double vm_hwm_mib(pid_t pid);

// Confines the calling thread to `cpus` until scope exit, then restores its
// previous mask. Processes spawned meanwhile inherit the confinement. Empty
// `cpus` (or a failing sched_setaffinity) leaves the thread as it was.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const std::vector<int>& cpus);
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

// One client connection speaking BCS1 frames over a Unix socket.
class Conn {
 public:
  explicit Conn(const std::string& socket_path);
  ~Conn();
  Conn(Conn&& other) noexcept : fd_(other.fd_), inbuf_(std::move(other.inbuf_)) {
    other.fd_ = -1;
  }
  Conn& operator=(Conn&&) = delete;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  void set_nonblocking();

  // Blocking write of the whole buffer (also on a nonblocking socket: waits
  // with poll on EAGAIN).
  void write_all(std::string_view bytes);

  // Blocking: reads until one whole frame is buffered and returns its bytes.
  // Throws after kReadTimeoutSeconds without a byte.
  static constexpr int kReadTimeoutSeconds = 60;
  std::string read_frame();

  // Nonblocking: drains what the socket has into the buffer. Returns false
  // on EOF or error.
  bool read_available();
  // Pops one complete frame from the buffer, if any.
  bool pop_frame(std::string& frame);

 private:
  int fd_ = -1;
  std::string inbuf_;
};

// Decodes a whole response frame (header + payload).
bcclb::Response decode_response_frame(std::string_view frame);

// An OK response whose artifact hashes to the digest the frame carries.
bool response_verified(const bcclb::Response& response);

// Sends a kStats probe on a fresh connection and parses the "name = value"
// lines (or "name value" exposition lines) of the artifact into counters,
// keyed by the name with non-alphanumerics folded to '_'.
std::map<std::string, double> probe_stats(const std::string& socket_path);

}  // namespace perfbench
