// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only in the harness, around its calls into the
// program's layers: name, start, end, the span that caused it, and an id
// shared by every span of one request (or job, or cell). Nothing is written
// until the run ends; write_jsonl() then dumps one JSON object per span.
// A disabled tracer records nothing, so the same code path serves the
// untraced end-to-end run.
//
// One Tracer per thread; merge() folds a worker's spans into the main one
// after the worker is joined.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Span {
  const char* name = "";   // static string: a layer call, e.g. "wire.decode_request"
  std::uint64_t id = 0;    // shared by all spans of one request / job / cell
  std::int64_t parent = -1;  // index of the causing span in the same tracer, or -1
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span; returns its index, or -1 when disabled.
  std::int64_t record(const char* name, std::uint64_t id, std::int64_t parent,
                      std::int64_t start_ns, std::int64_t end_ns);

  // Opens a span now (its index can parent later spans); end() closes it.
  // Both are no-ops when disabled (begin returns -1).
  std::int64_t begin(const char* name, std::uint64_t id, std::int64_t parent = -1);
  void end(std::int64_t span);

  // Appends another tracer's spans, re-basing their parent indices.
  void merge(const Tracer& other);

  // Durations in ms of every span named `name`.
  std::vector<double> durations_ms(std::string_view name) const;

  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span: opens at construction, closes at destruction (or at end()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id, std::int64_t parent = -1)
      : tracer_(tracer), index_(tracer.begin(name, id, parent)) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }
  void end() {
    tracer_.end(index_);
    index_ = -1;
  }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

}  // namespace perfbench
