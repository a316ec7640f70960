#include "trace.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::record(const char* name, std::uint64_t id, std::int64_t parent,
                            std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::begin(const char* name, std::uint64_t id, std::int64_t parent) {
  if (!enabled_) return -1;
  return record(name, id, parent, now_ns(), 0);
}

void Tracer::end(std::int64_t span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

void Tracer::merge(const Tracer& other) {
  if (!enabled_) return;
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(ns_to_ms(s.end_ns - s.start_ns));
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"name\":\"%s\",\"id\":%llu,\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("error writing trace file " + path);
}

}  // namespace perfbench
