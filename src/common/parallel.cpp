#include "common/parallel.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "common/env.h"

namespace bcclb {

unsigned default_parallel_threads() {
  // Strict whole-string parse (common/env.h): malformed, zero, or
  // overflowing values fall through to the hardware default instead of
  // being trusted; in-range values clamp to [1, 256].
  if (const auto parsed = env_u64("BCCLB_THREADS"); parsed && *parsed >= 1) {
    return static_cast<unsigned>(*parsed > 256 ? 256 : *parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for_blocks(std::size_t count, unsigned threads,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (threads == 0) threads = default_parallel_threads();
  const std::size_t workers = std::min<std::size_t>(threads, count);
  if (workers <= 1) {
    body(0, count);
    return;
  }

  const std::size_t base = count / workers;
  const std::size_t extra = count % workers;
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  std::size_t begin = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t len = base + (w < extra ? 1 : 0);
    const std::size_t end = begin + len;
    pool.emplace_back([&body, &errors, w, begin, end] {
      try {
        body(begin, end);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
    begin = end;
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void parallel_for_interleaved(std::size_t count, std::size_t chunk, unsigned threads,
                              const std::function<void(const InterleavedShare&)>& body) {
  if (count == 0) return;
  if (chunk == 0) chunk = 1;
  if (threads == 0) threads = default_parallel_threads();
  const std::size_t chunks = (count - 1) / chunk + 1;
  const std::size_t workers = std::min<std::size_t>(threads, chunks);
  parallel_for_blocks(workers, static_cast<unsigned>(workers),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t w = begin; w < end; ++w) {
                          body(InterleavedShare{count, chunk, w, workers});
                        }
                      });
}

}  // namespace bcclb
