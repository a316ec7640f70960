// Deterministic data-parallel helpers shared by the combinatorial kernels.
//
// BatchRunner (bcc/batch_runner.h) owns simulator sweeps; the linear-algebra
// and enumeration kernels need the same "fan a loop across threads, results
// bit-identical to serial" guarantee without linking the simulator. The
// contract is the one BatchRunner documents: the body writes only to slots
// owned by its own index range, nothing about scheduling feeds back into a
// computation, so any thread count (including 1) produces identical bytes.
#pragma once

#include <cstddef>
#include <functional>

namespace bcclb {

// Worker count from the BCCLB_THREADS environment override (strict
// whole-string parse, clamped to [1, 256]); malformed or absent values fall
// back to std::thread::hardware_concurrency. This is the single reader of
// BCCLB_THREADS — BatchRunner::default_threads delegates here.
unsigned default_parallel_threads();

// Splits [0, count) into one contiguous block per worker and runs
// body(begin, end) on each. Blocks are a pure function of (count, threads):
// the first (count % workers) blocks get one extra element, so a replay with
// the same thread count shards identically. threads == 0 means
// default_parallel_threads(); a single worker (or count <= 1) runs inline on
// the calling thread. Exceptions propagate: the lowest-indexed failing block
// wins, matching what a serial loop would have thrown first.
void parallel_for_blocks(std::size_t count, unsigned threads,
                         const std::function<void(std::size_t, std::size_t)>& body);

// One worker's share of parallel_for_interleaved: the chunks worker,
// worker + workers, worker + 2 * workers, ... of [0, count), each `chunk`
// elements long except a ragged last one.
struct InterleavedShare {
  std::size_t count = 0;
  std::size_t chunk = 1;
  std::size_t worker = 0;
  std::size_t workers = 1;

  // body(begin, end) for each of this worker's chunks, in ascending order.
  template <class Body>
  void for_each_chunk(Body&& body) const {
    for (std::size_t b = worker * chunk; b < count; b += workers * chunk) {
      body(b, b + chunk < count ? b + chunk : count);
    }
  }
};

// Deals [0, count) round-robin to the workers in chunks of `chunk`
// elements and runs body(share) once per worker. Use it instead of
// parallel_for_blocks when the cost per element is uneven along the range:
// every worker then gets a slice of every region. The deal is a pure
// function of (count, chunk, threads); threads == 0 means
// default_parallel_threads(), and one worker (or a single chunk) runs
// inline. Exceptions propagate as in parallel_for_blocks.
void parallel_for_interleaved(std::size_t count, std::size_t chunk, unsigned threads,
                              const std::function<void(const InterleavedShare&)>& body);

}  // namespace bcclb
