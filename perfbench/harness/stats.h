// Pure statistics and input generation for the benchmark harness.
//
// Everything here is a function of its arguments: the percentile rule,
// open-loop latency and lateness accounting, the hit/miss split by the
// response's CacheSource, and the seeded request pools and schedules. The
// benchmark's tests (tests/harness_test.cpp) pin each of them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/wire.h"

namespace perfbench {

// The benchmark's own seeded generator (SplitMix64), so generated inputs
// depend on --seed alone and never on the program's RNG.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

// Mixes a run seed with a stream label so independent streams never share
// a sequence.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---- Percentiles ---------------------------------------------------------

// Nearest-rank median: sorted[(N - 1) / 2], a sample as measured. N >= 1.
double median(std::vector<double> samples);

// The tail rule: the highest percentile, capped at `cap` (p99 by default),
// that still has at least ten samples strictly beyond it. With N samples
// the tail is the k-th smallest, k = min(ceil(cap N), N - 10); it exists
// only when k is above the median's rank (N >= 22), so a tail is never a
// median in disguise.
struct TailPoint {
  double value = 0;
  double percentile = 0;  // 100 k / N
  std::size_t beyond = 0; // N - k, always >= 10
};
inline constexpr std::size_t kTailMinBeyond = 10;
inline constexpr std::size_t kTailMinSamples = 2 * kTailMinBeyond + 2;
inline constexpr double kTailCap = 0.99;
std::optional<TailPoint> tail_point(std::vector<double> samples, double cap = kTailCap);

// "p10=.. p25=.. p50=.. p75=.. p90=.. p99=.." (nearest rank) for reports.
std::string percentile_ladder(std::vector<double> samples);

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  std::optional<TailPoint> tail;
};
LatencySummary summarize(const std::vector<double>& samples);

// The serve workloads' p50_ms and tail_ms: the timed window is cut into
// kSlices equal slices by start time (the due time in the open loop), each
// slice gets its own median
// and tail (the rule above), and each metric is the median over slices. A
// burst of host noise that spoils one or two slices then moves neither
// number. `tail` is empty unless every slice has one.
inline constexpr std::size_t kSlices = 5;
struct SlicedSummary {
  double p50 = 0;
  std::optional<double> tail;
  std::size_t count = 0;
  std::size_t min_slice_count = 0;  // samples in the thinnest slice
  std::size_t min_beyond = 0;       // fewest samples beyond a slice's tail
};
// latencies[i] started at offsets_ms[i] (ms from the window's start);
// samples at or past window_ms fall in the last slice.
SlicedSummary sliced_summary(const std::vector<double>& latencies,
                             const std::vector<double>& offsets_ms, double window_ms,
                             double tail_cap = kTailCap);

// ---- Open-loop accounting -------------------------------------------------

// One open-loop request as the generator saw it. Times are milliseconds on
// the harness's steady clock.
struct OpenLoopRecord {
  double due_ms = 0;   // when the schedule said to send it
  double sent_ms = 0;  // when the write actually started
  double done_ms = 0;  // when its response was fully decoded
  bool expect_hit = false;
  bcclb::CacheSource source = bcclb::CacheSource::kCold;
};

// Latency counts from the due time, so a stalled generator or a blocked
// connection charges its wait to every request it delayed.
inline double latency_ms(const OpenLoopRecord& r) { return r.done_ms - r.due_ms; }
// How late the generator sent the request (>= 0 for a sane generator).
inline double lateness_ms(const OpenLoopRecord& r) { return r.sent_ms - r.due_ms; }

// Latencies split by where the daemon says the artifact came from: kHit is
// a hit, every other source (cold, coalesced, disk) is a miss. `mismatched`
// counts records whose source disagrees with what the schedule expected.
struct HitMissSplit {
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::size_t mismatched = 0;
};
bool is_hit(bcclb::CacheSource source);
HitMissSplit split_hits_and_misses(const std::vector<OpenLoopRecord>& records);

// Head-of-line accounting: a hit is a HOL hit when it was sent while some
// miss was outstanding (sent, not yet answered). wait_p50_ms is the median
// HOL-hit latency minus the median latency of the other hits; 0 when either
// group is empty.
struct HolSummary {
  std::size_t hol_hits = 0;
  std::size_t idle_hits = 0;
  double idle_p50_ms = 0;
  double wait_p50_ms = 0;
};
HolSummary hol_summary(const std::vector<OpenLoopRecord>& records);

// ---- Generated inputs -------------------------------------------------------

// The warm pool: every cacheable request type at sizes that build in well
// under a second cold. Shapes are fixed; keys (cycle words, keep fractions,
// instance seeds, tile indices, search seeds) come from the seed. Keys are
// pairwise distinct.
std::vector<bcclb::Request> make_pool(std::uint64_t seed);

// Cold-miss shapes for serve_hol, each about 30-200 ms cold at two worker
// threads. The two largest are implicit-instance simulations at n = 2^18,
// whose cost does not depend on the key, so the hit tail (set by the
// longest misses) does not depend on the seed. Shape s of use u yields a
// key no pool entry and no other (s, u) shares: fresh_miss(seed, s, u).
inline constexpr std::size_t kMissShapes = 6;
inline constexpr std::size_t kMaxMissUses = 60;  // per shape, per daemon
bcclb::Request fresh_miss(std::uint64_t seed, std::size_t shape, std::size_t use);

// The serve_hol arrival schedule for timed window `window` of one daemon:
// hits at `hit_rate` per second alternating over connections 0 and 1 (pool
// entry picked by the seed), misses at `miss_rate` per second on connection
// 2, phase-shifted half a period, their shapes a seeded permutation of the
// shape list repeated. `next_use` holds each shape's next fresh-key index and
// carries across the windows of one daemon (start it at kFirstMissUse: use 0
// is the set-up's warm-up miss). Sorted by due time.
struct ScheduledOp {
  double due_ms = 0;  // offset from the start of the timed window
  std::uint32_t conn = 0;
  bool miss = false;
  std::uint32_t pool_index = 0;  // hits
  bcclb::Request request;        // the request to send (hits: the pool entry)
};
inline constexpr std::uint32_t kHolConnections = 3;
inline constexpr std::uint32_t kMissConnection = 2;
inline constexpr std::size_t kFirstMissUse = 1;
std::vector<ScheduledOp> open_loop_schedule(std::uint64_t seed, std::uint64_t window,
                                            double seconds,
                                            const std::vector<bcclb::Request>& pool,
                                            double hit_rate, double miss_rate,
                                            std::vector<std::size_t>& next_use);

// The closed loop's request order on connection `conn`: an endless seeded
// walk over the pool.
class ClosedLoopPicker {
 public:
  ClosedLoopPicker(std::uint64_t seed, std::uint32_t conn, std::size_t pool_size);
  std::uint32_t next();

 private:
  SplitMix64 rng_;
  std::size_t pool_size_;
};

// Canonical bytes of a schedule (due time in ns, connection, request frame
// per op), for the seed -> byte-identical schedule test.
std::string schedule_bytes(const std::vector<ScheduledOp>& schedule);

// A 30-bit prime (2^29 < p < 2^30) drawn from the seed, for the mod-p rank.
std::uint64_t seeded_prime_30bit(std::uint64_t seed);

}  // namespace perfbench
