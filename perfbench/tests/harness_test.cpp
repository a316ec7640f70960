// The benchmark's own tests: the percentile rule, open-loop due-time
// latency and lateness accounting, the hit/miss split by CacheSource, and
// seed -> byte-identical request schedules. Run with
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "serve/wire.h"
#include "stats.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

using namespace perfbench;
using bcclb::CacheSource;
using bcclb::Request;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted input
  return v;
}

void test_median() {
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2);  // nearest rank: a measured sample, not an average
  CHECK(median({7}) == 7);
}

void test_tail_rule() {
  CHECK(!tail_point(one_to(21)));  // its tail would be the median itself
  for (std::size_t n : {22u, 23u, 33u, 100u, 999u, 1000u, 1001u, 5000u, 300000u}) {
    const auto tail = tail_point(one_to(n));
    CHECK(tail.has_value());
    if (!tail) continue;
    // The tail is the k-th smallest sample; exactly `beyond` samples exceed it.
    const auto k = static_cast<std::size_t>(tail->value);
    CHECK(tail->beyond == n - k);
    CHECK(tail->beyond >= kTailMinBeyond);
    CHECK(k > (n - 1) / 2 + 1);  // strictly above the nearest-rank median
    // Capped at the nearest-rank p99.
    CHECK(k <= (99 * n + 99) / 100);
    CHECK(k == std::min((99 * n + 99) / 100, n - kTailMinBeyond));
  }
  // Large N reports p99 itself; small N backs off to keep ten beyond.
  CHECK(tail_point(one_to(5000))->percentile == 99.0);
  CHECK(tail_point(one_to(5000))->beyond == 50);
  CHECK(tail_point(one_to(100))->percentile == 90.0);
  CHECK(tail_point(one_to(100))->beyond == 10);
  // A lower cap: p90 of 1000 samples, 100 beyond.
  CHECK(tail_point(one_to(1000), 0.90)->value == 900);
  CHECK(tail_point(one_to(1000), 0.90)->beyond == 100);
  const LatencySummary s = summarize(one_to(10));
  CHECK(s.count == 10 && s.p50 == 5 && !s.tail);
}

void test_sliced_summary() {
  // Five 1-s slices of 100 samples each; slice 2 is spoiled by a noise burst.
  std::vector<double> latency, start;
  for (int slice = 0; slice < 5; ++slice) {
    for (int i = 0; i < 100; ++i) {
      latency.push_back(slice == 2 ? 50.0 + i : 1.0 + i * 0.01);
      start.push_back(slice * 1000.0 + i * 10.0);
    }
  }
  const SlicedSummary s = sliced_summary(latency, start, 5000.0);
  CHECK(s.count == 500);
  CHECK(s.min_slice_count == 100);
  CHECK(s.p50 == 1.0 + 49 * 0.01);  // the burst moves neither median...
  CHECK(s.tail.has_value() && *s.tail == 1.0 + 89 * 0.01);  // ...nor tail (k = 90 of 100)
  CHECK(s.min_beyond == 10);
  // A sample that started at or after the window's end lands in the last slice.
  latency.push_back(1.0);
  start.push_back(5000.0);
  CHECK(sliced_summary(latency, start, 5000.0).count == 501);
  // A slice too thin for a tail leaves the sliced tail empty.
  std::vector<double> thin_latency(latency.begin(), latency.begin() + 400), thin_start(start.begin(), start.begin() + 400);
  thin_latency.push_back(1.0);
  thin_start.push_back(4500.0);
  CHECK(!sliced_summary(thin_latency, thin_start, 5000.0).tail);
}

OpenLoopRecord rec(double due, double sent, double done, bool expect_hit, CacheSource source) {
  OpenLoopRecord r;
  r.due_ms = due;
  r.sent_ms = sent;
  r.done_ms = done;
  r.expect_hit = expect_hit;
  r.source = source;
  return r;
}

void test_open_loop_accounting() {
  const OpenLoopRecord r = rec(10, 12, 15, true, CacheSource::kHit);
  CHECK(latency_ms(r) == 5);  // from the due time, not the send time
  CHECK(lateness_ms(r) == 2);
  // A generator stalled until t=20 charges the stall to every op it delayed.
  const std::vector<OpenLoopRecord> stalled = {rec(0, 20, 21, true, CacheSource::kHit),
                                               rec(5, 20, 21, true, CacheSource::kHit),
                                               rec(10, 20, 21, true, CacheSource::kHit)};
  const HitMissSplit split = split_hits_and_misses(stalled);
  CHECK(split.hit_ms == (std::vector<double>{21, 16, 11}));
  std::vector<double> late;
  for (const OpenLoopRecord& x : stalled) late.push_back(lateness_ms(x));
  CHECK(late == (std::vector<double>{20, 15, 10}));
}

void test_hit_miss_split() {
  const std::vector<OpenLoopRecord> records = {
      rec(0, 0, 1, true, CacheSource::kHit),         // hit as expected
      rec(0, 0, 2, false, CacheSource::kCold),       // miss as expected
      rec(0, 0, 3, false, CacheSource::kCoalesced),  // a coalesced build is a miss
      rec(0, 0, 4, false, CacheSource::kDisk),       // so is a disk-tier read
      rec(0, 0, 5, true, CacheSource::kCold),        // expected hit came back cold
      rec(0, 0, 6, false, CacheSource::kHit),        // expected miss came back hit
  };
  const HitMissSplit split = split_hits_and_misses(records);
  CHECK(split.hit_ms == (std::vector<double>{1, 6}));
  CHECK(split.miss_ms == (std::vector<double>{2, 3, 4, 5}));
  CHECK(split.mismatched == 2);
  CHECK(is_hit(CacheSource::kHit) && !is_hit(CacheSource::kCold));
}

void test_hol_summary() {
  const std::vector<OpenLoopRecord> records = {
      rec(10, 10, 50, false, CacheSource::kCold),  // miss outstanding over [10, 50)
      rec(20, 20, 50, true, CacheSource::kHit),    // sent behind it: 30 ms
      rec(30, 30, 50, true, CacheSource::kHit),    // sent behind it: 20 ms
      rec(60, 60, 61, true, CacheSource::kHit),    // idle: 1 ms
      rec(70, 70, 71, true, CacheSource::kHit),    // idle: 1 ms
      rec(5, 5, 6, true, CacheSource::kHit),       // before the miss: idle
  };
  const HolSummary s = hol_summary(records);
  CHECK(s.hol_hits == 2);
  CHECK(s.idle_hits == 3);
  CHECK(s.idle_p50_ms == 1);
  CHECK(s.wait_p50_ms == 20 - 1);  // nearest-rank median of {30, 20} is 20
}

void test_schedule_determinism() {
  const std::vector<Request> pool = make_pool(7);
  CHECK(pool == make_pool(7));
  CHECK(pool != make_pool(8));

  std::vector<std::size_t> a_use(kMissShapes, kFirstMissUse), b_use = a_use, c_use = a_use;
  const auto a = open_loop_schedule(7, 0, 15, pool, 200, 2, a_use);
  const auto b = open_loop_schedule(7, 0, 15, pool, 200, 2, b_use);
  const auto c = open_loop_schedule(8, 0, 15, make_pool(8), 200, 2, c_use);
  CHECK(schedule_bytes(a) == schedule_bytes(b));
  CHECK(schedule_bytes(a) != schedule_bytes(c));
  CHECK(a_use == b_use);

  std::size_t hits = 0, misses = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    (a[i].miss ? misses : hits) += 1;
    if (i > 0) CHECK(a[i - 1].due_ms <= a[i].due_ms);
    CHECK(a[i].miss ? a[i].conn == kMissConnection : a[i].conn < kMissConnection);
  }
  CHECK(hits == 3000);
  CHECK(misses == 30);

  // Fresh keys: no miss repeats a pool key, a warm-up key, or another
  // miss — also across two windows of one daemon.
  std::unordered_set<std::uint64_t> keys;
  for (const Request& r : pool) keys.insert(bcclb::request_cache_key(r));
  CHECK(keys.size() == pool.size());
  for (std::size_t s = 0; s < kMissShapes; ++s) {
    CHECK(keys.insert(bcclb::request_cache_key(fresh_miss(7, s, 0))).second);
  }
  const auto second = open_loop_schedule(7, 1, 15, pool, 200, 2, a_use);
  for (const auto* window : {&a, &second}) {
    for (const ScheduledOp& op : *window) {
      if (op.miss) CHECK(keys.insert(bcclb::request_cache_key(op.request)).second);
    }
  }
}

void test_requests_are_valid() {
  // Every generated request survives the daemon's own wire validation.
  std::vector<Request> all = make_pool(11);
  for (std::size_t s = 0; s < kMissShapes; ++s) {
    for (std::size_t u : {std::size_t{0}, kMaxMissUses - 1}) all.push_back(fresh_miss(11, s, u));
  }
  for (const Request& r : all) {
    const std::string frame = bcclb::encode_request_frame(r);
    bool ok = true;
    try {
      const bcclb::FrameHeader h = bcclb::decode_frame_header(frame);
      ok = bcclb::decode_request(h.type, std::string_view(frame).substr(bcclb::kFrameHeaderBytes)) == r;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "invalid generated request: %s\n", e.what());
      ok = false;
    }
    CHECK(ok);
  }
}

void test_prime() {
  const std::uint64_t p = seeded_prime_30bit(3);
  CHECK(p == seeded_prime_30bit(3));
  CHECK(p > (1ULL << 29) && p < (1ULL << 30));
  for (std::uint64_t d = 2; d * d <= p; ++d) CHECK(p % d != 0);
}

}  // namespace

int main() {
  test_median();
  test_tail_rule();
  test_sliced_summary();
  test_open_loop_accounting();
  test_hit_miss_split();
  test_hol_summary();
  test_schedule_determinism();
  test_requests_are_valid();
  test_prime();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
