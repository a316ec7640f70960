#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "partition/bell.h"

namespace perfbench {

using bcclb::CacheSource;
using bcclb::Request;
using bcclb::RequestType;

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::below(std::uint64_t bound) {
  // Rejection sampling keeps the draw exactly uniform.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  for (;;) {
    const std::uint64_t x = next();
    if (x < limit) return x % bound;
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  rng.next();
  return rng.next();
}

// ---- Percentiles -----------------------------------------------------------

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  return samples[mid];
}

std::optional<TailPoint> tail_point(std::vector<double> samples, double cap) {
  const std::size_t n = samples.size();
  if (n < kTailMinSamples) return std::nullopt;
  const auto cap_rank = static_cast<std::size_t>(std::ceil(cap * static_cast<double>(n) - 1e-9));
  const std::size_t k = std::min(cap_rank, n - kTailMinBeyond);
  std::sort(samples.begin(), samples.end());
  TailPoint tail;
  tail.value = samples[k - 1];
  tail.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  tail.beyond = n - k;
  return tail;
}

std::string percentile_ladder(std::vector<double> samples) {
  if (samples.empty()) return "(no samples)";
  std::sort(samples.begin(), samples.end());
  std::string out;
  for (const int p : {10, 25, 50, 75, 90, 99}) {
    const std::size_t rank = std::max<std::size_t>(1, (p * samples.size() + 99) / 100);
    char buf[48];
    std::snprintf(buf, sizeof buf, "%sp%d=%.4g", out.empty() ? "" : " ", p, samples[rank - 1]);
    out += buf;
  }
  return out;
}

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = median(samples);
  s.tail = tail_point(samples);
  return s;
}

SlicedSummary sliced_summary(const std::vector<double>& latencies,
                             const std::vector<double>& offsets_ms, double window_ms,
                             double tail_cap) {
  if (latencies.size() != offsets_ms.size() || !(window_ms > 0)) {
    throw std::invalid_argument("sliced_summary: one offset per latency and a positive window");
  }
  std::vector<std::vector<double>> slices(kSlices);
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    const double at = std::max(0.0, offsets_ms[i]) * static_cast<double>(kSlices) / window_ms;
    slices[std::min(kSlices - 1, static_cast<std::size_t>(at))].push_back(latencies[i]);
  }
  SlicedSummary out;
  out.count = latencies.size();
  out.min_slice_count = latencies.size();
  out.min_beyond = latencies.size();
  std::vector<double> medians, tails;
  for (const std::vector<double>& slice : slices) {
    out.min_slice_count = std::min(out.min_slice_count, slice.size());
    if (slice.empty()) continue;
    medians.push_back(median(slice));
    if (const auto tail = tail_point(slice, tail_cap)) {
      tails.push_back(tail->value);
      out.min_beyond = std::min(out.min_beyond, tail->beyond);
    }
  }
  if (medians.empty()) throw std::invalid_argument("sliced_summary: no samples");
  out.p50 = median(medians);
  if (tails.size() == kSlices) out.tail = median(tails);
  return out;
}

// ---- Open-loop accounting ----------------------------------------------------

bool is_hit(CacheSource source) { return source == CacheSource::kHit; }

HitMissSplit split_hits_and_misses(const std::vector<OpenLoopRecord>& records) {
  HitMissSplit split;
  for (const OpenLoopRecord& r : records) {
    const bool hit = is_hit(r.source);
    (hit ? split.hit_ms : split.miss_ms).push_back(latency_ms(r));
    if (hit != r.expect_hit) ++split.mismatched;
  }
  return split;
}

HolSummary hol_summary(const std::vector<OpenLoopRecord>& records) {
  std::vector<std::pair<double, double>> outstanding;  // [sent, done) of each miss
  for (const OpenLoopRecord& r : records) {
    if (!is_hit(r.source)) outstanding.emplace_back(r.sent_ms, r.done_ms);
  }
  std::sort(outstanding.begin(), outstanding.end());
  std::vector<double> hol, idle;
  for (const OpenLoopRecord& r : records) {
    if (!is_hit(r.source)) continue;
    bool behind = false;
    for (const auto& [sent, done] : outstanding) {
      if (sent > r.sent_ms) break;
      if (r.sent_ms < done) {
        behind = true;
        break;
      }
    }
    (behind ? hol : idle).push_back(latency_ms(r));
  }
  HolSummary s;
  s.hol_hits = hol.size();
  s.idle_hits = idle.size();
  if (!idle.empty()) s.idle_p50_ms = median(idle);
  if (!hol.empty() && !idle.empty()) s.wait_p50_ms = median(hol) - s.idle_p50_ms;
  return s;
}

// ---- Generated inputs -----------------------------------------------------------

namespace {

Request make(RequestType type, std::uint32_t n, std::uint8_t family = 'M',
             std::uint64_t packed = 0) {
  Request r;
  r.type = type;
  r.n = n;
  r.family = family;
  r.packed = packed;
  return r;
}

template <typename T>
void shuffle(std::vector<T>& items, SplitMix64& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

// A cycle cover of [n] with every cycle of length >= 3, packed as 4-bit
// successor nibbles: one Hamiltonian cycle, or two cycles when `two`.
std::uint64_t random_cover(std::uint32_t n, bool two, SplitMix64& rng) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  shuffle(order, rng);
  const std::uint32_t split = two ? 3 + static_cast<std::uint32_t>(rng.below(n - 5)) : n;
  std::uint64_t packed = 0;
  const auto link = [&](std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t i = lo; i < hi; ++i) {
      const std::uint32_t succ = order[i + 1 < hi ? i + 1 : lo];
      packed |= static_cast<std::uint64_t>(succ) << (4 * order[i]);
    }
  };
  link(0, split);
  if (split < n) link(split, n);
  return packed;
}

std::uint64_t search_packed(std::uint64_t rounds, std::uint64_t buckets, std::uint64_t seed16,
                            std::uint64_t budget) {
  return (rounds << 56) | (buckets << 48) | ((seed16 & 0xffff) << 32) | budget;
}

std::uint64_t tile_packed(std::uint64_t rows, std::uint64_t index) {
  return (rows << 32) | index;
}

// (tile_rows, tile_index) pairs of full M_8 tiles at four row widths from
// `rows0` in steps of 8 — similar cost each, and at least kMaxMissUses
// distinct keys for rows0 <= 256.
std::vector<std::pair<std::uint32_t, std::uint32_t>> m8_tile_keys(std::uint32_t rows0) {
  const std::uint64_t b8 = bcclb::bell_number_u64(8);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> keys;
  for (std::uint32_t rows = rows0; rows < rows0 + 32; rows += 8) {
    for (std::uint32_t t = 0; (t + 1) * static_cast<std::uint64_t>(rows) <= b8; ++t) {
      keys.emplace_back(rows, t);
    }
  }
  return keys;
}

}  // namespace

std::vector<Request> make_pool(std::uint64_t seed) {
  SplitMix64 rng(derive_seed(seed, 1));
  std::vector<Request> pool;
  std::unordered_set<std::uint64_t> keys;
  const auto add = [&](const Request& r) {
    if (!keys.insert(bcclb::request_cache_key(r)).second) return false;
    pool.push_back(r);
    return true;
  };
  for (std::uint32_t i = 0; i < 16;) {
    const std::uint32_t n = 8 + i % 9;
    if (add(make(RequestType::kClassify, n, 'M', random_cover(n, i % 2 == 1, rng)))) ++i;
  }
  for (std::uint32_t n = 6; n <= 9; ++n) add(make(RequestType::kIndistGraph, n));
  for (std::uint32_t n = 3; n <= 6; ++n) add(make(RequestType::kRank, n, 'M'));
  for (std::uint32_t n : {4u, 6u, 8u}) add(make(RequestType::kRank, n, 'E'));
  for (std::uint32_t i = 0; i < 8;) {
    Request r = make(RequestType::kInfo, 4 + i / 2);
    const double keep = static_cast<double>(1 + rng.below(999)) / 1000.0;
    std::memcpy(&r.keep_bits, &keep, sizeof keep);
    if (add(r)) ++i;
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    add(make(RequestType::kSimImplicit, 1024u << (i % 4),
             static_cast<std::uint8_t>(rng.below(2)), rng.next()));
  }
  // Rank tiles: three of M_6 (4 tiles of 64 rows), three of M_7 (14 tiles).
  std::vector<std::uint32_t> m6_tiles{0, 1, 2}, m7_tiles(13);
  std::iota(m7_tiles.begin(), m7_tiles.end(), 0u);
  shuffle(m7_tiles, rng);
  for (std::uint32_t i = 0; i < 3; ++i) {
    add(make(RequestType::kRankTile, 6, i % 2 ? '2' : 'p', tile_packed(64, m6_tiles[i])));
    add(make(RequestType::kRankTile, 7, i % 2 ? 'p' : '2', tile_packed(64, m7_tiles[i])));
  }
  const std::uint64_t search_base = rng.next();
  for (std::uint32_t i = 0; i < 4; ++i) {
    add(make(RequestType::kBestStrategy, 6, i % 2 ? 'e' : 'r',
             search_packed(1, 4, search_base + i, 32)));
  }
  return pool;
}

Request fresh_miss(std::uint64_t seed, std::size_t shape, std::size_t use) {
  if (shape >= kMissShapes || use >= kMaxMissUses) {
    throw std::out_of_range("fresh_miss: shape or use out of range");
  }
  const std::uint64_t stream = derive_seed(seed, 100 + shape);
  switch (shape) {
    case 0:
      return make(RequestType::kSimImplicit, 1u << 18, 0, derive_seed(stream, use));
    case 1:
      return make(RequestType::kSimImplicit, 1u << 18, 1, derive_seed(stream, use));
    case 2:
    case 3: {
      auto keys = m8_tile_keys(shape == 2 ? 128 : 256);
      SplitMix64 rng(stream);
      shuffle(keys, rng);
      const auto [rows, index] = keys.at(use);
      return make(RequestType::kRankTile, 8, shape == 2 ? 'p' : '2', tile_packed(rows, index));
    }
    case 4:
      return make(RequestType::kBestStrategy, 7, 'e', search_packed(1, 4, stream + use, 32));
    default:
      return make(RequestType::kBestStrategy, 6, 'r', search_packed(2, 4, stream + use, 128));
  }
}

std::vector<ScheduledOp> open_loop_schedule(std::uint64_t seed, std::uint64_t window,
                                            double seconds, const std::vector<Request>& pool,
                                            double hit_rate, double miss_rate,
                                            std::vector<std::size_t>& next_use) {
  if (next_use.size() != kMissShapes) throw std::invalid_argument("next_use needs one slot per shape");
  std::vector<ScheduledOp> ops;
  const double window_ms = seconds * 1000.0;
  const std::uint64_t window_seed = derive_seed(seed, 1000 + window);
  SplitMix64 hit_rng(derive_seed(window_seed, 2));
  const double hit_period = 1000.0 / hit_rate;
  for (std::uint64_t j = 0; static_cast<double>(j) * hit_period < window_ms; ++j) {
    ScheduledOp op;
    op.due_ms = static_cast<double>(j) * hit_period;
    op.conn = static_cast<std::uint32_t>(j % 2);
    op.pool_index = static_cast<std::uint32_t>(hit_rng.below(pool.size()));
    op.request = pool[op.pool_index];
    ops.push_back(op);
  }
  SplitMix64 miss_rng(derive_seed(window_seed, 3));
  const double miss_period = 1000.0 / miss_rate;
  std::vector<std::size_t> shapes(kMissShapes);
  for (std::uint64_t m = 0; (static_cast<double>(m) + 0.5) * miss_period < window_ms; ++m) {
    if (m % kMissShapes == 0) {
      std::iota(shapes.begin(), shapes.end(), std::size_t{0});
      shuffle(shapes, miss_rng);
    }
    const std::size_t shape = shapes[m % kMissShapes];
    ScheduledOp op;
    op.due_ms = (static_cast<double>(m) + 0.5) * miss_period;
    op.conn = kMissConnection;
    op.miss = true;
    op.request = fresh_miss(seed, shape, next_use[shape]++);
    ops.push_back(op);
  }
  std::stable_sort(ops.begin(), ops.end(), [](const ScheduledOp& a, const ScheduledOp& b) {
    return a.due_ms < b.due_ms;
  });
  return ops;
}

ClosedLoopPicker::ClosedLoopPicker(std::uint64_t seed, std::uint32_t conn,
                                   std::size_t pool_size)
    : rng_(derive_seed(seed, 10 + conn)), pool_size_(pool_size) {}

std::uint32_t ClosedLoopPicker::next() {
  return static_cast<std::uint32_t>(rng_.below(pool_size_));
}

std::string schedule_bytes(const std::vector<ScheduledOp>& schedule) {
  std::string out;
  for (const ScheduledOp& op : schedule) {
    const auto due_ns = static_cast<std::uint64_t>(std::llround(op.due_ms * 1e6));
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((due_ns >> (8 * i)) & 0xff));
    out.push_back(static_cast<char>(op.conn));
    out += bcclb::encode_request_frame(op.request);
  }
  return out;
}

std::uint64_t seeded_prime_30bit(std::uint64_t seed) {
  SplitMix64 rng(derive_seed(seed, 4));
  const auto is_prime = [](std::uint64_t x) {
    if (x % 2 == 0) return false;
    for (std::uint64_t d = 3; d * d <= x; d += 2) {
      if (x % d == 0) return false;
    }
    return true;
  };
  std::uint64_t p = (1ULL << 29) + 1 + rng.below((1ULL << 29) - 4096);
  while (!is_prime(p)) ++p;
  return p;
}

}  // namespace perfbench
