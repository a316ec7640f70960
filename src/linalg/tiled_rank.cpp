#include "linalg/tiled_rank.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "bcc/checkpoint.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "linalg/gf2_matrix.h"
#include "partition/bell.h"
#include "partition/enumeration.h"
#include "partition/unrank.h"

namespace bcclb {

namespace {

std::string_view bytes_view(const std::vector<std::uint64_t>& words) {
  return {reinterpret_cast<const char*>(words.data()), words.size() * sizeof(std::uint64_t)};
}

// ---- join kernel -------------------------------------------------------------
//
// M_n(i, j) = 1 iff P_i ∨ P_j is the one-block partition, iff the blocks of
// P_j connect all k blocks of P_i. A row fixes σ = P_i and walks the column
// RGS strings depth first, children in ascending digit order — which is
// RGS-lex order, so column j is the j-th leaf. A rollback union-find over
// σ's blocks carries the prefix: placing element e in an open column block
// v unites v's component with σ-block σ(e) (one union per trie edge, undone
// on backtrack); opening a new block unites nothing. A prefix with m
// elements left and maximum digit a owns D(m, a) consecutive columns
// (partition/unrank.h), so two cases end a subtree early:
//   - one component left: every completion connects, a run of 1s;
//   - components - 1 > m: each element unites at most two components, so
//     no completion connects, a run of 0s (the row starts zeroed).
// Every bit stays a pure function of (i, j).

// Sets bits [lo, lo + len) of `out`, len >= 1, a word at a time.
void fill_ones(std::uint64_t* out, std::uint64_t lo, std::uint64_t len) {
  const std::uint64_t hi = lo + len;
  const std::uint64_t w0 = lo / 64;
  const std::uint64_t w1 = hi / 64;
  if (w0 == w1) {
    out[w0] |= ((1ULL << len) - 1) << (lo % 64);
    return;
  }
  out[w0] |= ~0ULL << (lo % 64);
  for (std::uint64_t w = w0 + 1; w < w1; ++w) out[w] = ~0ULL;
  if (hi % 64 != 0) out[w1] |= (1ULL << (hi % 64)) - 1;
}

class JoinRowWalker {
 public:
  explicit JoinRowWalker(std::size_t n) : n_(n) {
    for (std::size_t m = 0; m < n; ++m) {
      for (std::size_t a = 0; m + a < n; ++a) d_[m][a] = rgs_extension_count(m, a);
    }
  }

  // ORs row σ of M_n into `out` (B_n bits, zeroed by the caller).
  void fill_row(const std::vector<std::uint32_t>& sigma, std::uint64_t* out) {
    std::uint32_t blocks = 0;
    for (std::size_t e = 0; e < n_; ++e) {
      sigma_[e] = static_cast<std::uint8_t>(sigma[e]);
      blocks = std::max(blocks, sigma[e] + 1);
    }
    if (blocks == 1) {  // σ is the one-block partition: the row is all 1s
      fill_ones(out, 0, d_[n_ - 1][0]);
      return;
    }
    for (std::uint32_t b = 0; b < blocks; ++b) {
      parent_[b] = static_cast<std::uint8_t>(b);
      size_[b] = 1;
    }
    components_ = blocks;
    out_ = out;
    col_ = 0;
    first_[0] = sigma_[0];  // element 0 always opens column block 0
    walk(1, 0);
  }

 private:
  std::uint32_t find(std::uint32_t x) const {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }

  // Visits the subtree below a prefix of elements [0, e) with maximum
  // digit a. On entry components_ >= 2 and components_ - 1 <= n - e.
  void walk(std::size_t e, std::uint32_t a) {
    const std::size_t m = n_ - 1 - e;  // elements left after e
    const std::uint32_t pb = find(sigma_[e]);
    if (m == 0) {
      // Exactly two components: the last element connects them iff its
      // column block holds the other one. A new block connects nothing.
      for (std::uint32_t v = 0; v <= a; ++v, ++col_) {
        if (find(first_[v]) != pb) out_[col_ / 64] |= 1ULL << (col_ % 64);
      }
      ++col_;
      return;
    }
    for (std::uint32_t v = 0; v <= a; ++v) {
      const std::uint32_t r = find(first_[v]);
      if (r == pb) {
        descend(e, a, m);
        continue;
      }
      // Union by size, no path compression, so the undo is one link.
      const std::uint32_t child = size_[r] < size_[pb] ? r : pb;
      const std::uint32_t root = child == r ? pb : r;
      parent_[child] = static_cast<std::uint8_t>(root);
      size_[root] = static_cast<std::uint8_t>(size_[root] + size_[child]);
      --components_;
      descend(e, a, m);
      ++components_;
      size_[root] = static_cast<std::uint8_t>(size_[root] - size_[child]);
      parent_[child] = static_cast<std::uint8_t>(child);
    }
    first_[a + 1] = static_cast<std::uint8_t>(pb);
    descend(e, a + 1, m);
  }

  // Element e is placed and the prefix's maximum digit is now a: fill,
  // skip, or walk its D(m, a) columns.
  void descend(std::size_t e, std::uint32_t a, std::size_t m) {
    const std::uint64_t span = d_[m][a];
    if (components_ == 1) {
      fill_ones(out_, col_, span);
    } else if (components_ - 1 <= m) {
      walk(e + 1, a);
      return;
    }
    col_ += span;
  }

  std::size_t n_;
  std::uint64_t d_[kMaxUnrankN][kMaxUnrankN] = {};  // d_[m][a] = D(m, a), m + a < n
  std::uint8_t sigma_[kMaxUnrankN] = {};
  std::uint8_t parent_[kMaxUnrankN] = {};  // over σ's blocks
  std::uint8_t size_[kMaxUnrankN] = {};
  std::uint8_t first_[kMaxUnrankN] = {};   // column block -> a σ-block it holds
  std::uint32_t components_ = 0;
  std::uint64_t col_ = 0;
  std::uint64_t* out_ = nullptr;
};

// Rows per chunk when generation deals a tile's rows to the workers; each
// chunk costs one unrank.
constexpr std::size_t kGenRowChunk = 8;

}  // namespace

const char* rank_field_name(RankField field) {
  return field == RankField::kGf2 ? "gf2" : "modp";
}

std::optional<RankField> parse_rank_field(std::string_view text) {
  if (text == "gf2") return RankField::kGf2;
  if (text == "modp") return RankField::kModp;
  return std::nullopt;
}

JoinTile generate_join_tile(std::size_t n, std::size_t row_lo, std::size_t row_hi,
                            unsigned threads) {
  const std::uint64_t bell = checked_bell_u64(n);
  if (row_lo > row_hi || row_hi > bell) {
    throw RangeViolationError("generate_join_tile: rows [" + std::to_string(row_lo) + ", " +
                              std::to_string(row_hi) + ") is not a subrange of [0, B_" +
                              std::to_string(n) + " = " + std::to_string(bell) + ")");
  }
  JoinTile tile;
  tile.row_lo = row_lo;
  tile.rows = row_hi - row_lo;
  tile.cols = static_cast<std::size_t>(bell);
  tile.words_per_row = (tile.cols + 63) / 64;
  tile.bits.assign(tile.rows * tile.words_per_row, 0);
  if (tile.rows == 0) {
    tile.digest = fnv1a(bytes_view(tile.bits));
    return tile;
  }
  // Rows go to the workers in interleaved chunks, since a row's cost
  // depends on how fine σ is. Each chunk unranks its first row and
  // advances with next_rgs; every bit is a pure function of (row index,
  // column index), so the packed words are identical at any thread count.
  parallel_for_interleaved(tile.rows, kGenRowChunk, threads, [&](const InterleavedShare& share) {
    JoinRowWalker walker(n);
    std::vector<std::uint32_t> row_rgs;
    share.for_each_chunk([&](std::size_t begin, std::size_t end) {
      unrank_rgs(n, row_lo + begin, row_rgs);
      for (std::size_t r = begin; r < end; ++r) {
        if (r > begin) next_rgs(row_rgs);
        walker.fill_row(row_rgs, &tile.bits[r * tile.words_per_row]);
      }
    });
  });
  for (const std::uint64_t w : tile.bits) {
    tile.ones += static_cast<std::uint64_t>(__builtin_popcountll(w));
  }
  tile.digest = fnv1a(bytes_view(tile.bits));
  return tile;
}

namespace {

// ---- pivot storage -----------------------------------------------------------
//
// Pivot rows live in per-tile segments: the new pivots a tile contributed,
// serialized row-major in the field's native layout (u64 words for GF(2),
// u32 entries for mod p). The disk store keeps RAM bounded — reduction
// streams row ranges through one chunk buffer; the memory store backs
// directory-less runs (tests, small n).

class PivotStore {
 public:
  virtual ~PivotStore() = default;
  // Persists a tile's segment; returns the FNV-1a digest of its bytes.
  virtual std::uint64_t append_segment(std::size_t tile_index, const std::string& bytes) = 0;
  // Re-registers a previously persisted segment (resume); verifies size and
  // digest and returns its bytes for pivot-column recovery.
  virtual std::string reload_segment(std::size_t tile_index, std::size_t expect_bytes,
                                     std::uint64_t expect_digest) = 0;
  // Reads rows [row_begin, row_end) of the ordinal-th registered segment
  // into `out` (u64-aligned so the caller can reinterpret rows in the
  // field's native layout; resized to the rounded-up word count).
  virtual void read_rows(std::size_t ordinal, std::size_t row_begin, std::size_t row_end,
                         std::size_t row_bytes, std::vector<std::uint64_t>& out) = 0;
  virtual std::uint64_t resident_bytes() const { return 0; }
};

class MemoryPivotStore final : public PivotStore {
 public:
  std::uint64_t append_segment(std::size_t, const std::string& bytes) override {
    resident_ += bytes.size();
    segments_.push_back(bytes);
    return fnv1a(bytes);
  }

  std::string reload_segment(std::size_t, std::size_t, std::uint64_t) override {
    throw CheckpointError("tiled rank: resume requires a checkpoint directory");
  }

  void read_rows(std::size_t ordinal, std::size_t row_begin, std::size_t row_end,
                 std::size_t row_bytes, std::vector<std::uint64_t>& out) override {
    const std::string& seg = segments_[ordinal];
    const std::size_t bytes = (row_end - row_begin) * row_bytes;
    out.assign((bytes + 7) / 8, 0);
    std::memcpy(out.data(), seg.data() + row_begin * row_bytes, bytes);
  }

  std::uint64_t resident_bytes() const override { return resident_; }

 private:
  std::vector<std::string> segments_;
  std::uint64_t resident_ = 0;
};

class DiskPivotStore final : public PivotStore {
 public:
  explicit DiskPivotStore(std::string dir) : dir_(std::move(dir)) {}

  std::uint64_t append_segment(std::size_t tile_index, const std::string& bytes) override {
    const std::string path = rank_segment_path(dir_, tile_index);
    write_file_atomic(path, bytes);
    paths_.push_back(path);
    return fnv1a(bytes);
  }

  std::string reload_segment(std::size_t tile_index, std::size_t expect_bytes,
                             std::uint64_t expect_digest) override {
    const std::string path = rank_segment_path(dir_, tile_index);
    std::string bytes = read_file(path);  // CheckpointError when missing
    if (bytes.size() != expect_bytes || fnv1a(bytes) != expect_digest) {
      throw CheckpointError("tiled rank: segment " + path + " fails integrity (" +
                            std::to_string(bytes.size()) + " bytes, digest " +
                            digest_hex(fnv1a(bytes)) + ", checkpoint expects " +
                            std::to_string(expect_bytes) + " bytes, digest " +
                            digest_hex(expect_digest) + ")");
    }
    paths_.push_back(path);
    return bytes;
  }

  void read_rows(std::size_t ordinal, std::size_t row_begin, std::size_t row_end,
                 std::size_t row_bytes, std::vector<std::uint64_t>& out) override {
    const std::string& path = paths_[ordinal];
    std::ifstream in(path, std::ios::binary);
    if (!in) throw CheckpointError("tiled rank: cannot open segment " + path);
    const std::size_t bytes = (row_end - row_begin) * row_bytes;
    in.seekg(static_cast<std::streamoff>(row_begin * row_bytes));
    out.assign((bytes + 7) / 8, 0);
    in.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(bytes));
    if (static_cast<std::size_t>(in.gcount()) != bytes) {
      throw CheckpointError("tiled rank: short read from segment " + path);
    }
  }

 private:
  std::string dir_;
  std::vector<std::string> paths_;
};

struct SegmentMeta {
  std::size_t tile_index = 0;
  std::size_t rows = 0;
  std::uint64_t digest = 0;
};

// ---- elimination kernels -----------------------------------------------------
//
// Both kernels apply pivots in batches of kBatch. The mod-p accumulator holds
// at most 8 products below 2^60 (p < 2^30) before it must reduce, and the
// GF(2) four-Russians table has 2^8 entries; phase 2's panel is one batch.
constexpr std::size_t kBatch = 8;

// First nonzero column of a row, or `dimension` for a zero row.
std::uint64_t gf2_lead(const std::uint64_t* row, std::size_t words, std::size_t dimension) {
  for (std::size_t w = 0; w < words; ++w) {
    if (row[w]) return w * 64 + static_cast<std::uint64_t>(__builtin_ctzll(row[w]));
  }
  return dimension;
}

std::uint64_t modp_lead(const std::uint32_t* row, std::size_t dimension) {
  for (std::size_t x = 0; x < dimension; ++x) {
    if (row[x]) return x;
  }
  return dimension;
}

// Trial division: the moduli here are below 2^30, so divisors stay below 2^15.
bool is_prime(std::uint64_t p) {
  if (p < 2) return false;
  for (std::uint64_t d = 2; d * d <= p; ++d) {
    if (p % d == 0) return false;
  }
  return true;
}

inline bool gf2_bit(const std::uint64_t* row, std::uint64_t c) {
  return (row[c / 64] >> (c % 64)) & 1ULL;
}

inline void gf2_xor(std::uint64_t* row, const std::uint64_t* other, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) row[w] ^= other[w];
}

// Reduces every work row against pivots q_0..q_{count-1} (consecutive in
// global insertion order). Per batch: the in-batch dependency is
// triangular (an earlier pivot row may be nonzero at a later pivot's
// column, never vice versa), so the batch coefficients solve in 8 bit
// steps; then one XOR-combination — via a 2^s four-Russians table when the
// tile is tall enough to amortize it — clears all s columns at once. XOR is
// exact, so table and direct paths, any batching, and any thread split
// produce identical rows. The table is rebuilt per batch and shared by the
// workers, so this kernel fans out once per batch.
void gf2_reduce_rows(std::uint64_t* work, std::size_t rows, std::size_t words,
                     const std::uint64_t* pivots, const std::uint64_t* cols, std::size_t count,
                     unsigned threads, std::vector<std::uint64_t>& table_scratch) {
  for (std::size_t b = 0; b < count; b += kBatch) {
    const std::size_t s = std::min(kBatch, count - b);
    const std::uint64_t* q[kBatch];
    std::uint64_t c[kBatch];
    std::uint8_t tri[kBatch] = {0, 0, 0, 0, 0, 0, 0, 0};  // tri[j] bit i = q_i[c_j], i < j
    for (std::size_t j = 0; j < s; ++j) {
      q[j] = pivots + (b + j) * words;
      c[j] = cols[b + j];
    }
    for (std::size_t j = 1; j < s; ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (gf2_bit(q[i], c[j])) tri[j] |= static_cast<std::uint8_t>(1U << i);
      }
    }
    const bool use_table = rows >= 64;
    if (use_table) {
      table_scratch.assign((std::size_t{1} << s) * words, 0);
      for (std::size_t m = 1; m < (std::size_t{1} << s); ++m) {
        const std::size_t lsb = static_cast<std::size_t>(__builtin_ctzll(m));
        std::uint64_t* dst = &table_scratch[m * words];
        std::memcpy(dst, &table_scratch[(m & (m - 1)) * words], words * sizeof(std::uint64_t));
        gf2_xor(dst, q[lsb], words);
      }
    }
    parallel_for_blocks(rows, threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        std::uint64_t* row = work + r * words;
        std::uint32_t mask = 0;
        for (std::size_t j = 0; j < s; ++j) {
          const std::uint32_t f =
              static_cast<std::uint32_t>(gf2_bit(row, c[j])) ^
              (static_cast<std::uint32_t>(__builtin_popcount(mask & tri[j])) & 1U);
          mask |= f << j;
        }
        if (mask == 0) continue;
        if (use_table) {
          gf2_xor(row, &table_scratch[static_cast<std::size_t>(mask) * words], words);
        } else {
          for (std::size_t j = 0; j < s; ++j) {
            if (mask & (1U << j)) gf2_xor(row, q[j], words);
          }
        }
      }
    });
  }
}

// Solves the triangular batch coefficients f_j = (r[c_j] - sum_{i<j} f_i *
// q_i[c_j]) mod p, then applies r -= sum f_j q_j with raw u64 accumulation:
// 8 products below 2^60 plus carries stay below 2^63, so one % p per entry
// per batch. The sweep visits only the batch's support — the columns where
// some q_j is nonzero — since every other column has acc == 0 and stays as
// it is; M_8's pivot rows are about 1% nonzero. Each worker finds a
// batch's support once, at the first of its rows that needs it. One
// fan-out per call: each worker walks every batch over its own rows, so
// each row sees the same arithmetic in the same order at any thread count.
// The rows are dealt in interleaved chunks of kReduceRowChunk, because how
// many batches touch a row varies along the tile. Modular arithmetic is
// exact, so batching and chunking cannot change the reduced row either.
// rows == 1 runs inline.
constexpr std::size_t kReduceRowChunk = 8;

void modp_reduce_rows(std::uint32_t* work, std::size_t rows, std::size_t cols, std::uint64_t p,
                      const std::uint32_t* pivots, const std::uint64_t* pivot_cols,
                      std::size_t count, unsigned threads) {
  if (count == 0) return;
  parallel_for_interleaved(rows, kReduceRowChunk, threads, [&](const InterleavedShare& share) {
    std::vector<std::uint32_t> support;  // empty until a row of this batch needs it
    for (std::size_t b = 0; b < count; b += kBatch) {
      const std::size_t s = std::min(kBatch, count - b);
      const std::uint32_t* q[kBatch];
      std::uint64_t c[kBatch];
      for (std::size_t j = 0; j < s; ++j) {
        q[j] = pivots + (b + j) * cols;
        c[j] = pivot_cols[b + j];
      }
      support.clear();
      share.for_each_chunk([&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          std::uint32_t* row = work + r * cols;
          std::uint64_t f[kBatch] = {0, 0, 0, 0, 0, 0, 0, 0};
          bool any = false;
          for (std::size_t j = 0; j < s; ++j) {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < j; ++i) acc += f[i] * q[i][c[j]];
            const std::uint64_t sub = acc % p;
            const std::uint64_t rv = row[c[j]];
            f[j] = rv >= sub ? rv - sub : rv + p - sub;
            any = any || f[j] != 0;
          }
          if (!any) continue;
          if (support.empty()) {
            for (std::size_t x = 0; x < cols; ++x) {
              std::uint32_t nz = 0;
              for (std::size_t j = 0; j < s; ++j) nz |= q[j][x];
              if (nz != 0) support.push_back(static_cast<std::uint32_t>(x));
            }
          }
          for (const std::uint32_t x : support) {
            std::uint64_t acc = 0;
            for (std::size_t j = 0; j < s; ++j) acc += f[j] * q[j][x];
            if (acc == 0) continue;
            const std::uint64_t sub = acc % p;
            const std::uint64_t v = row[x];
            row[x] = static_cast<std::uint32_t>(v >= sub ? v - sub : v + p - sub);
          }
        }
      });
    }
  });
}

// Phase 2, for either field: turns the reduced tile rows into this tile's
// new pivots, in row order. `reduce(row, nrows, first, count, threads)`
// clears new pivots [first, first + count) from tile rows [row, row +
// nrows) with the field kernel; `insert(row)` appends the row as a pivot
// when it is nonzero. Rows go in panels of kBatch: each panel row is
// reduced against the panel's earlier pivots on this thread and inserted;
// only then are the panel's pivots applied, in parallel, to every trailing
// row. A row thus ends as the unique vector of r + span(earlier pivots)
// that is zero on every earlier pivot column — the same row, lead and
// pivot as a row-by-row insertion yields.
template <class Reduce, class Insert>
void insert_panels(std::size_t rows, const std::vector<std::uint64_t>& new_cols,
                   unsigned threads, Reduce&& reduce, Insert&& insert) {
  for (std::size_t p0 = 0; p0 < rows; p0 += kBatch) {
    const std::size_t p1 = std::min(rows, p0 + kBatch);
    const std::size_t first = new_cols.size();
    for (std::size_t r = p0; r < p1; ++r) {
      reduce(r, 1, first, new_cols.size() - first, 1);
      insert(r);
    }
    reduce(p1, rows - p1, first, new_cols.size() - first, threads);
  }
}

// ---- checkpoint serialization ------------------------------------------------

struct RankState {
  std::size_t tiles_done = 0;
  std::size_t rank = 0;
  std::uint64_t chain = 0;
  std::vector<SegmentMeta> segments;
  std::vector<std::string> tile_lines;
};

std::string rank_header(const TiledRankConfig& cfg, std::uint64_t dimension,
                        std::size_t tiles_total) {
  std::ostringstream out;
  out << "bcclb-rank v1\n";
  out << "n " << cfg.n << "\n";
  out << "field " << rank_field_name(cfg.field) << "\n";
  out << "prime " << (cfg.field == RankField::kModp ? cfg.prime : 0) << "\n";
  out << "tile-rows " << cfg.tile_rows << "\n";
  out << "dimension " << dimension << "\n";
  out << "tiles-total " << tiles_total << "\n";
  return out.str();
}

std::string render_checkpoint(const std::string& header, const RankState& st) {
  std::ostringstream out;
  out << header;
  out << "tiles-done " << st.tiles_done << "\n";
  out << "rank " << st.rank << "\n";
  out << "chain " << digest_hex(st.chain) << "\n";
  for (const std::string& line : st.tile_lines) out << line << "\n";
  return out.str();
}

[[noreturn]] void bad_checkpoint(const std::string& path, const std::string& why) {
  throw CheckpointError("tiled rank checkpoint " + path + ": " + why);
}

RankState parse_checkpoint(const std::string& path, const std::string& expected_header,
                           std::size_t tiles_total, std::size_t tile_rows,
                           std::uint64_t dimension) {
  const std::string body = read_snapshot(path);
  if (body.compare(0, expected_header.size(), expected_header) != 0) {
    bad_checkpoint(path, "header does not match this configuration (n/field/prime/tile-rows)");
  }
  std::istringstream in(body.substr(expected_header.size()));
  RankState st;
  std::string key;
  std::string chain_hex;
  if (!(in >> key >> st.tiles_done) || key != "tiles-done") bad_checkpoint(path, "missing tiles-done");
  if (!(in >> key >> st.rank) || key != "rank") bad_checkpoint(path, "missing rank");
  if (!(in >> key >> chain_hex) || key != "chain" || !parse_digest_hex(chain_hex, st.chain)) {
    bad_checkpoint(path, "missing or malformed chain digest");
  }
  if (st.tiles_done > tiles_total) bad_checkpoint(path, "tiles-done exceeds tiles-total");
  std::size_t pivot_total = 0;
  for (std::size_t t = 0; t < st.tiles_done; ++t) {
    SegmentMeta seg;
    std::size_t lo = 0, hi = 0;
    std::uint64_t ones = 0;
    std::string bits_hex, seg_hex;
    std::uint64_t bits_digest = 0;
    if (!(in >> key >> seg.tile_index) || key != "tile" || seg.tile_index != t) {
      bad_checkpoint(path, "missing record for tile " + std::to_string(t));
    }
    if (!(in >> key >> lo >> hi) || key != "rows" || lo != t * tile_rows ||
        hi != std::min<std::size_t>(dimension, lo + tile_rows)) {
      bad_checkpoint(path, "tile " + std::to_string(t) + " has inconsistent row range");
    }
    if (!(in >> key >> ones) || key != "ones") bad_checkpoint(path, "tile record missing ones");
    if (!(in >> key >> bits_hex) || key != "bits" || !parse_digest_hex(bits_hex, bits_digest)) {
      bad_checkpoint(path, "tile record missing bits digest");
    }
    if (!(in >> key >> seg.rows) || key != "pivots") bad_checkpoint(path, "tile record missing pivots");
    if (!(in >> key >> seg_hex) || key != "seg" || !parse_digest_hex(seg_hex, seg.digest)) {
      bad_checkpoint(path, "tile record missing segment digest");
    }
    std::ostringstream line;
    line << "tile " << t << " rows " << lo << " " << hi << " ones " << ones << " bits "
         << bits_hex << " pivots " << seg.rows << " seg " << seg_hex;
    st.tile_lines.push_back(line.str());
    st.segments.push_back(seg);
    pivot_total += seg.rows;
  }
  if (pivot_total != st.rank) bad_checkpoint(path, "per-tile pivot counts do not sum to rank");
  return st;
}

}  // namespace

std::string rank_checkpoint_path(const std::string& dir) { return dir + "/rank-checkpoint.bcclb"; }

std::string rank_segment_path(const std::string& dir, std::size_t tile_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "/seg-%06zu.bin", tile_index);
  return dir + name;
}

std::size_t closed_form_join_rank(std::size_t n, RankField field, std::uint64_t prime) {
  const std::uint64_t p = field == RankField::kGf2 ? 2 : prime;
  std::uint64_t rank = 0;
  for (std::size_t k = 0; k <= n && k <= p; ++k) rank += stirling2(n, k).to_u64();
  return static_cast<std::size_t>(rank);
}

std::size_t join_tile_rank(const JoinTile& tile, RankField field, std::uint64_t prime) {
  if (field == RankField::kGf2) {
    Gf2Matrix m(tile.rows, tile.cols);
    for (std::size_t r = 0; r < tile.rows; ++r) {
      for (std::size_t w = 0; w < tile.words_per_row; ++w) {
        std::uint64_t word = tile.bits[r * tile.words_per_row + w];
        while (word) {
          const std::size_t bit = static_cast<std::size_t>(__builtin_ctzll(word));
          m.set(r, w * 64 + bit, true);
          word &= word - 1;
        }
      }
    }
    return m.rank();
  }
  ModpMatrix m(tile.rows, tile.cols, prime);
  for (std::size_t r = 0; r < tile.rows; ++r) {
    for (std::size_t c = 0; c < tile.cols; ++c) {
      if (tile.get(r, c)) m.set(r, c, 1);
    }
  }
  return m.rank();
}

TiledRankReport tiled_partition_rank(const TiledRankConfig& cfg) {
  const std::uint64_t bell = checked_bell_u64(cfg.n);
  const std::size_t dimension = static_cast<std::size_t>(bell);
  if (cfg.tile_rows < 1) {
    throw RangeViolationError("tiled rank: tile-rows must be at least 1");
  }
  if (cfg.field == RankField::kModp) {
    BCCLB_REQUIRE(cfg.prime >= 2 && cfg.prime < (1ULL << 30) && is_prime(cfg.prime),
                  "tiled rank needs a prime below 2^30 (deferred reduction bound)");
  }
  const std::size_t K = cfg.tile_rows;
  const std::size_t words = (dimension + 63) / 64;
  const std::size_t row_bytes = cfg.field == RankField::kGf2 ? words * sizeof(std::uint64_t)
                                                             : dimension * sizeof(std::uint32_t);
  const std::size_t tiles_total = (dimension + K - 1) / K;

  // Resident footprint: the packed tile bits, the field-native working tile,
  // the new-segment staging buffer, the four-Russians table, and the pivot
  // chunk buffer (the only part the budget can shrink).
  const std::size_t tile_bits_bytes = K * words * sizeof(std::uint64_t);
  const std::size_t work_bytes = K * row_bytes;
  const std::size_t fixed_bytes =
      tile_bits_bytes + (cfg.field == RankField::kModp ? work_bytes : 0) + work_bytes +
      256 * (cfg.field == RankField::kGf2 ? words * sizeof(std::uint64_t) : 0);
  std::size_t chunk_rows = 4096;
  if (cfg.mem_budget_bytes > 0) {
    const std::size_t min_bytes = fixed_bytes + 8 * row_bytes;
    if (cfg.mem_budget_bytes < min_bytes) {
      throw ResourceBudgetError(
          "tiled rank: one tile of " + std::to_string(K) + " rows needs >= " +
          std::to_string(min_bytes) + " bytes resident but the budget is " +
          std::to_string(cfg.mem_budget_bytes) + " bytes; lower --tile-rows");
    }
    chunk_rows = std::min<std::size_t>(
        chunk_rows, (cfg.mem_budget_bytes - fixed_bytes) / row_bytes);
  }
  chunk_rows = std::max<std::size_t>(chunk_rows, 8);

  std::unique_ptr<PivotStore> store;
  const std::string ckpt_path = cfg.dir.empty() ? std::string() : rank_checkpoint_path(cfg.dir);
  if (cfg.dir.empty()) {
    if (cfg.resume) throw CheckpointError("tiled rank: --resume requires a directory");
    store = std::make_unique<MemoryPivotStore>();
  } else {
    std::error_code ec;
    std::filesystem::create_directories(cfg.dir, ec);
    store = std::make_unique<DiskPivotStore>(cfg.dir);
  }

  const std::string header = rank_header(cfg, dimension, tiles_total);
  RankState st;
  st.chain = fnv1a(header);
  std::vector<std::uint64_t> pivot_cols;  // global insertion order

  if (cfg.resume) {
    st = parse_checkpoint(ckpt_path, header, tiles_total, K, dimension);
    // Re-register every segment, verifying bytes against the recorded
    // digests, and recover the pivot columns from the rows themselves.
    std::vector<std::uint64_t> row_scratch((row_bytes + 7) / 8);
    for (const SegmentMeta& seg : st.segments) {
      const std::string bytes = store->reload_segment(seg.tile_index, seg.rows * row_bytes,
                                                      seg.digest);
      for (std::size_t r = 0; r < seg.rows; ++r) {
        std::memcpy(row_scratch.data(), bytes.data() + r * row_bytes, row_bytes);
        const std::uint64_t lead =
            cfg.field == RankField::kGf2
                ? gf2_lead(row_scratch.data(), words, dimension)
                : modp_lead(reinterpret_cast<const std::uint32_t*>(row_scratch.data()), dimension);
        if (lead >= dimension) bad_checkpoint(ckpt_path, "segment contains an all-zero pivot row");
        pivot_cols.push_back(lead);
      }
    }
  } else if (!ckpt_path.empty() && file_exists(ckpt_path)) {
    throw CheckpointError("tiled rank: " + ckpt_path +
                          " already exists; pass --resume or remove the directory");
  }

  TiledRankReport report;
  report.dimension = dimension;
  report.tiles_total = tiles_total;
  report.tiles_resumed = st.tiles_done;
  report.peak_resident_bytes = fixed_bytes + chunk_rows * row_bytes + store->resident_bytes();

  std::vector<std::uint64_t> chunk;       // u64-aligned; rows in field layout
  std::vector<std::uint64_t> gf2_table;
  std::vector<std::uint64_t> gf2_work;
  std::vector<std::uint32_t> modp_work;
  std::vector<std::uint64_t> gf2_new_seg;   // staged new pivot rows (GF(2))
  std::vector<std::uint32_t> modp_new_seg;  // staged new pivot rows (mod p)
  std::vector<std::uint64_t> new_cols;

  const auto interrupted = [&] { return cfg.interrupt != nullptr && *cfg.interrupt != 0; };

  // Staging holds at most one tile of new pivots; reserving it up front
  // means the insertions below never reallocate under the kernels' reads.
  const std::size_t max_tile_rows = std::min(K, dimension);
  if (cfg.field == RankField::kGf2) {
    gf2_new_seg.reserve(max_tile_rows * words);
  } else {
    modp_new_seg.reserve(max_tile_rows * dimension);
  }

  using Clock = std::chrono::steady_clock;
  const auto elapsed_ns = [](Clock::time_point since) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - since).count());
  };

  while (st.tiles_done < tiles_total) {
    if (interrupted()) break;
    if (cfg.stop_after_tiles > 0 && report.tiles_run >= cfg.stop_after_tiles) break;
    const std::size_t t = st.tiles_done;
    const std::size_t lo = t * K;
    const std::size_t hi = std::min<std::size_t>(dimension, lo + K);
    const std::size_t rows = hi - lo;

    Clock::time_point phase_start = Clock::now();
    JoinTile tile = generate_join_tile(cfg.n, lo, hi, cfg.threads);
    const std::uint64_t tile_ones = tile.ones;
    const std::uint64_t tile_digest = tile.digest;

    // Working representation: GF(2) eliminates the packed words in place;
    // mod p expands to u32 entries (all 0/1 initially) and drops the bits.
    if (cfg.field == RankField::kGf2) {
      gf2_work = std::move(tile.bits);
    } else {
      modp_work.assign(rows * dimension, 0);
      parallel_for_blocks(rows, cfg.threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t word = tile.bits[r * words + w];
            while (word) {
              const std::size_t bit = static_cast<std::size_t>(__builtin_ctzll(word));
              modp_work[r * dimension + w * 64 + bit] = 1;
              word &= word - 1;
            }
          }
        }
      });
      tile.bits.clear();
      tile.bits.shrink_to_fit();
    }
    report.gen_ns += elapsed_ns(phase_start);

    // Phase 1: reduce the whole tile against every prior pivot, streamed in
    // insertion order through the bounded chunk buffer.
    phase_start = Clock::now();
    bool aborted = false;
    std::size_t applied = 0;
    for (std::size_t s = 0; s < st.segments.size() && !aborted; ++s) {
      const SegmentMeta& seg = st.segments[s];
      for (std::size_t cb = 0; cb < seg.rows; cb += chunk_rows) {
        const std::size_t nc = std::min(chunk_rows, seg.rows - cb);
        store->read_rows(s, cb, cb + nc, row_bytes, chunk);
        if (cfg.field == RankField::kGf2) {
          gf2_reduce_rows(gf2_work.data(), rows, words, chunk.data(),
                          pivot_cols.data() + applied, nc, cfg.threads, gf2_table);
        } else {
          modp_reduce_rows(modp_work.data(), rows, dimension, cfg.prime,
                           reinterpret_cast<const std::uint32_t*>(chunk.data()),
                           pivot_cols.data() + applied, nc, cfg.threads);
        }
        applied += nc;
        if (interrupted()) {
          aborted = true;  // the last checkpoint already covers tiles < t
          break;
        }
      }
    }
    report.phase1_ns += elapsed_ns(phase_start);
    if (aborted) break;

    // Phase 2: in-tile insertion in 8-row panels (insert_panels) — the
    // pivot set (and therefore the rank) depends only on the global row
    // order.
    phase_start = Clock::now();
    gf2_new_seg.clear();
    modp_new_seg.clear();
    new_cols.clear();
    if (cfg.field == RankField::kGf2) {
      insert_panels(
          rows, new_cols, cfg.threads,
          [&](std::size_t row, std::size_t nrows, std::size_t first, std::size_t count,
              unsigned threads) {
            gf2_reduce_rows(gf2_work.data() + row * words, nrows, words,
                            gf2_new_seg.data() + first * words, new_cols.data() + first, count,
                            threads, gf2_table);
          },
          [&](std::size_t r) {
            const std::uint64_t* row = gf2_work.data() + r * words;
            const std::uint64_t lead = gf2_lead(row, words, dimension);
            if (lead < dimension) {
              new_cols.push_back(lead);
              gf2_new_seg.insert(gf2_new_seg.end(), row, row + words);
            }
          });
    } else {
      const std::uint64_t p = cfg.prime;
      insert_panels(
          rows, new_cols, cfg.threads,
          [&](std::size_t row, std::size_t nrows, std::size_t first, std::size_t count,
              unsigned threads) {
            modp_reduce_rows(modp_work.data() + row * dimension, nrows, dimension, p,
                             modp_new_seg.data() + first * dimension, new_cols.data() + first,
                             count, threads);
          },
          [&](std::size_t r) {
            std::uint32_t* row = modp_work.data() + r * dimension;
            const std::uint64_t lead = modp_lead(row, dimension);
            if (lead == dimension) return;
            if (row[lead] != 1) {  // normalize so the pivot entry is 1
              const std::uint64_t inv = modp_inverse(row[lead], p);
              for (std::size_t x = lead; x < dimension; ++x) {
                if (row[x] != 0) row[x] = static_cast<std::uint32_t>((row[x] * inv) % p);
              }
            }
            new_cols.push_back(lead);
            modp_new_seg.insert(modp_new_seg.end(), row, row + dimension);
          });
    }
    report.phase2_ns += elapsed_ns(phase_start);

    // Phase 3: persist the segment, extend the digest chain, checkpoint.
    phase_start = Clock::now();
    std::string segment_bytes;
    if (cfg.field == RankField::kGf2 && !gf2_new_seg.empty()) {
      segment_bytes.assign(reinterpret_cast<const char*>(gf2_new_seg.data()),
                           gf2_new_seg.size() * sizeof(std::uint64_t));
    } else if (cfg.field == RankField::kModp && !modp_new_seg.empty()) {
      segment_bytes.assign(reinterpret_cast<const char*>(modp_new_seg.data()),
                           modp_new_seg.size() * sizeof(std::uint32_t));
    }
    const std::uint64_t seg_digest = store->append_segment(t, segment_bytes);
    for (const std::uint64_t c : new_cols) pivot_cols.push_back(c);
    st.segments.push_back({t, new_cols.size(), seg_digest});
    st.rank += new_cols.size();
    st.tiles_done = t + 1;
    {
      std::ostringstream line;
      line << "tile " << t << " rows " << lo << " " << hi << " ones " << tile_ones << " bits "
           << digest_hex(tile_digest) << " pivots " << new_cols.size() << " seg "
           << digest_hex(seg_digest);
      st.tile_lines.push_back(line.str());
      st.chain = fnv1a(digest_hex(st.chain) + "\n" + line.str());
    }
    if (!ckpt_path.empty()) {
      write_snapshot_atomic(ckpt_path, render_checkpoint(header, st));
    }
    report.persist_ns += elapsed_ns(phase_start);
    ++report.tiles_run;
    report.peak_resident_bytes =
        std::max(report.peak_resident_bytes,
                 fixed_bytes + chunk_rows * row_bytes + store->resident_bytes());
    if (cfg.progress) cfg.progress(st.tiles_done, tiles_total, st.rank);
    if (cfg.inter_tile_delay_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(cfg.inter_tile_delay_ns));
    }
  }

  report.rank = st.rank;
  report.complete = st.tiles_done == tiles_total;
  report.full_rank = report.complete && st.rank == dimension;
  report.certificate_digest = digest_hex(st.chain);
  return report;
}

}  // namespace bcclb
