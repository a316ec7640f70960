// Tests for GF(2) and mod-p matrix ranks.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "linalg/gf2_matrix.h"
#include "linalg/modp_matrix.h"
#include "partition/join_matrix.h"

namespace bcclb {
namespace {

BoolMatrix bool_matrix(std::size_t rows, std::size_t cols,
                       std::initializer_list<std::uint8_t> entries) {
  BoolMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.data.assign(entries);
  return m;
}

TEST(Gf2Matrix, IdentityFullRank) {
  Gf2Matrix m(5, 5);
  for (std::size_t i = 0; i < 5; ++i) m.set(i, i, true);
  EXPECT_EQ(m.rank(), 5u);
}

TEST(Gf2Matrix, ZeroRankZero) {
  Gf2Matrix m(4, 6);
  EXPECT_EQ(m.rank(), 0u);
}

TEST(Gf2Matrix, DuplicateRowsLoseRank) {
  const auto bm = bool_matrix(3, 3, {1, 0, 1, 1, 0, 1, 0, 1, 0});
  EXPECT_EQ(Gf2Matrix::from_bool_matrix(bm).rank(), 2u);
}

TEST(Gf2Matrix, RankAtMostMinDim) {
  Rng rng(5);
  Gf2Matrix m(7, 3);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 3; ++c) m.set(r, c, rng.next_bool());
  }
  EXPECT_LE(m.rank(), 3u);
}

TEST(Gf2Matrix, WideMatrixBeyondOneWord) {
  // 100 columns crosses the 64-bit word boundary.
  Gf2Matrix m(100, 100);
  for (std::size_t i = 0; i < 100; ++i) m.set(i, 99 - i, true);
  EXPECT_EQ(m.rank(), 100u);
}

TEST(Gf2Matrix, GetSetRoundTrip) {
  Gf2Matrix m(2, 70);
  m.set(1, 65, true);
  EXPECT_TRUE(m.get(1, 65));
  m.set(1, 65, false);
  EXPECT_FALSE(m.get(1, 65));
  EXPECT_THROW(m.get(2, 0), std::invalid_argument);
}

// Column-at-a-time reference elimination (the pre-four-Russians algorithm),
// the ground truth the striped implementation must reproduce exactly.
std::size_t schoolbook_gf2_rank(const Gf2Matrix& m) {
  const std::size_t rows = m.rows(), cols = m.cols();
  std::vector<std::vector<bool>> work(rows, std::vector<bool>(cols));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) work[r][c] = m.get(r, c);
  }
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < rows; ++col) {
    std::size_t pivot = rows;
    for (std::size_t r = rank; r < rows; ++r) {
      if (work[r][col]) {
        pivot = r;
        break;
      }
    }
    if (pivot == rows) continue;
    std::swap(work[pivot], work[rank]);
    for (std::size_t r = rank + 1; r < rows; ++r) {
      if (work[r][col]) {
        for (std::size_t c = col; c < cols; ++c) work[r][c] = work[r][c] ^ work[rank][c];
      }
    }
    ++rank;
  }
  return rank;
}

Gf2Matrix random_gf2(std::size_t rows, std::size_t cols, double density, Rng& rng) {
  Gf2Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.next_bernoulli(density)) m.set(r, c, true);
    }
  }
  return m;
}

TEST(Gf2Matrix, FourRussiansMatchesSchoolbookOnRandomShapes) {
  Rng rng(33);
  // Shapes chosen to hit every stripe path: partial final stripes, more
  // rows than table entries and fewer, multi-word rows, tall and wide.
  const std::size_t shapes[][2] = {{1, 1},  {7, 13},   {64, 64},  {65, 100},
                                   {100, 65}, {300, 40}, {40, 300}, {129, 129}};
  for (const auto& s : shapes) {
    for (double density : {0.05, 0.5, 0.95}) {
      const Gf2Matrix m = random_gf2(s[0], s[1], density, rng);
      EXPECT_EQ(m.rank(), schoolbook_gf2_rank(m))
          << s[0] << "x" << s[1] << " density " << density;
    }
  }
}

TEST(Gf2Matrix, RankIsIdenticalAtEveryThreadCount) {
  Rng rng(34);
  const Gf2Matrix m = random_gf2(400, 300, 0.3, rng);
  const std::size_t serial = m.rank(1);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(m.rank(threads), serial) << "threads=" << threads;
  }
}

TEST(ModpMatrix, RankIsIdenticalAtEveryThreadCount) {
  Rng rng(35);
  BoolMatrix bm;
  bm.rows = bm.cols = 120;
  bm.data.resize(bm.rows * bm.cols);
  for (auto& x : bm.data) x = rng.next_bool() ? 1 : 0;
  const ModpMatrix m = ModpMatrix::from_bool_matrix(bm, kPrime30A);
  const std::size_t serial = m.rank(1);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(m.rank(threads), serial) << "threads=" << threads;
  }
}

TEST(RankCrossCheck, Gf2VsModpOnRandomJoinSubmatrices) {
  // Random principal submatrices of the join matrix M_6. Both ranks lower-
  // bound the rational rank; GF(2) can lose genuinely more (M_n itself has
  // GF(2) rank 2^{n-1}), so the contract is rank_gf2 <= rank_modp, with
  // equality forced whenever GF(2) already certifies full rank.
  const BoolMatrix m6 = partition_join_matrix(6);
  Rng rng(36);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < m6.rows; ++i) {
      if (rng.next_bernoulli(0.3)) keep.push_back(i);
    }
    if (keep.empty()) continue;
    BoolMatrix sub;
    sub.rows = sub.cols = keep.size();
    sub.data.resize(keep.size() * keep.size());
    for (std::size_t r = 0; r < keep.size(); ++r) {
      for (std::size_t c = 0; c < keep.size(); ++c) {
        sub.at(r, c) = m6.at(keep[r], keep[c]);
      }
    }
    const std::size_t r2 = Gf2Matrix::from_bool_matrix(sub).rank();
    const std::size_t rp = ModpMatrix::from_bool_matrix(sub, kPrime30A).rank();
    EXPECT_LE(r2, rp) << "trial " << trial << " dim " << keep.size();
    if (r2 == keep.size()) {
      EXPECT_EQ(rp, keep.size());
    }
  }
}

TEST(ModpMatrix, IdentityFullRank) {
  ModpMatrix m(6, 6, kPrime30A);
  for (std::size_t i = 0; i < 6; ++i) m.set(i, i, 1 + i);
  EXPECT_EQ(m.rank(), 6u);
}

TEST(ModpMatrix, SingularExample) {
  // Row3 = Row1 + Row2 over the integers, hence mod p.
  ModpMatrix m(3, 3, kPrime30A);
  const std::uint64_t rows[3][3] = {{1, 2, 3}, {4, 5, 6}, {5, 7, 9}};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) m.set(r, c, rows[r][c]);
  }
  EXPECT_EQ(m.rank(), 2u);
}

TEST(ModpMatrix, InverseIsCorrect) {
  for (std::uint64_t x : std::initializer_list<std::uint64_t>{2, 3, 123456, kPrime30A - 1}) {
    const std::uint64_t inv = modp_inverse(x, kPrime30A);
    EXPECT_EQ((static_cast<unsigned __int128>(x) * inv) % kPrime30A, 1u);
  }
  EXPECT_THROW(modp_inverse(0, kPrime30A), std::invalid_argument);
}

TEST(ModpMatrix, AgreesWithGf2OnRandomFullRank) {
  // A random 0/1 matrix that is full rank over GF(2) must be full rank over
  // GF(p) too (odd determinant is nonzero mod a large prime? No — only
  // nonzero over Q; mod p it could vanish, but for random p that event has
  // probability ~det/p and our dims keep det far below p^2 overflow; we only
  // assert rank_modp >= rank over Q is impossible, i.e. modp <= dimension).
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    BoolMatrix bm;
    bm.rows = bm.cols = 12;
    bm.data.resize(144);
    for (auto& x : bm.data) x = rng.next_bool() ? 1 : 0;
    const std::size_t r2 = Gf2Matrix::from_bool_matrix(bm).rank();
    const std::size_t rp = ModpMatrix::from_bool_matrix(bm, kPrime30A).rank();
    // Rational rank >= both; and GF(2) full rank implies rational full rank.
    EXPECT_LE(r2, 12u);
    EXPECT_LE(rp, 12u);
    if (r2 == 12u) {
      EXPECT_EQ(rp, 12u);
    }
  }
}

TEST(ModpMatrix, TwoPrimesAgreeOnIntegerMatrix) {
  Rng rng(21);
  BoolMatrix bm;
  bm.rows = bm.cols = 10;
  bm.data.resize(100);
  for (auto& x : bm.data) x = rng.next_bool() ? 1 : 0;
  EXPECT_EQ(ModpMatrix::from_bool_matrix(bm, kPrime30A).rank(),
            ModpMatrix::from_bool_matrix(bm, kPrime30B).rank());
}

}  // namespace
}  // namespace bcclb
