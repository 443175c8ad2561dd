#include "minipetsc/csr_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "minipetsc/mat_gen.hpp"

namespace {

using minipetsc::CsrMatrix;
using minipetsc::Vec;

CsrMatrix identity3() {
  return CsrMatrix::from_triplets(3, 3, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}});
}

TEST(Csr, ShapeAndNnz) {
  const auto m = identity3();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
}

TEST(Csr, MultiplyIdentity) {
  const auto m = identity3();
  Vec y;
  m.multiply(Vec{1, 2, 3}, y);
  EXPECT_EQ(y, (Vec{1, 2, 3}));
}

TEST(Csr, MultiplyGeneral) {
  const auto m =
      CsrMatrix::from_triplets(2, 2, {{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}});
  Vec y;
  m.multiply(Vec{5, 6}, y);
  EXPECT_EQ(y, (Vec{17, 39}));
}

TEST(Csr, MultiplyTranspose) {
  const auto m = CsrMatrix::from_triplets(2, 3, {{0, 1, 2}, {1, 2, 5}});
  Vec y;
  m.multiply_transpose(Vec{1, 1}, y);
  EXPECT_EQ(y, (Vec{0, 2, 5}));
}

TEST(Csr, DuplicateTripletsSummed) {
  const auto m = CsrMatrix::from_triplets(1, 1, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
}

TEST(Csr, RectangularShape) {
  const auto m = CsrMatrix::from_triplets(2, 5, {{1, 4, 7.0}});
  Vec y;
  m.multiply(Vec{0, 0, 0, 0, 1}, y);
  EXPECT_EQ(y, (Vec{0, 7}));
}

TEST(Csr, AtMissingEntryIsZero) {
  const auto m = identity3();
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(Csr, AtOutOfRangeThrows) {
  const auto m = identity3();
  EXPECT_THROW((void)m.at(3, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, -1), std::out_of_range);
}

TEST(Csr, TripletOutOfRangeThrows) {
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, {{0, -1, 1.0}}),
               std::invalid_argument);
}

TEST(Csr, Diagonal) {
  const auto m = CsrMatrix::from_triplets(2, 2, {{0, 0, 4}, {0, 1, 1}, {1, 1, 9}});
  EXPECT_EQ(m.diagonal(), (Vec{4, 9}));
}

TEST(Csr, DiagonalWithMissingEntries) {
  const auto m = CsrMatrix::from_triplets(2, 2, {{0, 1, 1.0}});
  EXPECT_EQ(m.diagonal(), (Vec{0, 0}));
}

TEST(Csr, NnzInRows) {
  const auto m = CsrMatrix::from_triplets(
      3, 3, {{0, 0, 1}, {0, 1, 1}, {1, 1, 1}, {2, 0, 1}, {2, 1, 1}, {2, 2, 1}});
  EXPECT_EQ(m.nnz_in_rows(0, 1), 2);
  EXPECT_EQ(m.nnz_in_rows(1, 3), 4);
  EXPECT_EQ(m.nnz_in_rows(0, 3), 6);
  EXPECT_THROW((void)m.nnz_in_rows(2, 1), std::invalid_argument);
}

TEST(Csr, RowExtentIsSmallestAndLargestColumn) {
  // Unordered, duplicated triplets; row 1 is empty.
  const auto m = CsrMatrix::from_triplets(
      3, 4, {{2, 3, 1}, {0, 2, 1}, {2, 1, 1}, {0, 2, 1}, {2, 3, 1}});
  EXPECT_EQ(m.row_extent(0).first, 2);
  EXPECT_EQ(m.row_extent(0).last, 2);
  EXPECT_EQ(m.row_extent(2).first, 1);
  EXPECT_EQ(m.row_extent(2).last, 3);
  // An empty row lies inside every column range.
  EXPECT_GT(m.row_extent(1).first, m.row_extent(1).last);
  EXPECT_GE(m.row_extent(1).first, 4);
  EXPECT_LT(m.row_extent(1).last, 0);
}

TEST(Csr, FrobeniusNorm) {
  const auto m = CsrMatrix::from_triplets(2, 2, {{0, 0, 3}, {1, 1, 4}});
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Csr, SymmetryDetection) {
  const auto sym =
      CsrMatrix::from_triplets(2, 2, {{0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 2}});
  EXPECT_TRUE(sym.is_symmetric());
  const auto asym = CsrMatrix::from_triplets(2, 2, {{0, 1, 5.0}});
  EXPECT_FALSE(asym.is_symmetric());
}

TEST(Csr, MultiplySizeMismatchThrows) {
  const auto m = identity3();
  Vec y;
  EXPECT_THROW(m.multiply(Vec{1, 2}, y), std::invalid_argument);
  EXPECT_THROW(m.multiply_transpose(Vec{1, 2}, y), std::invalid_argument);
}

TEST(Csr, EmptyMatrix) {
  const auto m = CsrMatrix::from_triplets(0, 0, {});
  EXPECT_EQ(m.nnz(), 0);
  Vec y;
  m.multiply(Vec{}, y);
  EXPECT_TRUE(y.empty());
}

using Triplets = std::vector<std::tuple<int, int, double>>;

/// CSR arrays built the way from_triplets used to: one std::sort of every
/// (row, col, value) tuple by (row, col), then duplicates summed.
struct ReferenceCsr {
  std::vector<std::int64_t> row_ptr;
  std::vector<int> col_idx;
  std::vector<double> vals;
};

ReferenceCsr reference_csr(int rows, Triplets t) {
  std::sort(t.begin(), t.end(), [](const auto& a, const auto& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) <
           std::tie(std::get<0>(b), std::get<1>(b));
  });
  ReferenceCsr out;
  out.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (std::size_t i = 0; i < t.size();) {
    const int r = std::get<0>(t[i]);
    const int c = std::get<1>(t[i]);
    double sum = 0.0;
    for (; i < t.size() && std::get<0>(t[i]) == r && std::get<1>(t[i]) == c; ++i) {
      sum += std::get<2>(t[i]);
    }
    out.col_idx.push_back(c);
    out.vals.push_back(sum);
    ++out.row_ptr[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    out.row_ptr[r + 1] += out.row_ptr[r];
  }
  return out;
}

/// Build both ways and compare: identical structure and column extents;
/// identical values where a (row, col) had one entry, and within rounding
/// where duplicates were summed (the old sort summed them in an unspecified
/// order, the new one in input order).
void expect_matches_reference(int rows, int cols, const Triplets& t) {
  std::map<std::pair<int, int>, int> entries;
  for (const auto& [r, c, v] : t) ++entries[{r, c}];
  const auto ref = reference_csr(rows, t);
  const auto m = CsrMatrix::from_triplets(rows, cols, t);
  ASSERT_EQ(m.row_ptr(), ref.row_ptr);
  ASSERT_EQ(m.col_idx(), ref.col_idx);
  ASSERT_EQ(m.values().size(), ref.vals.size());
  for (int r = 0; r < rows; ++r) {
    const auto row = static_cast<std::size_t>(r);
    const auto lo = static_cast<std::size_t>(ref.row_ptr[row]);
    const auto hi = static_cast<std::size_t>(ref.row_ptr[row + 1]);
    if (lo < hi) {
      EXPECT_EQ(m.row_extent(r).first, ref.col_idx[lo]) << r;
      EXPECT_EQ(m.row_extent(r).last, ref.col_idx[hi - 1]) << r;
    }
    for (std::size_t k = lo; k < hi; ++k) {
      if (entries[{r, ref.col_idx[k]}] == 1) {
        EXPECT_EQ(m.values()[k], ref.vals[k]) << r << "," << ref.col_idx[k];
      } else {
        EXPECT_NEAR(m.values()[k], ref.vals[k], 1e-12 * (1.0 + std::abs(ref.vals[k])));
      }
    }
  }
}

/// A generated matrix's entries as triplets, in a shuffled order.
Triplets shuffled_triplets(const CsrMatrix& a, std::uint64_t seed) {
  Triplets t;
  for (int r = 0; r < a.rows(); ++r) {
    for (auto k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      t.emplace_back(r, a.col_idx()[static_cast<std::size_t>(k)],
                     a.values()[static_cast<std::size_t>(k)]);
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(t.begin(), t.end(), rng);
  return t;
}

TEST(Csr, FromTripletsMatchesSortReferenceOnGenerators) {
  const std::vector<CsrMatrix> generated = {
      minipetsc::laplacian2d(17, 11), minipetsc::laplacian1d(40),
      minipetsc::dense_block_matrix({3, 5, 8}, 0.25),
      minipetsc::random_spd(60, 4, 9), minipetsc::variable_band_spd(90, 2, 12)};
  std::uint64_t seed = 1;
  for (const auto& a : generated) {
    const auto t = shuffled_triplets(a, seed++);
    expect_matches_reference(a.rows(), a.cols(), t);
    // Rebuilding a generated matrix from its own entries reproduces it.
    const auto b = CsrMatrix::from_triplets(a.rows(), a.cols(), t);
    EXPECT_EQ(b.row_ptr(), a.row_ptr());
    EXPECT_EQ(b.col_idx(), a.col_idx());
    EXPECT_EQ(b.values(), a.values());
  }
}

TEST(Csr, FromTripletsMatchesSortReferenceOnRandomDuplicates) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int rows = 1 + static_cast<int>(rng() % 30);
    const int cols = 1 + static_cast<int>(rng() % 30);
    // Few distinct columns per row, so many (row, col) pairs repeat.
    Triplets t;
    const auto n = static_cast<std::size_t>(rng() % 200);
    for (std::size_t i = 0; i < n; ++i) {
      const int r = static_cast<int>(rng() % static_cast<std::uint64_t>(rows));
      const int c =
          static_cast<int>(rng() % static_cast<std::uint64_t>(std::min(cols, 6)));
      const double v = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
      t.emplace_back(r, c, v);
    }
    expect_matches_reference(rows, cols, t);
  }
}

TEST(Csr, DuplicatesAreSummedInInputOrder) {
  // 1e16 + 1 - 1e16 depends on the order of the sum: in input order the 1
  // is absorbed (0), the other way round it survives.
  const auto m = CsrMatrix::from_triplets(
      2, 2, {{1, 1, 7.0}, {0, 1, 1e16}, {0, 1, 1.0}, {0, 0, 2.0}, {0, 1, -1e16}});
  EXPECT_EQ(m.at(0, 1), (1e16 + 1.0) - 1e16);
  EXPECT_EQ(m.at(0, 0), 2.0);
  EXPECT_EQ(m.at(1, 1), 7.0);
  EXPECT_EQ(m.nnz(), 3);
}

}  // namespace
