#include "minipetsc/csr_matrix.hpp"

#include <gtest/gtest.h>

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

}  // namespace
