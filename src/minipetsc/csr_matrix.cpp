#include "minipetsc/csr_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace minipetsc {

CsrMatrix CsrMatrix::from_triplets(
    int rows, int cols, std::vector<std::tuple<int, int, double>> triplets) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("CsrMatrix: negative shape");
  for (const auto& [r, c, v] : triplets) {
    (void)v;
    if (r < 0 || r >= rows || c < 0 || c >= cols) {
      throw std::invalid_argument("CsrMatrix: triplet index out of range");
    }
  }

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.extent_.resize(static_cast<std::size_t>(rows));

  // Counting pass: bucket the entries by row, input order kept within each
  // row — O(nnz) instead of sorting every tuple.
  std::vector<std::int64_t> start(static_cast<std::size_t>(rows) + 1, 0);
  for (const auto& t : triplets) ++start[static_cast<std::size_t>(std::get<0>(t)) + 1];
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    start[r + 1] += start[r];
  }
  m.col_idx_.resize(triplets.size());
  m.vals_.resize(triplets.size());
  {
    std::vector<std::int64_t> next(start.begin(), start.end() - 1);
    for (const auto& [r, c, v] : triplets) {
      const auto at = static_cast<std::size_t>(next[static_cast<std::size_t>(r)]++);
      m.col_idx_[at] = c;
      m.vals_[at] = v;
    }
  }
  std::vector<std::tuple<int, int, double>>().swap(triplets);

  // Per row: a stable sort by column, so duplicates are summed in input
  // order, then compaction in place (a row never writes past its start).
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<std::pair<int, double>> row;
  std::size_t out = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    row.clear();
    for (auto k = static_cast<std::size_t>(start[r]);
         k < static_cast<std::size_t>(start[r + 1]); ++k) {
      row.emplace_back(m.col_idx_[k], m.vals_[k]);
    }
    std::stable_sort(row.begin(), row.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t k = 0; k < row.size();) {
      const int c = row[k].first;
      double sum = 0.0;
      for (; k < row.size() && row[k].first == c; ++k) sum += row[k].second;
      m.col_idx_[out] = c;
      m.vals_[out] = sum;
      ++out;
    }
    if (!row.empty()) m.extent_[r] = {row.front().first, row.back().first};
    m.row_ptr_[r + 1] = static_cast<std::int64_t>(out);
  }
  m.col_idx_.resize(out);
  m.vals_.resize(out);
  return m;
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  if (static_cast<int>(x.size()) != cols_) {
    throw std::invalid_argument("CsrMatrix::multiply: x size mismatch");
  }
  y.assign(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (auto k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      sum += vals_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

void CsrMatrix::multiply_transpose(const Vec& x, Vec& y) const {
  if (static_cast<int>(x.size()) != rows_) {
    throw std::invalid_argument("CsrMatrix::multiply_transpose: x size mismatch");
  }
  y.assign(static_cast<std::size_t>(cols_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double xr = x[static_cast<std::size_t>(r)];
    for (auto k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      y[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] +=
          vals_[static_cast<std::size_t>(k)] * xr;
    }
  }
}

Vec CsrMatrix::diagonal() const {
  Vec d(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_ && r < cols_; ++r) {
    d[static_cast<std::size_t>(r)] = at(r, r);
  }
  return d;
}

double CsrMatrix::at(int r, int c) const {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_) {
    throw std::out_of_range("CsrMatrix::at");
  }
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(
                                            row_ptr_[static_cast<std::size_t>(r)]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(
                                          row_ptr_[static_cast<std::size_t>(r) + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return vals_[static_cast<std::size_t>(
      row_ptr_[static_cast<std::size_t>(r)] + std::distance(begin, it))];
}

std::int64_t CsrMatrix::nnz_in_rows(int lo, int hi) const {
  if (lo < 0 || hi > rows_ || lo > hi) {
    throw std::invalid_argument("nnz_in_rows: bad range");
  }
  return row_ptr_[static_cast<std::size_t>(hi)] -
         row_ptr_[static_cast<std::size_t>(lo)];
}

double CsrMatrix::frobenius_norm() const {
  double s = 0.0;
  for (const double v : vals_) s += v * v;
  return std::sqrt(s);
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (int r = 0; r < rows_; ++r) {
    for (auto k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = col_idx_[static_cast<std::size_t>(k)];
      if (std::abs(vals_[static_cast<std::size_t>(k)] - at(c, r)) > tol) return false;
    }
  }
  return true;
}

}  // namespace minipetsc
