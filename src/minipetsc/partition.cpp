#include "minipetsc/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace minipetsc {

RowPartition RowPartition::even(int n, int nranks) {
  if (n < nranks || nranks < 1) {
    throw std::invalid_argument("RowPartition::even: need n >= nranks >= 1");
  }
  std::vector<int> b;
  b.reserve(static_cast<std::size_t>(nranks) - 1);
  for (int k = 1; k < nranks; ++k) {
    b.push_back(static_cast<int>(static_cast<std::int64_t>(n) * k / nranks));
  }
  return from_boundaries(n, nranks, std::move(b));
}

RowPartition RowPartition::from_boundaries(int n, int nranks,
                                           std::vector<int> boundaries) {
  if (n < 1 || nranks < 1) {
    throw std::invalid_argument("RowPartition: bad n/nranks");
  }
  if (static_cast<int>(boundaries.size()) != nranks - 1) {
    throw std::invalid_argument("RowPartition: need nranks-1 boundaries");
  }
  int prev = 0;
  for (const int b : boundaries) {
    if (b <= prev || b >= n) {
      throw std::invalid_argument("RowPartition: boundaries must be strictly "
                                  "increasing within (0, n)");
    }
    prev = b;
  }
  RowPartition p;
  p.n_ = n;
  p.nranks_ = nranks;
  p.boundaries_ = std::move(boundaries);
  return p;
}

int RowPartition::owner(int row) const {
  if (row < 0 || row >= n_) throw std::out_of_range("RowPartition::owner");
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), row);
  return static_cast<int>(std::distance(boundaries_.begin(), it));
}

std::pair<int, int> RowPartition::range(int rank) const {
  if (rank < 0 || rank >= nranks_) throw std::out_of_range("RowPartition::range");
  const int lo = rank == 0 ? 0 : boundaries_[static_cast<std::size_t>(rank) - 1];
  const int hi = rank == nranks_ - 1 ? n_ : boundaries_[static_cast<std::size_t>(rank)];
  return {lo, hi};
}

int RowPartition::rows_of(int rank) const {
  const auto [lo, hi] = range(rank);
  return hi - lo;
}

std::int64_t PartitionStats::total_halo_values() const {
  std::int64_t total = 0;
  for (const auto& [pair, count] : halo_counts) total += count;
  return total;
}

double PartitionStats::nnz_imbalance() const {
  if (nnz_per_rank.empty()) return 1.0;
  std::int64_t max_nnz = 0;
  std::int64_t sum_nnz = 0;
  for (const auto v : nnz_per_rank) {
    max_nnz = std::max(max_nnz, v);
    sum_nnz += v;
  }
  const double mean = static_cast<double>(sum_nnz) /
                      static_cast<double>(nnz_per_rank.size());
  return mean > 0.0 ? static_cast<double>(max_nnz) / mean : 1.0;
}

PartitionStats analyze(const CsrMatrix& A, const RowPartition& part) {
  if (A.rows() != part.rows()) {
    throw std::invalid_argument("analyze: matrix/partition size mismatch");
  }
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("analyze: matrix must be square");
  }
  PartitionStats stats;
  const int nranks = part.nranks();
  stats.rows_per_rank.resize(static_cast<std::size_t>(nranks));
  stats.nnz_per_rank.resize(static_cast<std::size_t>(nranks));

  const auto& row_ptr = A.row_ptr();
  const auto& col_idx = A.col_idx();
  const auto& bounds = part.boundaries();

  // stamp[c] == rank once column c is in `external` for this rank.
  std::vector<int> stamp(static_cast<std::size_t>(A.cols()), -1);
  std::vector<int> external;

  for (int rank = 0; rank < nranks; ++rank) {
    const auto [lo, hi] = part.range(rank);
    stats.rows_per_rank[static_cast<std::size_t>(rank)] = hi - lo;
    stats.nnz_per_rank[static_cast<std::size_t>(rank)] = A.nnz_in_rows(lo, hi);

    // Distinct external columns referenced by this rank's rows, grouped by
    // owning rank: these are the vector values that must arrive before the
    // local SpMV can complete. Columns are sorted within a row, so the
    // external ones are a prefix (< lo) and a suffix (>= hi), and a row
    // whose extent lies in [lo, hi) has none.
    external.clear();
    const auto take = [&](int c) {
      if (stamp[static_cast<std::size_t>(c)] != rank) {
        stamp[static_cast<std::size_t>(c)] = rank;
        external.push_back(c);
      }
    };
    for (int r = lo; r < hi; ++r) {
      const auto ext = A.row_extent(r);
      if (ext.first >= lo && ext.last < hi) continue;
      const int* first = col_idx.data() + row_ptr[static_cast<std::size_t>(r)];
      const int* last = col_idx.data() + row_ptr[static_cast<std::size_t>(r) + 1];
      for (; first != last && *first < lo; ++first) take(*first);
      for (; last != first && *(last - 1) >= hi; --last) take(*(last - 1));
    }
    std::sort(external.begin(), external.end());

    // The owner of a column is the number of boundaries at or below it, so
    // one walk over the boundaries assigns every sorted column.
    int src = 0;
    std::int64_t count = 0;
    const auto flush = [&] {
      if (count > 0) stats.halo_counts.emplace(std::pair{src, rank}, count);
      count = 0;
    };
    for (const int c : external) {
      while (src < nranks - 1 && bounds[static_cast<std::size_t>(src)] <= c) {
        flush();
        ++src;
      }
      ++count;
    }
    flush();
  }
  return stats;
}

}  // namespace minipetsc
