#pragma once

/// \file partition.hpp
/// Row decomposition of a matrix across ranks — the tunable of the paper's
/// first PETSc case study. A partition is defined by nranks-1 strictly
/// increasing boundary rows ("the boundary is read from a configuration file
/// instead of hard-coded", Section IV). analyze() derives exactly the
/// quantities that determine parallel performance: per-rank row/nonzero
/// counts (load balance) and the halo values each rank must receive for an
/// SpMV (communication volume).

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "minipetsc/csr_matrix.hpp"

namespace minipetsc {

class RowPartition {
 public:
  /// Even split of n rows over nranks (the paper's default configuration).
  [[nodiscard]] static RowPartition even(int n, int nranks);

  /// Explicit boundaries: rank k owns rows [b[k-1], b[k]) with b[-1]=0 and
  /// b[nranks-1]=n. Boundaries must be strictly increasing in (0, n); each
  /// rank owns at least one row. Throws std::invalid_argument otherwise.
  [[nodiscard]] static RowPartition from_boundaries(int n, int nranks,
                                                    std::vector<int> boundaries);

  [[nodiscard]] int rows() const noexcept { return n_; }
  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] const std::vector<int>& boundaries() const noexcept {
    return boundaries_;
  }

  /// Owning rank of a row.
  [[nodiscard]] int owner(int row) const;

  /// Half-open row range [lo, hi) owned by a rank.
  [[nodiscard]] std::pair<int, int> range(int rank) const;

  [[nodiscard]] int rows_of(int rank) const;

 private:
  int n_ = 0;
  int nranks_ = 0;
  std::vector<int> boundaries_;  // size nranks-1
};

/// Performance-relevant statistics of (matrix, partition).
struct PartitionStats {
  std::vector<int> rows_per_rank;
  std::vector<std::int64_t> nnz_per_rank;

  /// halo_counts[{src,dst}] = number of distinct vector entries rank `src`
  /// must send to rank `dst` for one SpMV.
  std::map<std::pair<int, int>, std::int64_t> halo_counts;

  [[nodiscard]] std::int64_t total_halo_values() const;

  /// max nnz per rank / mean nnz per rank — the load-balance figure of merit.
  [[nodiscard]] double nnz_imbalance() const;
};

/// Cost: O(rows + nranks^2), plus one read per external entry of a boundary
/// row (a row whose column extent leaves its rank's range), plus sorting each
/// rank's distinct external columns. Interior rows are skipped on their
/// extent, so the cost follows the halo, not nnz. Allocates one int per column.
[[nodiscard]] PartitionStats analyze(const CsrMatrix& A, const RowPartition& part);

}  // namespace minipetsc
