#include "minipetsc/perf_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "minipetsc/mat_gen.hpp"
#include "simcluster/presets.hpp"

namespace {

using namespace minipetsc;
using simcluster::Machine;

TEST(PerfModel, SpmvPhaseShape) {
  const auto A = laplacian1d(100);
  const auto part = RowPartition::even(100, 4);
  const auto stats = analyze(A, part);
  const auto phase = spmv_phase(stats);
  EXPECT_EQ(phase.compute_ref_s.size(), 4u);
  // Tridiagonal split into 4: 3 boundaries, each with 2 messages.
  EXPECT_EQ(phase.messages.size(), 6u);
  for (const auto t : phase.compute_ref_s) EXPECT_GT(t, 0.0);
}

TEST(PerfModel, CgIterationAddsReductions) {
  const auto A = laplacian1d(100);
  const auto stats = analyze(A, RowPartition::even(100, 4));
  const auto phase = cg_iteration_phase(stats);
  EXPECT_EQ(phase.allreduce_count, 2);
  EXPECT_GT(phase.compute_ref_s[0], spmv_phase(stats).compute_ref_s[0]);
}

TEST(PerfModel, BalancedPartitionBeatsSkewed) {
  const auto A = laplacian2d(40, 40);
  const auto machine = Machine::homogeneous(4, 1);
  const auto even = analyze(A, RowPartition::even(1600, 4));
  const auto skew = analyze(A, RowPartition::from_boundaries(1600, 4, {1000, 1200, 1400}));
  EXPECT_LT(simulate_sles(machine, even, 100).total_s,
            simulate_sles(machine, skew, 100).total_s);
}

TEST(PerfModel, BlockAlignedDecompositionFaster) {
  // The Fig. 2 story end-to-end: aligned boundaries -> less halo -> faster.
  const auto A = dense_block_matrix({50, 50, 50, 50}, 0.1);
  const auto machine = simcluster::presets::pentium4_quad();
  const auto aligned = analyze(A, RowPartition::from_boundaries(200, 4, {50, 100, 150}));
  const auto cut = analyze(A, RowPartition::from_boundaries(200, 4, {25, 100, 175}));
  EXPECT_LT(simulate_sles(machine, aligned, 50).total_s,
            simulate_sles(machine, cut, 50).total_s);
}

TEST(PerfModel, TimeScalesWithIterations) {
  const auto A = laplacian1d(200);
  const auto stats = analyze(A, RowPartition::even(200, 4));
  const auto machine = Machine::homogeneous(4, 1);
  const double t10 = simulate_sles(machine, stats, 10).total_s;
  const double t100 = simulate_sles(machine, stats, 100).total_s;
  EXPECT_NEAR(t100 / t10, 10.0, 0.5);
}

TEST(PerfModel, BadIterationCountThrows) {
  const auto A = laplacian1d(10);
  const auto stats = analyze(A, RowPartition::even(10, 2));
  const auto machine = Machine::homogeneous(2, 1);
  EXPECT_THROW((void)simulate_sles(machine, stats, 0), std::invalid_argument);
}

// Fig. 2b partition from 32 seeded per-rank weights in [1, 200], built the
// way the tuned Fig. 2b space maps weights to the 31 row boundaries.
RowPartition fig2b_weight_partition(std::uint64_t seed) {
  constexpr int n = 21025;
  constexpr int nranks = 32;
  harmony::Rng rng(seed);
  std::vector<std::int64_t> w(nranks);
  double total = 0;
  for (auto& v : w) {
    v = rng.uniform_int(1, 200);
    total += static_cast<double>(v);
  }
  std::vector<int> bounds;
  double cum = 0;
  for (int i = 0; i < nranks - 1; ++i) {
    cum += static_cast<double>(w[static_cast<std::size_t>(i)]);
    int b = static_cast<int>(std::lround(n * cum / total));
    const int lo = bounds.empty() ? 1 : bounds.back() + 1;
    b = std::clamp(b, lo, n - (nranks - 1 - i));
    bounds.push_back(b);
  }
  return RowPartition::from_boundaries(n, nranks, bounds);
}

TEST(PerfModel, Fig2bObjectiveIsPinned) {
  // The 32-rank objective of the Fig. 2b search, bitwise: any change to
  // analyze() or the SLES model that moves a halo count or a rounding shows
  // here (the golden trajectories only cover a 160-row, 4-rank matrix).
  const auto A = variable_band_spd(21025, 4, 120);
  const auto machine = simcluster::presets::cluster32();
  const auto total_s = [&](const RowPartition& p) {
    return simulate_sles(machine, analyze(A, p), 120).total_s;
  };
  EXPECT_EQ(total_s(RowPartition::even(21025, 32)), 0x1.075423e04ba16p-5);
  struct Case {
    std::uint64_t seed;
    double total_s;
  };
  const Case cases[] = {
      {1, 0x1.8a0fd57cbb591p-5},  {2, 0x1.72dfffbdc9322p-5},
      {3, 0x1.4edc5c0bef777p-5},  {5, 0x1.5c9793e939ce4p-5},
      {8, 0x1.4f8eecd0b1973p-5},  {13, 0x1.823422467be54p-5},
      {21, 0x1.a6ccfa8bbe815p-5}, {34, 0x1.a0db2c610700fp-5},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(total_s(fig2b_weight_partition(c.seed)), c.total_s) << "seed " << c.seed;
  }
}

TEST(PerfModel, ResidualPhaseStripMessages) {
  const auto da = Da2D::even_strips(50, 40, 4);
  const auto phase = residual_phase(da);
  EXPECT_EQ(phase.compute_ref_s.size(), 4u);
  EXPECT_EQ(phase.messages.size(), 6u);  // 3 neighbor pairs x 2 directions
}

TEST(PerfModel, HeterogeneousMachinePrefersSkewedStrips) {
  // Fig. 3(b): with two slow nodes (ranks 0,1) and two fast ones, giving the
  // fast nodes more grid rows beats the even default.
  const auto machine = simcluster::presets::pentium_hetero();
  SnesWork work;
  work.newton_iterations = 5;
  work.total_ksp_iterations = 100;
  work.residual_evaluations = 120;
  const auto even = Da2D::even_strips(50, 48, 4);
  const auto skewed = Da2D::from_cuts(50, 48, {6, 12, 30});  // fast ranks get more
  EXPECT_LT(simulate_snes(machine, skewed, work).total_s,
            simulate_snes(machine, even, work).total_s);
}

TEST(PerfModel, HomogeneousMachinePrefersEvenStrips) {
  // Fig. 3(a): on identical nodes the even split is (near) optimal.
  const auto machine = simcluster::presets::pentium4_quad();
  SnesWork work;
  work.newton_iterations = 5;
  work.total_ksp_iterations = 100;
  work.residual_evaluations = 120;
  const auto even = Da2D::even_strips(50, 48, 4);
  const auto skewed = Da2D::from_cuts(50, 48, {6, 12, 30});
  EXPECT_LT(simulate_snes(machine, even, work).total_s,
            simulate_snes(machine, skewed, work).total_s);
}

TEST(PerfModel, SnesWorkValidation) {
  const auto machine = simcluster::presets::pentium4_quad();
  const auto da = Da2D::even_strips(10, 8, 4);
  SnesWork none;
  EXPECT_THROW((void)simulate_snes(machine, da, none), std::invalid_argument);
}

TEST(PerfModel, ImbalanceReportedForSkewedStrips) {
  const auto machine = simcluster::presets::pentium4_quad();
  SnesWork work;
  work.residual_evaluations = 10;
  const auto skewed = Da2D::from_cuts(50, 48, {40, 44, 46});
  const auto rep = simulate_snes(machine, skewed, work);
  EXPECT_GT(rep.imbalance, 2.0);
}

}  // namespace
