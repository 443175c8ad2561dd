#include "engine/parallel_driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "core/history.hpp"
#include "core/nelder_mead.hpp"
#include "core/offline_driver.hpp"
#include "core/random_search.hpp"
#include "core/systematic_sampler.hpp"
#include "engine/batch_strategy.hpp"

namespace {

using harmony::Config;
using harmony::History;
using harmony::NelderMead;
using harmony::OfflineDriver;
using harmony::OfflineOptions;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::RandomSearch;
using harmony::ShortRunResult;
using harmony::SystematicSampler;
using harmony::engine::BatchRandomSearch;
using harmony::engine::BatchSystematicSampler;
using harmony::engine::ParallelOfflineDriver;
using harmony::engine::ParallelOfflineOptions;
using harmony::engine::SpeculativeNelderMead;

ParamSpace grid2d(int nx, int ny) {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, nx - 1));
  s.add(Parameter::Integer("y", 0, ny - 1));
  return s;
}

/// Deterministic short-run function: a bowl with the optimum at (17, 5).
ShortRunResult bowl_run(const Config& c, int /*steps*/) {
  const auto x = static_cast<double>(std::get<std::int64_t>(c.values[0]));
  const auto y = static_cast<double>(std::get<std::int64_t>(c.values[1]));
  ShortRunResult r;
  r.measured_s = 4.0 + 0.02 * ((x - 17) * (x - 17) + (y - 5) * (y - 5));
  r.warmup_s = 0.1;
  return r;
}

void expect_identical_histories(const History& serial, const History& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.iterations(), parallel.iterations());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial.entries()[i];
    const auto& b = parallel.entries()[i];
    EXPECT_EQ(a.config, b.config) << "entry " << i;
    EXPECT_EQ(a.iteration, b.iteration) << "entry " << i;
    EXPECT_EQ(a.cached, b.cached) << "entry " << i;
    EXPECT_EQ(a.improved, b.improved) << "entry " << i;
    EXPECT_EQ(a.result.valid, b.result.valid) << "entry " << i;
    EXPECT_EQ(a.result.objective, b.result.objective) << "entry " << i;  // bitwise
    EXPECT_EQ(a.result.metrics, b.result.metrics) << "entry " << i;
  }
  EXPECT_EQ(serial.best_objective(), parallel.best_objective());
}

// ---- Determinism guard: pool size 1 must replay OfflineDriver exactly ----

TEST(ParallelOfflineDriver, PoolSize1MatchesSerialDriverNelderMead) {
  const auto s = grid2d(48, 32);
  OfflineOptions so;
  so.max_runs = 40;
  so.restart_overhead_s = 1.5;
  OfflineDriver serial_driver(s, so);
  harmony::NelderMeadOptions nopts;
  nopts.max_restarts = 2;
  NelderMead serial_nm(s, nopts);
  const auto serial_result = serial_driver.tune(serial_nm, bowl_run);

  ParallelOfflineOptions po;
  po.max_runs = 40;
  po.restart_overhead_s = 1.5;
  po.pool_size = 1;
  ParallelOfflineDriver parallel_driver(s, po);
  NelderMead parallel_nm(s, nopts);
  const auto parallel_result = parallel_driver.tune(parallel_nm, bowl_run);

  expect_identical_histories(serial_driver.history(), parallel_driver.history());
  ASSERT_TRUE(parallel_result.best.has_value());
  EXPECT_EQ(*parallel_result.best, *serial_result.best);
  EXPECT_EQ(parallel_result.best_measured_s, serial_result.best_measured_s);
  EXPECT_EQ(parallel_result.runs, serial_result.runs);
  EXPECT_EQ(parallel_result.total_tuning_cost_s, serial_result.total_tuning_cost_s);
}

TEST(ParallelOfflineDriver, PoolSize1MatchesSerialDriverRandomFixedSeed) {
  const auto s = grid2d(9, 7);  // small: exercises the cached pathway too
  OfflineOptions so;
  so.max_runs = 30;
  OfflineDriver serial_driver(s, so);
  RandomSearch serial_rs(s, 80, 1234);
  (void)serial_driver.tune(serial_rs, bowl_run);

  ParallelOfflineOptions po;
  po.max_runs = 30;
  po.pool_size = 1;
  ParallelOfflineDriver parallel_driver(s, po);
  RandomSearch parallel_rs(s, 80, 1234);
  (void)parallel_driver.tune(parallel_rs, bowl_run);

  expect_identical_histories(serial_driver.history(), parallel_driver.history());
}

TEST(ParallelOfflineDriver, PoolSize1MatchesSerialDriverSystematic) {
  const auto s = grid2d(12, 10);
  OfflineOptions so;
  so.max_runs = 25;
  OfflineDriver serial_driver(s, so);
  SystematicSampler serial_sweep(s, std::vector<int>{6, 5});
  (void)serial_driver.tune(serial_sweep, bowl_run);

  ParallelOfflineOptions po;
  po.max_runs = 25;
  po.pool_size = 1;
  ParallelOfflineDriver parallel_driver(s, po);
  SystematicSampler parallel_sweep(s, std::vector<int>{6, 5});
  (void)parallel_driver.tune(parallel_sweep, bowl_run);

  expect_identical_histories(serial_driver.history(), parallel_driver.history());
}

// ---- Budget guard ----

TEST(ParallelOfflineDriver, BudgetNeverExceededWithWideBatches) {
  const auto s = grid2d(100, 100);
  ParallelOfflineOptions po;
  po.max_runs = 10;
  po.pool_size = 4;
  po.max_batch = 8;  // batches wider than the remaining budget near the end
  ParallelOfflineDriver driver(s, po);
  BatchRandomSearch batched(s, 1000, 5);
  std::atomic<int> launches{0};
  const auto result = driver.tune(batched, [&](const Config& c, int steps) {
    ++launches;
    return bowl_run(c, steps);
  });
  EXPECT_EQ(result.runs, 10);
  EXPECT_EQ(launches.load(), 10);
}

TEST(ParallelOfflineDriver, DuplicateConfigsInBatchRunOnce) {
  // A tiny space with a wide random batch: duplicates inside one batch must
  // share a single short run, and later batches hit the completed entry.
  const auto s = grid2d(3, 2);
  ParallelOfflineOptions po;
  po.max_runs = 36;
  po.pool_size = 4;
  po.max_batch = 6;
  ParallelOfflineDriver driver(s, po);
  BatchRandomSearch batched(s, 48, 21);
  std::atomic<int> launches{0};
  const auto result = driver.tune(batched, [&](const Config& c, int steps) {
    ++launches;
    return bowl_run(c, steps);
  });
  EXPECT_LE(launches.load(), 6);  // at most one run per lattice point
  EXPECT_EQ(result.runs, launches.load());
  EXPECT_GE(result.cache_hits + result.cache_coalesced, 42u);
  EXPECT_EQ(driver.history().size(), 48u);
  EXPECT_EQ(driver.history().cached_count(), 48 - result.runs);
}

// ---- Parallel correctness ----

TEST(ParallelOfflineDriver, WidePoolFindsSameBestAsSerialSweep) {
  const auto s = grid2d(25, 20);
  OfflineOptions so;
  so.max_runs = 500;
  OfflineDriver serial_driver(s, so);
  SystematicSampler serial_sweep(s, std::vector<int>{25, 20});
  const auto serial_result = serial_driver.tune(serial_sweep, bowl_run);

  ParallelOfflineOptions po;
  po.max_runs = 500;
  po.pool_size = 8;
  ParallelOfflineDriver driver(s, po);
  BatchSystematicSampler batched(s, std::vector<int>{25, 20});
  const auto result = driver.tune(batched, bowl_run);

  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(*result.best, *serial_result.best);
  EXPECT_EQ(result.best_measured_s, serial_result.best_measured_s);
  EXPECT_EQ(result.runs, serial_result.runs);
  // Aggregate tuning bill is the same work, just overlapped in time.
  EXPECT_DOUBLE_EQ(result.total_tuning_cost_s, serial_result.total_tuning_cost_s);
}

TEST(ParallelOfflineDriver, SpeculativeNelderMeadMatchesSerialBest) {
  const auto s = grid2d(48, 32);
  OfflineOptions so;
  so.max_runs = 200;  // generous: both searches converge before the budget
  OfflineDriver serial_driver(s, so);
  harmony::NelderMeadOptions nopts;
  nopts.max_restarts = 1;
  NelderMead serial_nm(s, nopts);
  const auto serial_result = serial_driver.tune(serial_nm, bowl_run);
  ASSERT_TRUE(serial_result.strategy_converged);

  ParallelOfflineOptions po;
  po.max_runs = 200;
  po.pool_size = 4;
  ParallelOfflineDriver driver(s, po);
  SpeculativeNelderMead spec(s, nopts);
  const auto result = driver.tune(spec, bowl_run);

  ASSERT_TRUE(result.strategy_converged);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(*result.best, *serial_result.best);
  EXPECT_EQ(result.best_measured_s, serial_result.best_measured_s);  // bitwise
}

TEST(ParallelOfflineDriver, RunFunctionExceptionsPropagate) {
  const auto s = grid2d(10, 10);
  ParallelOfflineOptions po;
  po.pool_size = 2;
  ParallelOfflineDriver driver(s, po);
  RandomSearch rs(s, 10, 3);
  EXPECT_THROW((void)driver.tune(rs,
                                 [](const Config&, int) -> ShortRunResult {
                                   throw std::runtime_error("cluster down");
                                 }),
               std::runtime_error);
}

TEST(ParallelOfflineDriver, BadOptionsThrow) {
  const auto s = grid2d(4, 4);
  ParallelOfflineOptions po;
  po.max_runs = 0;
  EXPECT_THROW(ParallelOfflineDriver(s, po), std::invalid_argument);
  po.max_runs = 1;
  po.pool_size = 0;
  EXPECT_THROW(ParallelOfflineDriver(s, po), std::invalid_argument);
  po.pool_size = 1;
  po.short_run_steps = 0;
  EXPECT_THROW(ParallelOfflineDriver(s, po), std::invalid_argument);
  po.short_run_steps = 1;
  po.restart_overhead_s = -1;
  EXPECT_THROW(ParallelOfflineDriver(s, po), std::invalid_argument);
  po.restart_overhead_s = 0;
  po.max_batch = -1;
  EXPECT_THROW(ParallelOfflineDriver(s, po), std::invalid_argument);
}

TEST(ParallelOfflineDriver, NullRunFunctionThrows) {
  const auto s = grid2d(4, 4);
  ParallelOfflineDriver driver(s);
  RandomSearch rs(s, 4, 1);
  EXPECT_THROW((void)driver.tune(rs, nullptr), std::invalid_argument);
}

}  // namespace
