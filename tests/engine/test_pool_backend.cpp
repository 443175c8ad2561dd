// PoolEvalBackend: only distinct misses reach the pool, a failing run
// leaves no task running past evaluate(), and which duplicate runs is
// deterministic at pool_size > 1.

#include "engine/pool_backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/history.hpp"
#include "engine/batch_strategy.hpp"
#include "engine/parallel_driver.hpp"
#include "obs/trace.hpp"

namespace {

using harmony::Config;
using harmony::EvalBackend;
using harmony::Parameter;
using harmony::ParamSpace;
using harmony::ShortRunFn;
using harmony::ShortRunResult;
using harmony::engine::PoolEvalBackend;

ParamSpace line_space() {
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 9));
  return s;
}

Config at(const ParamSpace& s, std::int64_t x) {
  Config c = s.default_config();
  s.set(c, "x", x);
  return c;
}

TEST(PoolEvalBackend, OnlyDistinctMissesReachThePool) {
  const auto s = line_space();
  std::atomic<int> runs{0};
  const ShortRunFn run = [&](const Config& c, int) {
    ++runs;
    ShortRunResult r;
    r.measured_s = static_cast<double>(s.get_int(c, "x"));
    return r;
  };
  PoolEvalBackend backend(s, run, 1, 0.0, 4, 4, /*use_cache=*/true);
  EvalBackend::Context ctx;
  ctx.space = &s;

  const auto first = backend.evaluate({at(s, 1), at(s, 2), at(s, 1)}, ctx);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_TRUE(first[0].ran);
  EXPECT_TRUE(first[1].ran);
  EXPECT_FALSE(first[2].ran);
  EXPECT_EQ(first[2].cost_s, 0.0);
  EXPECT_EQ(first[2].result.objective, 1.0);

  const auto second = backend.evaluate({at(s, 2), at(s, 1)}, ctx);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_FALSE(second[0].ran);
  EXPECT_FALSE(second[1].ran);
  EXPECT_EQ(backend.cache_hits(), 2u);
  EXPECT_EQ(backend.cache_coalesced(), 1u);
}

TEST(PoolEvalBackend, FailingRunWaitsForTheRestOfTheBatch) {
  const auto s = line_space();
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  const ShortRunFn run = [&](const Config& c, int) {
    if (s.get_int(c, "x") == 0) throw std::runtime_error("run failed");
    ++started;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ++finished;
    return ShortRunResult{};
  };
  PoolEvalBackend backend(s, run, 1, 0.0, 2, 4, /*use_cache=*/true);
  EvalBackend::Context ctx;
  ctx.space = &s;
  EXPECT_THROW(
      (void)backend.evaluate({at(s, 0), at(s, 1), at(s, 2), at(s, 3)}, ctx),
      std::runtime_error);
  // Every task of the batch is done by the time the failure reaches the
  // caller: none can still read the caller's frame.
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_EQ(finished.load(), 3);
}

TEST(PoolEvalBackend, DuplicateResolutionIsDeterministicAcrossRuns) {
  // A tiny space under wide batches: most proposals repeat a configuration
  // inside their batch or an earlier one.
  ParamSpace s;
  s.add(Parameter::Integer("x", 0, 2));
  s.add(Parameter::Integer("y", 0, 1));
  const ShortRunFn run = [&s](const Config& c, int) {
    ShortRunResult r;
    r.measured_s = static_cast<double>(s.get_int(c, "x") + 3 * s.get_int(c, "y"));
    return r;
  };
  std::vector<bool> reference;
  for (int rep = 0; rep < 20; ++rep) {
    harmony::obs::SearchTracer tracer;
    harmony::engine::ParallelOfflineOptions po;
    po.max_runs = 36;
    po.pool_size = 4;
    po.max_batch = 6;
    po.tracer = &tracer;
    harmony::engine::ParallelOfflineDriver driver(s, po);
    harmony::engine::BatchRandomSearch batched(s, 48, 21);
    const auto result = driver.tune(batched, run);

    std::vector<bool> cached;
    for (const auto& e : driver.history().entries()) cached.push_back(e.cached);
    ASSERT_EQ(cached.size(), 48u);
    if (rep == 0) {
      reference = cached;
    } else {
      EXPECT_EQ(cached, reference) << "rep " << rep;
    }

    int cache_spans = 0;
    int eval_spans = 0;
    for (const auto& span : tracer.spans()) {
      if (span.cache_hit()) {
        ++cache_spans;
      } else if (span.is_eval()) {
        ++eval_spans;
      }
    }
    EXPECT_EQ(cache_spans, driver.history().cached_count()) << "rep " << rep;
    EXPECT_EQ(eval_spans, result.runs) << "rep " << rep;
  }
}

}  // namespace
