// WorkerEvalBackend tests through a real Dispatcher with an in-test
// auto-responding worker (the push function evaluates the candidate and
// feeds the RESULT straight back): cross-batch caching, in-batch
// coalescing (and neither with the cache off), concurrency sizing, and a
// full SearchController run whose trajectory must match an in-process
// serial reference exactly.

#include "fleet/worker_backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "engine/batch_strategy.hpp"
#include "fleet/dispatcher.hpp"

namespace fleet = harmony::fleet;
using harmony::Config;
using harmony::ParamSpace;
using harmony::Parameter;

namespace {

ParamSpace make_space() {
  ParamSpace space;
  space.add(Parameter::Integer("x", 0, 20));
  space.add(Parameter::Integer("y", 0, 20));
  return space;
}

/// Integer-exact objective with a unique minimum at (3, 14).
double objective_of(long long x, long long y) {
  const double dx = static_cast<double>(x - 3);
  const double dy = static_cast<double>(y - 14);
  return (dx * dx + dy * dy + 1.0) / 64.0;
}

/// Worker whose push function evaluates the candidate synchronously and
/// reports the RESULT back into the dispatcher (a zero-latency loopback).
struct EchoWorker {
  fleet::Dispatcher* d = nullptr;
  std::shared_ptr<std::uint64_t> id = std::make_shared<std::uint64_t>(0);
  std::shared_ptr<std::atomic<int>> evals = std::make_shared<std::atomic<int>>(0);

  void attach(fleet::Dispatcher& dispatcher, int capacity) {
    d = &dispatcher;
    auto wid = id;
    auto count = evals;
    fleet::Dispatcher* dp = d;
    *id = dispatcher.attach(
        "synthetic", capacity, [dp, wid, count](std::string_view payload) {
          unsigned long long work = 0;
          long long x = 0;
          long long y = 0;
          if (std::sscanf(std::string(payload).c_str(), "WORK %llu %lld %lld",
                          &work, &x, &y) != 3) {
            return false;
          }
          count->fetch_add(1);
          (void)dp->on_result(*wid, work, true, objective_of(x, y), 0.001);
          return true;
        });
  }
};

TEST(WorkerEvalBackend, ConcurrencyTracksFleetCapacity) {
  const auto space = make_space();
  fleet::Dispatcher d(space);
  fleet::WorkerEvalBackend backend(d, space);
  EXPECT_EQ(backend.concurrency(), 1u);  // empty fleet still proposes

  EchoWorker w;
  w.attach(d, 3);
  EXPECT_EQ(backend.concurrency(), 3u);

  fleet::WorkerBackendOptions opts;
  opts.max_batch = 2;
  fleet::WorkerEvalBackend capped(d, space, opts);
  EXPECT_EQ(capped.concurrency(), 2u);
}

TEST(WorkerEvalBackend, CachesAcrossBatchesAndCoalescesWithin) {
  const auto space = make_space();
  fleet::Dispatcher d(space);
  EchoWorker w;
  w.attach(d, 4);
  fleet::WorkerEvalBackend backend(d, space);

  Config a = space.default_config();
  space.set(a, "x", std::int64_t{1});
  Config b = space.default_config();
  space.set(b, "x", std::int64_t{2});

  // First batch: a, b and a duplicate of a — two remote runs, one coalesced.
  harmony::EvalBackend::Context ctx;
  ctx.space = &space;
  const auto out1 = backend.evaluate({a, b, a}, ctx);
  ASSERT_EQ(out1.size(), 3u);
  EXPECT_TRUE(out1[0].ran);
  EXPECT_TRUE(out1[1].ran);
  EXPECT_FALSE(out1[2].ran);  // in-batch duplicate shares the first run
  EXPECT_DOUBLE_EQ(out1[2].result.objective, out1[0].result.objective);
  EXPECT_EQ(w.evals->load(), 2);
  EXPECT_EQ(backend.cache_coalesced(), 1u);

  // Second batch: both served from the cache, nothing crosses the wire.
  const auto out2 = backend.evaluate({b, a}, ctx);
  EXPECT_FALSE(out2[0].ran);
  EXPECT_FALSE(out2[1].ran);
  EXPECT_DOUBLE_EQ(out2[1].result.objective, out1[0].result.objective);
  EXPECT_EQ(w.evals->load(), 2);
  EXPECT_EQ(backend.cache_hits(), 2u);
}

TEST(WorkerEvalBackend, UncachedSendsEveryProposalOverTheWire) {
  const auto space = make_space();
  fleet::Dispatcher d(space);
  EchoWorker w;
  w.attach(d, 4);
  fleet::WorkerBackendOptions opts;
  opts.use_cache = false;
  fleet::WorkerEvalBackend backend(d, space, opts);

  Config a = space.default_config();
  space.set(a, "x", std::int64_t{1});
  Config b = space.default_config();
  space.set(b, "x", std::int64_t{2});

  harmony::EvalBackend::Context ctx;
  ctx.space = &space;
  const auto out = backend.evaluate({a, b, a}, ctx);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& o : out) EXPECT_TRUE(o.ran);
  EXPECT_EQ(w.evals->load(), 3);
  EXPECT_EQ(backend.cache_coalesced(), 0u);
  EXPECT_EQ(backend.cache_hits(), 0u);
}

TEST(WorkerEvalBackend, ControllerRunMatchesSerialReference) {
  const auto space = make_space();

  // Serial reference: the same duplicate-free systematic plan evaluated
  // through ShortRunEvalBackend.
  const harmony::ShortRunFn run = [&space](const Config& c, int) {
    harmony::ShortRunResult r;
    r.measured_s = objective_of(space.get_int(c, "x"), space.get_int(c, "y"));
    return r;
  };
  harmony::ControllerLimits limits;
  limits.max_evaluations = 121;
  limits.max_proposals = 1000;

  harmony::engine::BatchSystematicSampler serial_plan(space, 11);
  harmony::SearchController serial_ctl(space, limits);
  harmony::ShortRunEvalBackend serial_backend(run, 1, 0.0, "", "");
  const auto serial = serial_ctl.run(serial_plan, serial_backend);

  // Fleet run: same plan through the dispatcher + echo worker.
  fleet::Dispatcher d(space);
  EchoWorker w;
  w.attach(d, 4);
  fleet::WorkerEvalBackend backend(d, space);
  harmony::engine::BatchSystematicSampler fleet_plan(space, 11);
  harmony::SearchController fleet_ctl(space, limits);
  const auto fleet_result = fleet_ctl.run(fleet_plan, backend);

  ASSERT_TRUE(serial.best.has_value());
  ASSERT_TRUE(fleet_result.best.has_value());
  EXPECT_EQ(space.format(*fleet_result.best), space.format(*serial.best));
  EXPECT_EQ(fleet_result.best_objective, serial.best_objective);  // bit-exact
  EXPECT_EQ(fleet_result.evaluations, serial.evaluations);
}

}  // namespace
