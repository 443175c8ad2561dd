#include "engine/parallel_driver.hpp"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/controller.hpp"
#include "engine/pool_backend.hpp"
#include "obs/metrics.hpp"
#include "obs/status.hpp"

namespace harmony::engine {

ParallelOfflineDriver::ParallelOfflineDriver(const ParamSpace& space,
                                             ParallelOfflineOptions opts)
    : space_(&space), opts_(opts), history_(space) {
  if (opts.max_runs < 1) {
    throw std::invalid_argument("ParallelOfflineDriver: max_runs < 1");
  }
  if (opts.short_run_steps < 1) {
    throw std::invalid_argument("ParallelOfflineDriver: short_run_steps < 1");
  }
  if (opts.restart_overhead_s < 0) {
    throw std::invalid_argument("ParallelOfflineDriver: negative restart overhead");
  }
  if (opts.pool_size < 1) {
    throw std::invalid_argument("ParallelOfflineDriver: pool_size < 1");
  }
  if (opts.max_batch < 0) {
    throw std::invalid_argument("ParallelOfflineDriver: negative max_batch");
  }
}

ParallelOfflineResult ParallelOfflineDriver::tune(SearchStrategy& strategy,
                                                  const ShortRunFn& run) {
  SequentialBatchAdapter adapter(strategy);
  return tune(adapter, run);
}

ParallelOfflineResult ParallelOfflineDriver::tune(BatchSearchStrategy& strategy,
                                                  const ShortRunFn& run) {
  if (!run) throw std::invalid_argument("ParallelOfflineDriver::tune: null run function");

  ControllerHooks hooks;
  hooks.proposals_counter = "engine.driver.proposals";
  hooks.batches_counter = "engine.driver.batches";
  hooks.status_phase = "batching";
  hooks.status_batch_phase = true;
  // Live-status slot (gated: published only while observability is on).
  if (obs::enabled()) {
    static std::atomic<std::uint64_t> next_id{0};
    hooks.status_id = "parallel/" + std::to_string(next_id.fetch_add(1));
  }

  // Memoization (cross-batch and in-batch) lives in the pool backend's
  // BatchMemo, so the controller runs without its own cache.
  PoolEvalBackend backend(*space_, run, opts_.short_run_steps,
                          opts_.restart_overhead_s, opts_.pool_size,
                          static_cast<std::size_t>(
                              opts_.max_batch > 0 ? opts_.max_batch : opts_.pool_size),
                          opts_.use_cache);

  // Same generous proposal guard as the serial driver: strategies may propose
  // cached points freely without burning the run budget.
  SearchController controller(*space_,
                              {opts_.max_runs, opts_.max_runs * 64 + 256},
                              std::move(hooks), opts_.tracer, /*cache=*/nullptr);
  const ControllerResult r = controller.run(strategy, backend);
  history_ = controller.take_history();

  ParallelOfflineResult out;
  out.best = r.best;
  out.best_measured_s = r.best_objective;
  out.runs = r.evaluations;
  out.total_tuning_cost_s = r.total_cost_s;
  out.strategy_converged = r.strategy_converged;
  out.cache_hits = backend.cache_hits();
  out.cache_coalesced = backend.cache_coalesced();
  out.batches = r.batches;
  return out;
}

}  // namespace harmony::engine
