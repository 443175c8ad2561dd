#pragma once

/// \file pool_backend.hpp
/// Thread-pool EvalBackend for the SearchController: measures a whole batch
/// of candidate configurations concurrently with representative short runs.
/// A BatchMemo resolves the batch first, on the caller's thread: cache hits
/// and in-batch repeats never reach the pool, and only the distinct misses
/// are submitted, so a configuration costs one short run however often it
/// is proposed. Evaluation spans of the runs are recorded from the worker
/// threads, so an exported Chrome trace shows one lane per pool worker.

#include <cstddef>

#include "core/controller.hpp"
#include "core/param_space.hpp"
#include "engine/thread_pool.hpp"

namespace harmony::engine {

class PoolEvalBackend final : public EvalBackend {
 public:
  /// `run` is not owned and must outlive the backend. `batch_cap` is what
  /// concurrency() reports — the controller's per-batch candidate cap.
  /// `use_cache` false measures every element, duplicates included.
  PoolEvalBackend(const ParamSpace& space, const ShortRunFn& run, int steps,
                  double restart_overhead_s, int pool_size, std::size_t batch_cap,
                  bool use_cache);

  /// Waits for every submitted run before returning or rethrowing the first
  /// run's exception, so no task outlives the call (or `ctx`).
  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

  [[nodiscard]] std::size_t concurrency() const override { return batch_cap_; }
  [[nodiscard]] bool traces() const override { return true; }
  [[nodiscard]] std::size_t cache_hits() const override { return memo_.hits(); }
  [[nodiscard]] std::size_t cache_coalesced() const override {
    return memo_.coalesced();
  }

 private:
  /// One short run per miss across the pool, in order.
  [[nodiscard]] std::vector<EvalOutcome> run_all(const std::vector<Config>& misses,
                                                 const Context& ctx);

  const ShortRunFn* run_;
  int steps_;
  double restart_overhead_s_;
  std::size_t batch_cap_;
  BatchMemo memo_;
  ThreadPool pool_;
};

}  // namespace harmony::engine
