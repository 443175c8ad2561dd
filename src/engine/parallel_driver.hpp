#pragma once

/// \file parallel_driver.hpp
/// Parallel counterpart of OfflineDriver (Section III's off-line short-run
/// tuning loop): a thin facade over SearchController + PoolEvalBackend.
/// Mirrors OfflineDriver's options/result/history surface, but evaluates
/// each batch of candidate configurations across a worker pool, with:
///
///  * a budget guard — batches are sized to the remaining run budget before
///    submission, so `max_runs` is never exceeded even with a batch in
///    flight (cache hits may leave budget unused in a batch; it is recovered
///    in the next one);
///  * memoization on the controller's thread (BatchMemo) — a configuration
///    already measured, or repeated inside one batch, costs no further short
///    run (the first copy in batch order runs), and served entries are
///    recorded with History's existing `cached` flag;
///  * serial-equivalence at pool size 1 — driving any serial strategy via
///    SequentialBatchAdapter with one worker produces a History identical to
///    OfflineDriver's (guarded by tests/engine/test_parallel_driver.cpp).
///
/// `total_tuning_cost_s` remains the sum over all runs (the tuning bill the
/// paper accounts: restart + warm-up + measured region); wall-clock shrinks
/// with pool size because runs overlap, which is the whole point.

#include <optional>

#include "core/history.hpp"
#include "core/offline_driver.hpp"
#include "core/strategy.hpp"
#include "engine/batch_strategy.hpp"

namespace harmony::engine {

/// Inherits the shared loop knobs (`use_cache`, `tracer`) from
/// ControllerOptions. `use_cache` here memoizes across batches *and* runs
/// in-batch repeats once (the pool backend's BatchMemo); evaluation spans of
/// the runs are recorded from the worker threads, so an exported Chrome
/// trace shows one lane per pool worker.
struct ParallelOfflineOptions : ControllerOptions {
  int short_run_steps = 10;       ///< paper: "typical benchmarking run of 10 time steps"
  int max_runs = 40;              ///< tuning-iteration budget (distinct runs)
  double restart_overhead_s = 0;  ///< stop/reconfigure/restart cost per run
  int pool_size = 4;              ///< worker threads evaluating short runs
  int max_batch = 0;              ///< per-batch candidate cap (0 = pool_size)
};

struct ParallelOfflineResult {
  std::optional<Config> best;
  double best_measured_s = 0.0;
  int runs = 0;                    ///< distinct short runs actually launched
  double total_tuning_cost_s = 0;  ///< restarts + warmups + measured regions
  bool strategy_converged = false;
  std::size_t cache_hits = 0;       ///< configurations measured in an earlier batch
  std::size_t cache_coalesced = 0;  ///< in-batch repeats served by the first copy
  int batches = 0;                  ///< propose/report round trips
};

class ParallelOfflineDriver {
 public:
  ParallelOfflineDriver(const ParamSpace& space, ParallelOfflineOptions opts = {});

  /// Run the tuning loop over a batch strategy.
  ParallelOfflineResult tune(BatchSearchStrategy& strategy, const ShortRunFn& run);

  /// Convenience: drive a serial strategy through SequentialBatchAdapter
  /// (batch size 1; with pool_size 1 this matches OfflineDriver exactly).
  ParallelOfflineResult tune(SearchStrategy& strategy, const ShortRunFn& run);

  [[nodiscard]] const History& history() const { return history_; }

 private:
  const ParamSpace* space_;
  ParallelOfflineOptions opts_;
  History history_;
};

}  // namespace harmony::engine
