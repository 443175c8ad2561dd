#pragma once

/// \file controller.hpp
/// The one Adaptation Controller (paper Fig. 1). SearchController owns the
/// whole tuning loop — proposal budgeting (distinct-evaluation vs proposal
/// caps), EvalCache memoization, History recording, SearchTracer events and
/// obs metrics — and is parameterized by an EvalBackend that knows how a
/// candidate configuration is actually measured:
///
///  * SerialEvalBackend      — call an Evaluator in-process (Tuner facade).
///  * ShortRunEvalBackend    — one representative short run per candidate,
///                             with restart/warm-up cost accounting
///                             (OfflineDriver facade).
///  * engine::PoolEvalBackend — dispatch a whole batch across a thread pool
///                             behind a BatchMemo (ParallelOfflineDriver
///                             facade).
///
/// The controller is batch-native: it drives a BatchSearchStrategy, and any
/// serial SearchStrategy rides along through SequentialBatchAdapter with
/// batch size 1, which keeps trajectories bitwise-identical to a serial
/// loop. It also exposes an incremental ask/tell surface for deployments
/// where the measurement happens elsewhere (the TCP tuning server and the
/// in-application Session facade).

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "core/flat_map.hpp"
#include "core/history.hpp"
#include "core/param_space.hpp"
#include "core/point_key.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace harmony::obs {
class SearchTracer;
}  // namespace harmony::obs

namespace harmony {

/// Loop options shared by every facade (TunerOptions, OfflineOptions,
/// engine::ParallelOfflineOptions all inherit these fields).
struct ControllerOptions {
  /// Memoize evaluations per lattice point.
  bool use_cache = true;

  /// Optional per-evaluation tracer (not owned; may be null). When set, the
  /// run mints one trace id and records one evaluation span per proposal
  /// ("search.eval", or "search.cache" for a cache hit) — strategy, point,
  /// objective, wall-clock span — independent of obs::enabled(), which only
  /// gates the aggregate metrics. Feed the JSONL export to tools/report_gen
  /// for the HTML convergence report.
  obs::SearchTracer* tracer = nullptr;
};

/// One representative short run of the application under configuration `c`,
/// executing `steps` time steps. Returns per-run measurements.
struct ShortRunResult {
  double measured_s = 0.0;  ///< time of the measured region (the objective)
  double warmup_s = 0.0;    ///< time spent warming up before measurement
  bool ok = true;           ///< false when the run failed under this config
};

using ShortRunFn = std::function<ShortRunResult(const Config&, int steps)>;

/// Outcome of measuring one candidate through an EvalBackend.
struct EvalOutcome {
  EvaluationResult result;
  bool ran = true;      ///< a fresh evaluation happened (charges the budget)
  double cost_s = 0.0;  ///< tuning cost charged when ran (restart+warmup+run)

  /// True when `result` is a model prediction rather than a measurement
  /// (engine::SurrogateEvalBackend skipping a low-ranked candidate). The
  /// controller reports a speculative result to the strategy — that is the
  /// whole point of pre-ranking — but never lets it charge the budget,
  /// enter the cache, update the incumbent, or land in History. No backend
  /// sets this by default, so trajectories without a surrogate are
  /// untouched.
  bool speculative = false;
};

/// How candidates get measured. The backend owns the evaluation side of the
/// loop: launching runs, backend-level caching/coalescing, per-run metrics
/// and (for concurrent backends) per-worker trace events.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  struct Context {
    const ParamSpace* space = nullptr;
    obs::SearchTracer* tracer = nullptr;
    std::uint64_t trace_id = 0;  ///< trace the evaluation spans belong to
    std::string strategy_name;
  };

  /// Measure every configuration in `batch`, element-wise.
  [[nodiscard]] virtual std::vector<EvalOutcome> evaluate(
      const std::vector<Config>& batch, const Context& ctx) = 0;

  /// How many candidates the backend can usefully measure at once — the
  /// controller never asks a strategy for a larger batch.
  [[nodiscard]] virtual std::size_t concurrency() const { return 1; }

  /// True when the backend records trace events itself (concurrent backends
  /// trace from their workers); the controller then does not double-record.
  [[nodiscard]] virtual bool traces() const { return false; }

  /// Backend-level cache statistics (0 for backends without a cache).
  [[nodiscard]] virtual std::size_t cache_hits() const { return 0; }
  [[nodiscard]] virtual std::size_t cache_coalesced() const { return 0; }
};

/// Measures the distinct misses of one batch: one outcome per element of
/// `misses`, in order.
using MeasureFn =
    std::function<std::vector<EvalOutcome>(const std::vector<Config>& misses)>;

/// The batch memo of the concurrent backends (engine::PoolEvalBackend,
/// fleet::WorkerEvalBackend). EvalBackend::evaluate runs on the controller's
/// thread and returns before the next batch starts, so the only duplicates
/// that can be in flight together sit inside one batch; one pass over the
/// batch before dispatch resolves them, with no lock and no future.
///
/// Cache hits and in-batch repeats are answered on the caller's thread
/// (`ran == false`; the first copy in batch order is the one that runs), and
/// the distinct misses reach `measure` exactly once. Fresh results are stored
/// after `measure` returns, so a throwing `measure` leaves no entry. Disabled,
/// the memo neither caches nor deduplicates: every element is measured.
class BatchMemo {
 public:
  BatchMemo(const ParamSpace& space, bool enabled);

  [[nodiscard]] std::vector<EvalOutcome> resolve(const std::vector<Config>& batch,
                                                 const MeasureFn& measure);

  /// Cross-batch cache hits.
  [[nodiscard]] std::size_t hits() const noexcept { return cache_.hits(); }
  /// In-batch repeats served by their batch's first copy.
  [[nodiscard]] std::size_t coalesced() const noexcept { return coalesced_; }

 private:
  const ParamSpace* space_;
  bool enabled_;
  EvalCache cache_;
  std::size_t coalesced_ = 0;

  // Per-batch scratch, reused across batches.
  PointKey key_;
  FlatPointMap<std::size_t> first_;  ///< key -> index into the misses
  std::vector<PointKey> miss_keys_;
  std::vector<std::size_t> miss_slot_;                         ///< batch index
  std::vector<std::pair<std::size_t, std::size_t>> repeats_;  ///< slot, miss
};

/// In-process evaluation of an Evaluator callback (the Tuner facade).
class SerialEvalBackend final : public EvalBackend {
 public:
  explicit SerialEvalBackend(const Evaluator& evaluate);

  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

 private:
  const Evaluator* evaluate_;
};

/// One representative short run per candidate (paper Section III): stop the
/// application, apply the configuration, restart, warm up, measure. Every
/// component of that cost is charged to the tuning bill. Emits the
/// configured run counter / histogram per fresh run.
class ShortRunEvalBackend final : public EvalBackend {
 public:
  ShortRunEvalBackend(const ShortRunFn& run, int steps, double restart_overhead_s,
                      std::string runs_counter, std::string run_histogram);

  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

 private:
  const ShortRunFn* run_;
  int steps_;
  double restart_overhead_s_;
  std::string runs_counter_;
  std::string run_histogram_;
};

/// Budgets for one controller run.
struct ControllerLimits {
  /// Budget of *distinct* evaluations (cache misses). The paper reports
  /// tuning cost in these units ("27 iterations", "120 tuning steps").
  int max_evaluations = 100;

  /// Hard cap on strategy proposals, cached or not, as a loop guard.
  int max_proposals = 100000;
};

/// Deployment-specific obs wiring. Empty names disable the corresponding
/// counter; an empty status_id disables live-status publishing.
struct ControllerHooks {
  std::string proposals_counter;  ///< counted once per proposal
  std::string batches_counter;    ///< counted once per dispatched batch
  std::string cache_hits_counter; ///< counted once per controller-cache hit
  std::string status_id;          ///< live-status session id ("offline/3")
  std::string status_phase;       ///< initial phase label
  bool status_batch_phase = false;///< relabel the phase "batch K" per batch
};

struct ControllerResult {
  std::optional<Config> best;
  EvaluationResult best_result;  ///< result recorded for the final incumbent
  /// Objective of the incumbent; +inf when nothing valid was observed.
  double best_objective = std::numeric_limits<double>::infinity();
  int evaluations = 0;           ///< distinct (budget-charged) evaluations
  int proposals = 0;             ///< total strategy proposals served
  int batches = 0;               ///< batches dispatched to the backend
  double total_cost_s = 0.0;     ///< summed backend cost (restart+warmup+run)
  std::size_t cache_hits = 0;    ///< controller-cache hits
  bool strategy_converged = false;
};

class SearchController {
 public:
  /// `cache` (not owned, may be null) is the controller-level memoization
  /// table; null disables it. Backends with their own cache (the thread-pool
  /// backend) run without a controller cache so every candidate reaches the
  /// backend.
  SearchController(const ParamSpace& space, ControllerLimits limits,
                   ControllerHooks hooks = {}, obs::SearchTracer* tracer = nullptr,
                   EvalCache* cache = nullptr);

  /// Drive the full loop: propose a batch, resolve it against the cache,
  /// measure the misses through the backend, record history, report back.
  ControllerResult run(BatchSearchStrategy& strategy, EvalBackend& backend);

  /// Serial strategies ride the same loop through SequentialBatchAdapter.
  ControllerResult run(SearchStrategy& strategy, EvalBackend& backend);

  /// Incremental surface for deployments that measure elsewhere (tuning
  /// server, in-application Session). ask() is idempotent while a proposal
  /// is outstanding and returns nullopt once the evaluation budget is spent
  /// or the strategy stops proposing; tell() feeds the measurement back.
  /// A speculative tell() carries a model-predicted value: the strategy
  /// hears it, but it charges no budget, never becomes the incumbent and is
  /// not recorded in History — mirroring how the batch loop treats
  /// EvalOutcome::speculative.
  [[nodiscard]] std::optional<Config> ask(SearchStrategy& strategy);
  void tell(SearchStrategy& strategy, const EvaluationResult& r,
            bool speculative = false);
  [[nodiscard]] bool awaiting_tell() const { return pending_.has_value(); }

  [[nodiscard]] int evaluations() const { return evaluations_; }
  [[nodiscard]] int proposals() const { return proposals_; }

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] History take_history() { return std::move(history_); }

 private:
  /// Record a measurement. Takes the config by value: the batch loop copies
  /// it (the batch is reported to the strategy afterwards), the tell() path
  /// moves its pending config in — steady-state ask/tell round trips then
  /// perform no Config copy at all.
  void note_result(Config c, const EvaluationResult& r, bool cached);

  const ParamSpace* space_;
  ControllerLimits limits_;
  ControllerHooks hooks_;
  obs::SearchTracer* tracer_;
  std::uint64_t trace_id_;  ///< minted when traced, else 0
  EvalCache* cache_;
  History history_;

  // Incumbent tracking (valid results only, strict improvement).
  std::optional<Config> best_;
  EvaluationResult best_result_;
  double best_value_;

  int evaluations_ = 0;
  int proposals_ = 0;
  std::size_t cache_hits_ = 0;
  std::optional<Config> pending_;  // ask/tell: proposal awaiting its result

  // Batch-loop scratch, reused across iterations so the steady-state loop
  // allocates only what grows the tables (the vectors keep their capacity
  // and PointKeys keep their slot storage between batches).
  struct BatchScratch {
    std::vector<EvalOutcome> outcomes;
    std::vector<double> t_start_us;
    std::vector<Config> misses;            ///< cache misses, in batch order
    std::vector<std::size_t> miss_at;      ///< batch index of each miss
    std::vector<PointKey> miss_keys;       ///< index-space keys of the misses
    std::vector<EvaluationResult> results; ///< per-slot results for report_batch
    PointKey key;                          ///< per-candidate derivation scratch
  };
  BatchScratch scratch_;
};

}  // namespace harmony
