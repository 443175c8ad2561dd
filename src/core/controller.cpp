#include "core/controller.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace harmony {

BatchMemo::BatchMemo(const ParamSpace& space, bool enabled)
    : space_(&space), enabled_(enabled), cache_(space) {}

std::vector<EvalOutcome> BatchMemo::resolve(const std::vector<Config>& batch,
                                            const MeasureFn& measure) {
  if (!enabled_) return measure(batch);  // the controller checks the size

  // Each element's PointKey is derived once and reused for the cache probe,
  // the in-batch dedup table and the post-measurement store.
  std::vector<EvalOutcome> out(batch.size());
  std::vector<Config> misses;
  first_.clear();
  miss_keys_.clear();
  miss_slot_.clear();
  repeats_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    key_.assign(*space_, batch[i]);
    if (const EvaluationResult* hit = cache_.lookup(key_)) {
      out[i].result = *hit;
      out[i].ran = false;
      obs::count("engine.cache.hits");
      continue;
    }
    const auto [first, inserted] = first_.try_emplace(key_);
    if (!inserted) {
      repeats_.emplace_back(i, *first);
      ++coalesced_;
      obs::count("engine.cache.coalesced");
      continue;
    }
    *first = misses.size();
    obs::count("engine.cache.misses");
    miss_slot_.push_back(i);
    miss_keys_.push_back(key_);
    misses.push_back(batch[i]);
  }

  if (!misses.empty()) {
    auto measured = measure(misses);
    if (measured.size() != misses.size()) {
      throw std::logic_error("BatchMemo: measure returned a wrong-sized batch");
    }
    for (std::size_t m = 0; m < misses.size(); ++m) {
      EvalOutcome& o = out[miss_slot_[m]];
      o = std::move(measured[m]);
      if (o.ran) cache_.store(miss_keys_[m], o.result);
    }
  }
  for (const auto& [slot, m] : repeats_) {
    out[slot].result = out[miss_slot_[m]].result;
    out[slot].ran = false;
  }
  return out;
}

SerialEvalBackend::SerialEvalBackend(const Evaluator& evaluate)
    : evaluate_(&evaluate) {
  if (!evaluate) throw std::invalid_argument("SerialEvalBackend: null evaluator");
}

std::vector<EvalOutcome> SerialEvalBackend::evaluate(const std::vector<Config>& batch,
                                                     const Context& /*ctx*/) {
  std::vector<EvalOutcome> out;
  out.reserve(batch.size());
  for (const auto& c : batch) {
    EvalOutcome o;
    o.result = (*evaluate_)(c);
    out.push_back(std::move(o));
  }
  return out;
}

ShortRunEvalBackend::ShortRunEvalBackend(const ShortRunFn& run, int steps,
                                         double restart_overhead_s,
                                         std::string runs_counter,
                                         std::string run_histogram)
    : run_(&run),
      steps_(steps),
      restart_overhead_s_(restart_overhead_s),
      runs_counter_(std::move(runs_counter)),
      run_histogram_(std::move(run_histogram)) {
  if (!run) throw std::invalid_argument("ShortRunEvalBackend: null run function");
}

std::vector<EvalOutcome> ShortRunEvalBackend::evaluate(const std::vector<Config>& batch,
                                                       const Context& /*ctx*/) {
  std::vector<EvalOutcome> out;
  out.reserve(batch.size());
  for (const auto& c : batch) {
    const ShortRunResult r = (*run_)(c, steps_);
    EvalOutcome o;
    o.cost_s = restart_overhead_s_ + r.warmup_s + r.measured_s;
    o.result.valid = r.ok;
    o.result.objective =
        r.ok ? r.measured_s : std::numeric_limits<double>::infinity();
    o.result.metrics["warmup_s"] = r.warmup_s;
    if (!runs_counter_.empty()) obs::count(runs_counter_);
    if (!run_histogram_.empty()) {
      obs::observe(run_histogram_, r.warmup_s + r.measured_s);
    }
    out.push_back(std::move(o));
  }
  return out;
}

SearchController::SearchController(const ParamSpace& space, ControllerLimits limits,
                                   ControllerHooks hooks, obs::SearchTracer* tracer,
                                   EvalCache* cache)
    : space_(&space),
      limits_(limits),
      hooks_(std::move(hooks)),
      tracer_(tracer),
      trace_id_(tracer != nullptr ? obs::next_trace_id() : 0),
      cache_(cache),
      history_(space),
      best_value_(std::numeric_limits<double>::infinity()) {
  if (limits.max_evaluations < 1) {
    throw std::invalid_argument("SearchController: max_evaluations < 1");
  }
  if (limits.max_proposals < 1) {
    throw std::invalid_argument("SearchController: max_proposals < 1");
  }
}

void SearchController::note_result(Config c, const EvaluationResult& r,
                                   bool cached) {
  const bool improved = r.valid && r.objective < best_value_;
  if (improved) {
    best_value_ = r.objective;
    best_result_ = r;
    best_ = c;
  }
  history_.record(std::move(c), r, cached);
}

ControllerResult SearchController::run(SearchStrategy& strategy,
                                       EvalBackend& backend) {
  SequentialBatchAdapter adapter(strategy);
  return run(adapter, backend);
}

ControllerResult SearchController::run(BatchSearchStrategy& strategy,
                                       EvalBackend& backend) {
  ControllerResult out;
  const std::string strategy_name = strategy.name();
  const std::size_t batch_cap = std::max<std::size_t>(1, backend.concurrency());

  EvalBackend::Context ctx;
  ctx.space = space_;
  ctx.tracer = tracer_;
  ctx.trace_id = trace_id_;
  ctx.strategy_name = strategy_name;

  // Live-status slot. The facade only hands us an id while observability is
  // on, so the disabled path publishes nothing.
  obs::StatusRegistry::SessionHandle status;
  if (!hooks_.status_id.empty()) {
    status = obs::StatusRegistry::global().publish_session(hooks_.status_id);
    status.update([&](obs::SessionStatus& s) {
      s.strategy = strategy_name;
      s.phase = hooks_.status_phase;
    });
  }

  while (evaluations_ < limits_.max_evaluations &&
         proposals_ < limits_.max_proposals) {
    // Budget guard: never ask for (and never dispatch) more candidates than
    // the remaining distinct-evaluation budget, so the cap holds even with a
    // whole batch in flight. Cached entries consume no budget; any slack
    // this reservation leaves is available again next batch.
    const std::size_t want =
        std::min(batch_cap,
                 static_cast<std::size_t>(limits_.max_evaluations - evaluations_));
    auto batch = strategy.propose_batch(want);
    if (batch.empty()) break;
    if (batch.size() > want) batch.resize(want);  // defensive prefix cut
    proposals_ += static_cast<int>(batch.size());
    ++out.batches;
    if (!hooks_.batches_counter.empty()) obs::count(hooks_.batches_counter);
    if (!hooks_.proposals_counter.empty()) {
      obs::count(hooks_.proposals_counter, batch.size());
    }

    // Resolve the batch against the controller cache; only misses reach the
    // backend (element order within the miss sub-batch is preserved). All
    // bookkeeping lives in reused scratch: each candidate's PointKey is
    // derived once and reused for the lookup and the post-measurement store,
    // and no per-batch vector is reallocated in steady state.
    auto& outcomes = scratch_.outcomes;
    auto& t_start_us = scratch_.t_start_us;
    auto& misses = scratch_.misses;
    auto& miss_at = scratch_.miss_at;
    auto& miss_keys = scratch_.miss_keys;
    outcomes.clear();
    outcomes.resize(batch.size());
    t_start_us.assign(batch.size(), 0.0);
    misses.clear();
    miss_at.clear();
    miss_keys.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      t_start_us[i] = tracer_ != nullptr ? tracer_->now_us() : 0.0;
      if (cache_ != nullptr) {
        scratch_.key.assign(*space_, batch[i]);
        if (const EvaluationResult* cached = cache_->lookup(scratch_.key)) {
          outcomes[i].result = *cached;
          outcomes[i].ran = false;
          ++cache_hits_;
          if (!hooks_.cache_hits_counter.empty()) {
            obs::count(hooks_.cache_hits_counter);
          }
          continue;
        }
        miss_keys.push_back(scratch_.key);
      }
      misses.push_back(batch[i]);
      miss_at.push_back(i);
    }
    if (!misses.empty()) {
      auto measured = backend.evaluate(misses, ctx);
      if (measured.size() != misses.size()) {
        throw std::logic_error("SearchController: backend batch size mismatch");
      }
      for (std::size_t m = 0; m < misses.size(); ++m) {
        outcomes[miss_at[m]] = std::move(measured[m]);
        if (cache_ != nullptr && outcomes[miss_at[m]].ran) {
          cache_->store(miss_keys[m], outcomes[miss_at[m]].result);
        }
      }
    }

    auto& results = scratch_.results;
    results.clear();
    results.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const EvalOutcome& o = outcomes[i];
      if (tracer_ != nullptr && !backend.traces()) {
        tracer_->record(obs::eval_span(trace_id_, strategy_name,
                                       space_->format(batch[i]),
                                       o.result.objective, o.result.valid,
                                       /*cache_hit=*/!o.ran, t_start_us[i],
                                       tracer_->now_us()));
      }
      if (o.ran) {
        ++evaluations_;
        out.total_cost_s += o.cost_s;
      }
      // Speculative (model-predicted) outcomes reach the strategy only:
      // History and the incumbent record measurements exclusively, so the
      // reported best is always a real evaluation.
      if (!o.speculative) note_result(batch[i], o.result, /*cached=*/!o.ran);
      results[i] = o.result;
    }
    strategy.report_batch(batch, results);

    if (status.valid()) {
      status.update([&](obs::SessionStatus& s) {
        if (hooks_.status_batch_phase) {
          std::string phase = "batch ";
          phase += std::to_string(out.batches);
          s.phase = std::move(phase);
        }
        s.iterations = static_cast<std::uint64_t>(evaluations_);
        s.cache_hits =
            static_cast<std::uint64_t>(cache_hits_ + backend.cache_hits());
        if (best_) {
          s.best_value = best_value_;
          s.best_config = space_->format(*best_);
        }
      });
    }
  }

  out.strategy_converged = strategy.converged();
  out.best = best_;
  out.best_result = best_result_;
  out.best_objective = best_value_;
  out.evaluations = evaluations_;
  out.proposals = proposals_;
  out.cache_hits = cache_hits_;
  return out;
}

std::optional<Config> SearchController::ask(SearchStrategy& strategy) {
  if (pending_) return pending_;  // idempotent re-ask of the outstanding point
  // The budget counts measurements, not proposals: speculative tells leave
  // evaluations_ untouched, so a surrogate-assisted loop keeps asking until
  // enough *real* measurements were spent (max_proposals still bounds it).
  if (evaluations_ >= limits_.max_evaluations) return std::nullopt;
  if (proposals_ >= limits_.max_proposals) return std::nullopt;
  auto proposal = strategy.propose();
  if (!proposal) return std::nullopt;
  ++proposals_;
  pending_ = std::move(*proposal);
  return pending_;
}

void SearchController::tell(SearchStrategy& strategy, const EvaluationResult& r,
                            bool speculative) {
  if (!pending_) {
    throw std::logic_error("SearchController::tell without a pending ask");
  }
  if (tracer_ != nullptr) {
    const double now = tracer_->now_us();
    tracer_->record(obs::eval_span(trace_id_, strategy.name(),
                                   space_->format(*pending_), r.objective,
                                   r.valid, /*cache_hit=*/speculative, now, now));
  }
  if (!speculative) ++evaluations_;
  // Report first, then move the pending config into History — the strategy
  // needs the config intact, and handing History our copy makes the whole
  // tell() round trip Config-copy-free.
  strategy.report(*pending_, r);
  if (!speculative) note_result(std::move(*pending_), r, /*cached=*/false);
  pending_.reset();
}

}  // namespace harmony
