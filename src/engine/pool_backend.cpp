#include "engine/pool_backend.hpp"

#include <future>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace harmony::engine {

PoolEvalBackend::PoolEvalBackend(const ParamSpace& space, const ShortRunFn& run,
                                 int steps, double restart_overhead_s,
                                 int pool_size, std::size_t batch_cap,
                                 bool use_cache)
    : run_(&run),
      steps_(steps),
      restart_overhead_s_(restart_overhead_s),
      batch_cap_(batch_cap),
      memo_(space, use_cache),
      pool_(static_cast<std::size_t>(pool_size)) {}

std::vector<EvalOutcome> PoolEvalBackend::evaluate(const std::vector<Config>& batch,
                                                   const Context& ctx) {
  obs::SearchTracer* const tracer = ctx.tracer;
  const double t_resolve_us = tracer != nullptr ? tracer->now_us() : 0.0;
  auto out = memo_.resolve(
      batch, [&](const std::vector<Config>& misses) { return run_all(misses, ctx); });
  if (tracer != nullptr) {
    // Hits and repeats were answered here, before dispatch.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (out[i].ran) continue;
      tracer->record(obs::eval_span(ctx.trace_id, ctx.strategy_name,
                                    ctx.space->format(batch[i]),
                                    out[i].result.objective, out[i].result.valid,
                                    /*cache_hit=*/true, t_resolve_us, t_resolve_us));
    }
  }
  return out;
}

std::vector<EvalOutcome> PoolEvalBackend::run_all(const std::vector<Config>& misses,
                                                  const Context& ctx) {
  std::vector<std::future<EvalOutcome>> futures;
  futures.reserve(misses.size());
  for (const auto& c : misses) {
    futures.push_back(pool_.submit([this, &ctx, &c]() {
      // One tuning iteration == one representative short run (Section III):
      // stop, reconfigure, restart, warm up, measure. Every component of
      // that cost is charged to the tuning bill.
      obs::SearchTracer* const tracer = ctx.tracer;
      const double t_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
      const ShortRunResult r = (*run_)(c, steps_);
      obs::observe("engine.short_run_s", r.warmup_s + r.measured_s);
      obs::count("engine.driver.runs");
      EvalOutcome t;
      t.cost_s = restart_overhead_s_ + r.warmup_s + r.measured_s;
      t.result.valid = r.ok;
      t.result.objective =
          r.ok ? r.measured_s : std::numeric_limits<double>::infinity();
      t.result.metrics["warmup_s"] = r.warmup_s;
      if (tracer != nullptr) {
        tracer->record(obs::eval_span(ctx.trace_id, ctx.strategy_name,
                                      ctx.space->format(c), t.result.objective,
                                      t.result.valid, /*cache_hit=*/false,
                                      t_start_us, tracer->now_us()));
      }
      return t;
    }));
  }
  // Tasks borrow `c` and `ctx`: let every one finish before the first
  // failure unwinds them.
  for (const auto& f : futures) f.wait();
  std::vector<EvalOutcome> out;
  out.reserve(misses.size());
  for (auto& f : futures) out.push_back(f.get());  // rethrows the first failure
  return out;
}

}  // namespace harmony::engine
