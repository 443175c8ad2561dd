#include "engine/pool_backend.hpp"

#include <future>
#include <limits>
#include <utility>

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
      use_cache_(use_cache),
      batch_cap_(batch_cap),
      cache_(space),
      pool_(static_cast<std::size_t>(pool_size)) {}

std::vector<EvalOutcome> PoolEvalBackend::evaluate(const std::vector<Config>& batch,
                                                   const Context& ctx) {
  std::vector<std::future<EvalOutcome>> futures;
  futures.reserve(batch.size());
  for (const auto& c : batch) {
    futures.push_back(pool_.submit([this, &ctx, c]() {
      // One tuning iteration == one representative short run (Section III):
      // stop, reconfigure, restart, warm up, measure. Every component of
      // that cost is charged to the tuning bill.
      obs::SearchTracer* const tracer = ctx.tracer;
      const double t_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
      double cost_s = 0.0;
      const auto launch = [&]() {
        const ShortRunResult r = (*run_)(c, steps_);
        cost_s = restart_overhead_s_ + r.warmup_s + r.measured_s;
        obs::observe("engine.short_run_s", r.warmup_s + r.measured_s);
        EvaluationResult res;
        res.valid = r.ok;
        res.objective =
            r.ok ? r.measured_s : std::numeric_limits<double>::infinity();
        res.metrics["warmup_s"] = r.warmup_s;
        return res;
      };
      EvalOutcome t;
      if (use_cache_) {
        const auto o = cache_.evaluate(c, launch);
        t.result = o.result;
        t.ran = o.ran;
      } else {
        t.result = launch();
        t.ran = true;
      }
      t.cost_s = t.ran ? cost_s : 0.0;
      if (t.ran) obs::count("engine.driver.runs");
      if (tracer != nullptr) {
        tracer->record(obs::eval_span(ctx.trace_id, ctx.strategy_name,
                                      ctx.space->format(c), t.result.objective,
                                      t.result.valid, /*cache_hit=*/!t.ran,
                                      t_start_us, tracer->now_us()));
      }
      return t;
    }));
  }
  std::vector<EvalOutcome> out;
  out.reserve(batch.size());
  for (auto& f : futures) {
    out.push_back(f.get());  // rethrows worker exceptions
  }
  return out;
}

}  // namespace harmony::engine
