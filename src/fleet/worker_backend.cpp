#include "fleet/worker_backend.hpp"

#include "obs/metrics.hpp"

namespace harmony::fleet {

WorkerEvalBackend::WorkerEvalBackend(Dispatcher& dispatcher,
                                     const ParamSpace& space,
                                     WorkerBackendOptions opts)
    : dispatcher_(&dispatcher),
      max_batch_(opts.max_batch),
      memo_(space, opts.use_cache) {}

std::size_t WorkerEvalBackend::concurrency() const {
  if (max_batch_ > 0) return max_batch_;
  const std::size_t cap = dispatcher_->total_capacity();
  return cap > 0 ? cap : 1;
}

std::vector<EvalOutcome> WorkerEvalBackend::evaluate(
    const std::vector<Config>& batch, const Context& /*ctx*/) {
  return memo_.resolve(batch, [this](const std::vector<Config>& misses) {
    obs::count("fleet.batches");
    return dispatcher_->run_batch(misses);
  });
}

}  // namespace harmony::fleet
