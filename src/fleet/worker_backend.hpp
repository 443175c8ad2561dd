#pragma once

/// \file worker_backend.hpp
/// EvalBackend that measures candidates on the remote worker fleet: a
/// BatchMemo resolves each batch (cache hits and in-batch repeats are served
/// without a remote round trip) and the distinct misses are dispatched
/// through the fleet Dispatcher, which fans them out across every attached
/// worker process. Plugging this into SearchController turns any strategy
/// into a fleet-distributed search with no controller changes — the same
/// seam the serial and thread-pool backends use.

#include <cstddef>
#include <vector>

#include "core/controller.hpp"
#include "fleet/dispatcher.hpp"

namespace harmony::fleet {

struct WorkerBackendOptions {
  /// Cap on one dispatched batch; 0 sizes batches to the fleet's live total
  /// capacity (at least 1), so the controller asks strategies for exactly
  /// what the fleet can absorb at once.
  std::size_t max_batch = 0;

  /// Memoize results across batches and run in-batch repeats once. Disable
  /// for benchmarks that want every proposal to hit the wire.
  bool use_cache = true;
};

class WorkerEvalBackend final : public EvalBackend {
 public:
  /// `dispatcher` and `space` must outlive the backend.
  WorkerEvalBackend(Dispatcher& dispatcher, const ParamSpace& space,
                    WorkerBackendOptions opts = {});

  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

  [[nodiscard]] std::size_t concurrency() const override;
  [[nodiscard]] std::size_t cache_hits() const override { return memo_.hits(); }
  [[nodiscard]] std::size_t cache_coalesced() const override {
    return memo_.coalesced();
  }

 private:
  Dispatcher* dispatcher_;
  std::size_t max_batch_;
  BatchMemo memo_;
};

}  // namespace harmony::fleet
