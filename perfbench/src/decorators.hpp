#pragma once

/// \file decorators.hpp
/// The benchmark's own timing decorators on the public seams of the tuning
/// stack: SearchStrategy / BatchSearchStrategy (the strategy layer) and
/// EvalBackend (engine, surrogate and fleet backends). They forward every
/// call unchanged, so a decorated search follows the exact trajectory of an
/// undecorated one; the only difference is two clock reads per call.

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/controller.hpp"
#include "core/strategy.hpp"

namespace perfbench {

/// Strategy-layer counters shared by the serial and batch decorators.
struct StrategyTimers {
  LayerTimer propose;
  LayerTimer report;
  std::uint64_t proposals = 0;  ///< configurations handed out
};

class TracedStrategy final : public harmony::SearchStrategy {
 public:
  TracedStrategy(harmony::SearchStrategy& inner, StrategyTimers& t)
      : inner_(&inner), t_(&t) {}

  std::optional<harmony::Config> propose() override {
    const auto t0 = Clock::now();
    auto c = inner_->propose();
    t_->propose.add(Clock::now() - t0);
    if (c) ++t_->proposals;
    return c;
  }
  void report(const harmony::Config& c, const harmony::EvaluationResult& r) override {
    const auto t0 = Clock::now();
    inner_->report(c, r);
    t_->report.add(Clock::now() - t0);
  }
  bool converged() const override { return inner_->converged(); }
  std::optional<harmony::Config> best() const override { return inner_->best(); }
  double best_objective() const override { return inner_->best_objective(); }
  std::string name() const override { return inner_->name(); }

 private:
  harmony::SearchStrategy* inner_;
  StrategyTimers* t_;
};

class TracedBatchStrategy final : public harmony::BatchSearchStrategy {
 public:
  TracedBatchStrategy(harmony::BatchSearchStrategy& inner, StrategyTimers& t)
      : inner_(&inner), t_(&t) {}

  std::vector<harmony::Config> propose_batch(std::size_t max_n) override {
    const auto t0 = Clock::now();
    auto b = inner_->propose_batch(max_n);
    t_->propose.add(Clock::now() - t0);
    t_->proposals += b.size();
    return b;
  }
  void report_batch(const std::vector<harmony::Config>& configs,
                    const std::vector<harmony::EvaluationResult>& results) override {
    const auto t0 = Clock::now();
    inner_->report_batch(configs, results);
    t_->report.add(Clock::now() - t0);
  }
  bool converged() const override { return inner_->converged(); }
  std::optional<harmony::Config> best() const override { return inner_->best(); }
  double best_objective() const override { return inner_->best_objective(); }
  std::string name() const override { return inner_->name(); }

 private:
  harmony::BatchSearchStrategy* inner_;
  StrategyTimers* t_;
};

/// Samples the HostGauge before every batch proposal: the pool's lanes are
/// idle then, and a search of many short batches is gauged from inside.
class GaugedBatchStrategy final : public harmony::BatchSearchStrategy {
 public:
  GaugedBatchStrategy(harmony::BatchSearchStrategy& inner, HostGauge& gauge)
      : inner_(&inner), gauge_(&gauge) {}

  std::vector<harmony::Config> propose_batch(std::size_t max_n) override {
    gauge_->sample();
    return inner_->propose_batch(max_n);
  }
  void report_batch(const std::vector<harmony::Config>& configs,
                    const std::vector<harmony::EvaluationResult>& results) override {
    inner_->report_batch(configs, results);
  }
  bool converged() const override { return inner_->converged(); }
  std::optional<harmony::Config> best() const override { return inner_->best(); }
  double best_objective() const override { return inner_->best_objective(); }
  std::string name() const override { return inner_->name(); }

 private:
  harmony::BatchSearchStrategy* inner_;
  HostGauge* gauge_;
};

/// EvalBackend decorator: per-batch wall time, batch count and size. Also
/// keeps every batch duration so untraced runs can report per-batch round
/// trip quantiles.
class TimedBackend final : public harmony::EvalBackend {
 public:
  explicit TimedBackend(harmony::EvalBackend& inner) : inner_(&inner) {}

  std::vector<harmony::EvalOutcome> evaluate(const std::vector<harmony::Config>& batch,
                                             const Context& ctx) override {
    const auto t0 = Clock::now();
    auto out = inner_->evaluate(batch, ctx);
    const auto d = Clock::now() - t0;
    timer.add(d);
    items += batch.size();
    batch_s.push_back(std::chrono::duration<double>(d).count());
    return out;
  }
  std::size_t concurrency() const override { return inner_->concurrency(); }
  bool traces() const override { return inner_->traces(); }
  std::size_t cache_hits() const override { return inner_->cache_hits(); }
  std::size_t cache_coalesced() const override { return inner_->cache_coalesced(); }

  LayerTimer timer;
  std::uint64_t items = 0;
  std::vector<double> batch_s;

 private:
  harmony::EvalBackend* inner_;
};

}  // namespace perfbench
