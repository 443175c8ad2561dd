// The three offline workloads: petsc_sles32 (Fig. 2b through Tuner),
// pop_pool (Fig. 4 + Table I through ParallelOfflineDriver) and gs2_fleet
// (Fig. 6 through the fleet dispatch path). Each runs a fixed, seeded
// schedule of searches repeatedly for the measurement window; the first
// repetition fixes the deterministic outcomes every later repetition must
// reproduce exactly.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/harmony.hpp"
#include "core/server.hpp"
#include "decorators.hpp"
#include "engine/engine.hpp"
#include "engine/pool_backend.hpp"
#include "fleet/dispatcher.hpp"
#include "fleet/worker_backend.hpp"
#include "fleet/worker_client.hpp"
#include "minigs2/minigs2.hpp"
#include "minipetsc/minipetsc.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using harmony::Config;

/// Deterministic outcome of one search of a schedule.
struct SearchOutcome {
  double default_obj = 0;
  double best = 0;
  Config best_config;
  int evals = 0;             ///< distinct, budget-charged evaluations
  int evals_to_best = 0;     ///< distinct evaluations before the final best
  double strategy_best = 0;  ///< pop_pool: the simplex's own incumbent,
  Config stage1_best;        ///< the simplex stage's best (the GA's first member)
  double stage2_best = 0;    ///< and the GA stage's best
  bool operator==(const SearchOutcome&) const = default;
};

/// Round trips of the untraced searches (thread-safe: pool lanes push too),
/// kept per search run: open() and close() bracket one search of one
/// untraced repetition. Samples pushed outside a search (reference
/// evaluations, checks) are dropped.
class SampleSink {
 public:
  void push(double x) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (open_) cur_.push_back(x);
  }
  void open() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
  }
  void close() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    parts_.push_back(std::move(cur_));
    cur_.clear();
  }
  /// Search runs in order: repetition-major, then search.
  [[nodiscard]] const std::vector<std::vector<double>>& parts() const { return parts_; }

 private:
  std::mutex mu_;
  bool open_ = false;
  std::vector<double> cur_;
  std::vector<std::vector<double>> parts_;
};

/// Repeats a fixed schedule of searches for the measurement window. In
/// traced runs the repetitions alternate untraced / traced, so the tracing
/// overhead is measured on the same schedule; only traced repetitions feed
/// the layer timers and the ledger. Every search is timed on its own and
/// gauged (HostGauge) by the samples taken around it (and inside it, where
/// the workload samples from its evaluator).
/// `setup_burst` runs before every repetition after the first: the
/// workload's set-ups are spread over the whole window like its searches.
struct ScheduleRun {
  std::vector<SearchOutcome> outcomes;        ///< from the first repetition
  std::vector<std::vector<Span>> untraced;    ///< per search: untraced runs
  std::vector<std::vector<Span>> traced;      ///< per search: traced runs
  std::vector<Span> untraced_order;           ///< untraced runs as SampleSink keeps them
  int traced_reps = 0;
  double traced_wall = 0;  ///< summed wall time of the traced repetitions,
                           ///< without the gauge's

  /// Time of one repetition of the schedule at the reference speed: the sum
  /// over its searches of each search's median gauged time.
  [[nodiscard]] static double schedule_s(const HostGauge& gauge,
                                         const std::vector<std::vector<Span>>& per_search) {
    double total = 0;
    for (const auto& runs : per_search) total += median(gauge.gauged(runs));
    return total;
  }
  [[nodiscard]] int evals() const {
    int n = 0;
    for (const auto& s : outcomes) n += s.evals;
    return n;
  }
  [[nodiscard]] double traced_evals() const {
    return static_cast<double>(evals()) * traced_reps;
  }
};

ScheduleRun repeat_schedule(
    const RunOptions& o, Report& report, HostGauge& gauge, int searches,
    const std::function<SearchOutcome(std::size_t search, bool traced)>& one,
    const std::function<void()>& setup_burst, SampleSink& rt) {
  const auto n = static_cast<std::size_t>(searches);
  ScheduleRun out;
  out.untraced.resize(n);
  out.traced.resize(n);
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    if (i > 0) {
      gauge.sample(true);
      setup_burst();
    }
    gauge.sample(true);
    const bool traced = o.trace && (i % 2 == 1);
    const double rep_g0 = gauge.spent_s();
    const auto r0 = Clock::now();
    std::vector<SearchOutcome> outcomes;
    for (std::size_t s = 0; s < n; ++s) {
      gauge.sample();
      if (!traced) rt.open();
      const double g0 = gauge.spent_s();
      const auto s0 = Clock::now();
      outcomes.push_back(one(s, traced));
      const Span span{s0, Clock::now(), gauge.spent_s() - g0};
      (traced ? out.traced : out.untraced)[s].push_back(span);
      if (!traced) {
        rt.close();
        out.untraced_order.push_back(span);
      }
    }
    if (traced) {
      out.traced_wall += seconds_since(r0) - (gauge.spent_s() - rep_g0);
      ++out.traced_reps;
    }
    if (i == 0) {
      out.outcomes = std::move(outcomes);
    } else {
      report.check(outcomes == out.outcomes,
                   "repetition " + std::to_string(i) + " diverged from the first");
    }
    const int min_reps = o.trace ? 4 : 3;
    if (i + 1 >= min_reps && seconds_since(t0) >= o.seconds) break;
  }
  gauge.sample(true);
  return out;
}

/// End-to-end metrics shared by the offline workloads. The round-trip
/// quantiles are taken over every untraced round trip of the run, each at
/// the reference speed of its search run.
void report_offline(const RunOptions& o, Report& report, const HostGauge& gauge,
                    const ScheduleRun& run, const std::vector<Span>& setups,
                    const SampleSink& rt) {
  std::vector<double> imp;
  std::vector<double> etb;
  for (const auto& s : run.outcomes) {
    imp.push_back(100.0 * (s.default_obj - s.best) / s.default_obj);
    etb.push_back(s.evals_to_best);
  }
  std::vector<double> rt_s;
  for (std::size_t p = 0; p < rt.parts().size(); ++p) {
    const double f = gauge.factor(run.untraced_order.at(p));
    for (const double x : rt.parts()[p]) rt_s.push_back(x * f);
  }
  const double tune_s = ScheduleRun::schedule_s(gauge, run.untraced);
  report.metric("setup_s", median(gauge.gauged(setups)), "s");
  report.metric("tune_s", tune_s, "s");
  report.metric("evals_per_s", run.evals() / tune_s, "1/s");
  report.metric("improvement_pct", median(imp), "%");
  report.metric("evals_to_best", median(etb), "count");
  report.metric("rt_p50_ms", 1e3 * quantile(rt_s, 0.50), "ms");
  report.metric("rt_p90_ms", 1e3 * quantile(rt_s, 0.90), "ms");
  if (o.trace && run.traced_reps > 0) {
    const double traced_s = ScheduleRun::schedule_s(gauge, run.traced);
    report.metric("obs.trace_overhead_pct", 100.0 * (traced_s / tune_s - 1.0), "%");
  }
  double wall_s = 0;
  for (const auto& runs : run.untraced) {
    std::vector<double> walls;
    for (const auto& sp : runs) walls.push_back(us_between(sp.from, sp.to) * 1e-6 - sp.gauge_s);
    wall_s += median(walls);
  }
  gauge.print("tune_s", wall_s, tune_s);
  std::printf("improvement_pct over searches: min %.3f median %.3f max %.3f; "
              "evals_to_best min %.0f median %.0f max %.0f\n",
              quantile(imp, 0), median(imp), quantile(imp, 1), quantile(etb, 0),
              median(etb), quantile(etb, 1));
  std::printf("schedule: %zu searches, %d evals per repetition, %zu repetitions "
              "(%d traced); %zu untraced round trips\n",
              run.outcomes.size(), run.evals(),
              run.untraced[0].size() + run.traced[0].size(), run.traced_reps,
              rt_s.size());
}

/// Strategy-layer metrics; returns the strategy's total busy time.
double report_strategy(Report& report, const StrategyTimers& t) {
  report.count("core.strategy.propose.calls", t.propose.count());
  report.metric("core.strategy.propose.busy_s", t.propose.busy_s(), "s");
  report.metric("core.strategy.report.busy_s", t.report.busy_s(), "s");
  return t.propose.busy_s() + t.report.busy_s();
}

int as_int(const harmony::Value& v) {
  return static_cast<int>(std::get<std::int64_t>(v));
}

// ---------------------------------------------------------------------------
// petsc_sles32: paper Fig. 2b. 21,025-row banded SPD matrix, 32 simulated
// ranks, Nelder-Mead over 32 per-rank weights then a coordinate-descent
// polish, serially through Tuner.

constexpr int kPetscRows = 21025;
constexpr int kPetscRanks = 32;
constexpr int kPetscSearches = 4;
constexpr int kPetscNmBudget = 80;
constexpr int kPetscPolishBudget = 40;

struct PetscInputs {
  minipetsc::CsrMatrix A;
  int iterations = 0;
};

PetscInputs petsc_setup() {
  PetscInputs in;
  in.A = minipetsc::variable_band_spd(kPetscRows, 4, 120);
  minipetsc::Vec b(static_cast<std::size_t>(kPetscRows));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::sin(0.01 * i);
  minipetsc::Vec x;
  const minipetsc::PcJacobi pc(in.A);
  in.iterations = std::max(1, minipetsc::cg_solve(in.A, b, x, pc).iterations);
  return in;
}

/// Dependent-variable handling of the paper's Fig. 2b: 32 per-rank work
/// weights become the 31 row boundaries.
minipetsc::RowPartition weights_to_partition(const Config& c) {
  const int n = kPetscRows;
  const int nranks = kPetscRanks;
  double total = 0;
  for (const auto& v : c.values) total += as_int(v);
  std::vector<int> bounds;
  double cum = 0;
  for (int i = 0; i < nranks - 1; ++i) {
    cum += as_int(c.values[static_cast<std::size_t>(i)]);
    int b = static_cast<int>(std::lround(n * cum / total));
    const int lo = bounds.empty() ? 1 : bounds.back() + 1;
    b = std::clamp(b, lo, n - (nranks - 1 - i));
    bounds.push_back(b);
  }
  return minipetsc::RowPartition::from_boundaries(n, nranks, bounds);
}

}  // namespace

void run_petsc_sles32(const RunOptions& o, Report& report) {
  LayerTimer setup_t, analyze_t, simulate_t, eval_t;
  StrategyTimers strat_t;
  Injector inject(o);

  // Set-up: one to run on, then one more before every repetition (thrown
  // away: same seedless inputs).
  HostGauge gauge;
  gauge.sample(true);
  std::vector<Span> setups;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    PetscInputs fresh = petsc_setup();
    setup_t.add(Clock::now() - t0);
    setups.push_back({t0, Clock::now()});
    return fresh;
  };
  const PetscInputs in = setup();
  const auto machine = simcluster::presets::cluster32();

  harmony::ParamSpace space;
  for (int i = 0; i < kPetscRanks; ++i) {
    space.add(harmony::Parameter::Integer("w" + std::to_string(i), 1, 200));
  }

  SampleSink rt;
  bool traced = false;
  const harmony::Evaluator evaluate = [&](const Config& c) {
    const auto t0 = Clock::now();
    const auto part = weights_to_partition(c);
    const auto stats = timed(traced, analyze_t, [&] {
      inject();
      return minipetsc::analyze(in.A, part);
    });
    const auto sim = timed(traced, simulate_t, [&] {
      return minipetsc::simulate_sles(machine, stats, in.iterations);
    });
    harmony::EvaluationResult r;
    r.objective = sim.total_s;
    if (traced) {
      eval_t.add(Clock::now() - t0);
    } else {
      rt.push(seconds_since(t0));
      // An evaluation takes milliseconds and a search most of a second:
      // gauge the host between evaluations, to follow its short episodes.
      gauge.sample();
    }
    return r;
  };

  Config even = space.default_config();
  for (auto& v : even.values) v = std::int64_t{100};
  const double t_default = evaluate(even).objective;

  // Seeded starts: per-rank weights perturbed around the even split.
  std::vector<Config> starts;
  std::vector<std::uint64_t> nm_seeds;
  SeedStream rng(o.seed, 0x9e75c);
  for (int s = 0; s < kPetscSearches; ++s) {
    Config c = even;
    for (auto& v : c.values) v = std::int64_t{rng.range(99, 101)};
    starts.push_back(c);
    nm_seeds.push_back(rng.next());
  }

  const auto one_search = [&](std::size_t s, bool tr) {
    traced = tr;
    harmony::NelderMeadOptions nm_opts;
    nm_opts.max_restarts = 8;
    nm_opts.seed = nm_seeds[s];
    harmony::NelderMead nm(space, nm_opts, starts[s]);
    TracedStrategy traced_nm(nm, strat_t);
    harmony::TunerOptions topts;
    topts.max_iterations = kPetscNmBudget;
    harmony::Tuner tuner(space, topts);
    const auto r1 = tuner.run(
        tr ? static_cast<harmony::SearchStrategy&>(traced_nm) : nm, evaluate);

    harmony::CoordinateDescent polish(space, *r1.best, 4, /*line_samples=*/12);
    TracedStrategy traced_polish(polish, strat_t);
    harmony::TunerOptions popts;
    popts.max_iterations = kPetscPolishBudget;
    popts.max_proposals = 60000;
    harmony::Tuner polisher(space, popts);
    const auto r2 = polisher.run(
        tr ? static_cast<harmony::SearchStrategy&>(traced_polish) : polish, evaluate);

    SearchOutcome out;
    out.default_obj = t_default;
    out.evals = r1.iterations + r2.iterations;
    if (r2.best_result.objective < r1.best_result.objective) {
      out.best = r2.best_result.objective;
      out.best_config = *r2.best;
      out.evals_to_best = r1.iterations + polisher.history().evals_to_best();
    } else {
      out.best = r1.best_result.objective;
      out.best_config = *r1.best;
      out.evals_to_best = tuner.history().evals_to_best();
    }
    traced = false;
    return out;
  };

  const auto run =
      repeat_schedule(o, report, gauge, kPetscSearches, one_search, [&] { (void)setup(); }, rt);
  check_thread_budget(report, "petsc_sles32");

  // Every tuned best re-evaluates to the objective its search reported.
  for (const auto& s : run.outcomes) {
    report.check(evaluate(s.best_config).objective == s.best,
                 "petsc tuned best does not re-evaluate to its objective");
  }

  report_offline(o, report, gauge, run, setups, rt);
  if (!o.trace) return;
  report.count("minipetsc.analyze.calls", analyze_t.count());
  report.metric("minipetsc.analyze.busy_s", analyze_t.busy_s(), "s");
  report.metric("minipetsc.simulate_sles.busy_s", simulate_t.busy_s(), "s");
  report.metric("minipetsc.setup.busy_s", setup_t.busy_s(), "s");
  const double strategy_s = report_strategy(report, strat_t);
  // Tuner hides its backend, so the evaluator stands for it.
  const double controller_self = run.traced_wall - strategy_s - eval_t.busy_s();
  report.metric("core.controller.self_s", controller_self, "s");
  report.ratio("core.controller.proposals_per_eval",
               static_cast<double>(strat_t.proposals), run.traced_evals());

  report.ledger_wall(run.traced_wall);
  report.ledger_row("minipetsc.analyze", analyze_t.busy_s());
  report.ledger_row("minipetsc.simulate_sles", simulate_t.busy_s());
  report.ledger_row("petsc.evaluator.self",
                    eval_t.busy_s() - analyze_t.busy_s() - simulate_t.busy_s());
  report.ledger_row("core.strategy", strategy_s);
  report.ledger_row("core.controller.self", controller_self);
}

// ---------------------------------------------------------------------------
// pop_pool: POP block size (Fig. 4) and the Table I runtime parameters tuned
// together on a 3-lane ParallelOfflineDriver, a fresh driver per stage: each
// search is SpeculativeNelderMead from a seeded start, then a GeneticSearch
// seeded with the simplex's best.

namespace {

constexpr int kPopLanes = 3;
constexpr int kPopSearches = 12;
constexpr std::size_t kPopSerialChecks = 8;
constexpr int kPopBudget = 2000;
constexpr int kPopSetupBurst = 4;  ///< set-ups before every repetition

struct PopInputs {
  minipop::PopGrid grid = minipop::PopGrid::production();
  minipop::PopModel model{grid};
  simcluster::Machine machine = simcluster::presets::nersc_sp3(30, 16);
  harmony::ParamSpace pspace = minipop::make_param_space(32);
  harmony::ParamSpace space;
  Config default_config;

  PopInputs() {
    space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
    space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
    for (const auto& p : pspace.params()) space.add(p);
    default_config = space.default_config();
    space.set(default_config, "block_x", std::int64_t{180});
    space.set(default_config, "block_y", std::int64_t{100});
    const Config pop_default = minipop::default_config(pspace);
    for (std::size_t i = 0; i < pop_default.values.size(); ++i) {
      default_config.values[i + 2] = pop_default.values[i];
    }
  }
};

harmony::GeneticOptions pop_ga_options(std::uint64_t seed) {
  harmony::GeneticOptions g;
  g.population = 24;
  g.generations = 10;  // generation-limited: the run budget never binds
  g.mutation = 0.15;
  g.seed = seed;
  return g;
}

/// Result of one search stage on the pool.
struct PoolStage {
  double best = 0;
  Config best_config;
  int runs = 0;
  int evals_to_best = 0;
};

harmony::NelderMeadOptions pop_nm_options(std::uint64_t seed) {
  harmony::NelderMeadOptions nm;
  nm.max_restarts = 8;
  // Wide enough that the first simplex flips enum choices (a 0.25 step
  // snaps back to the same choice on a 2-choice parameter).
  nm.initial_step_fraction = 0.6;
  nm.seed = seed;
  return nm;
}

}  // namespace

void run_pop_pool(const RunOptions& o, Report& report) {
  LayerTimer step_t, mult_t, substrate_t;
  StrategyTimers strat_t;
  std::uint64_t batches = 0, batch_items = 0, proposals = 0, hits = 0, coalesced = 0;
  double backend_busy = 0;
  Injector inject(o);

  // Set-up: one to run on, then a burst of thrown-away ones before every
  // repetition.
  HostGauge gauge;
  gauge.sample(true);
  std::vector<Span> setups;
  const auto setup_burst = [&](int n) {
    std::unique_ptr<PopInputs> fresh;
    for (int i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      fresh = std::make_unique<PopInputs>();
      setups.push_back({t0, Clock::now()});
    }
    return fresh;
  };
  const std::unique_ptr<PopInputs> in = setup_burst(kPopSetupBurst);
  const harmony::ParamSpace& space = in->space;

  SampleSink rt;
  std::atomic<bool> traced{false};
  std::atomic<int> threads_seen{0};
  const auto main_thread = std::this_thread::get_id();
  const harmony::ShortRunFn short_run = [&](const Config& c, int) {
    const bool tr = traced.load(std::memory_order_relaxed);
    // Thread budget, counted once from a pool lane while the pool is alive.
    if (threads_seen.load(std::memory_order_relaxed) == 0 &&
        std::this_thread::get_id() != main_thread) {
      threads_seen = thread_count();
    }
    const auto t0 = Clock::now();
    const minipop::BlockShape shape{as_int(c.values[0]), as_int(c.values[1])};
    Config pc;
    pc.values.assign(c.values.begin() + 2, c.values.end());
    const auto mult = timed(tr, mult_t, [&] {
      return minipop::evaluate_multipliers(in->pspace, pc);
    });
    const double step = timed(tr, step_t, [&] {
      inject();
      return in->model.step_time(in->machine, 16, shape, mult).total_s;
    });
    harmony::ShortRunResult r;
    r.measured_s = step;
    if (tr) {
      substrate_t.add(Clock::now() - t0);
    } else {
      rt.push(seconds_since(t0));
    }
    return r;
  };
  const double t_default = short_run(in->default_config, 10).measured_s;

  std::vector<Config> starts;
  std::vector<std::uint64_t> nm_seeds, ga_seeds;
  SeedStream rng(o.seed, 0x9091);
  // Table II defaults with a seeded block shape (the Fig. 4 axis). The
  // shapes are a Latin hypercube sample of the block grid: search s draws
  // its block_x from the s-th of kPopSearches equal slices of the range and
  // its block_y from a seeded permutation of the slices, so every seed
  // covers small and large blocks alike and the schedule's cost varies
  // little from seed to seed.
  std::vector<int> y_slice(kPopSearches);
  for (int s = 0; s < kPopSearches; ++s) y_slice[static_cast<std::size_t>(s)] = s;
  for (int s = kPopSearches - 1; s > 0; --s) {
    std::swap(y_slice[static_cast<std::size_t>(s)],
              y_slice[static_cast<std::size_t>(rng.range(0, s))]);
  }
  const auto in_slice = [&](int slice, int steps) {
    return static_cast<std::int64_t>((slice + rng.uniform()) * steps / kPopSearches);
  };
  for (int s = 0; s < kPopSearches; ++s) {
    Config c = in->default_config;
    space.set(c, "block_x", std::int64_t{30 + 6 * in_slice(s, 116)});
    space.set(c, "block_y",
              std::int64_t{24 + 4 * in_slice(y_slice[static_cast<std::size_t>(s)], 145)});
    starts.push_back(c);
    nm_seeds.push_back(rng.next());
    ga_seeds.push_back(rng.next());
  }

  // One stage of a search on a fresh 3-lane pool. Untraced: the
  // ParallelOfflineDriver facade. Traced: the SearchController +
  // PoolEvalBackend pair the facade assembles, with the benchmark's
  // decorators on the strategy and backend seams.
  const auto on_pool = [&](harmony::BatchSearchStrategy& strategy, bool tr) {
    PoolStage out;
    harmony::engine::ParallelOfflineOptions popts;
    popts.max_runs = kPopBudget;
    popts.pool_size = kPopLanes;
    if (!tr) {
      harmony::engine::ParallelOfflineDriver driver(space, popts);
      GaugedBatchStrategy gauged(strategy, gauge);
      const auto r = driver.tune(gauged, short_run);
      out.best = r.best_measured_s;
      out.best_config = *r.best;
      out.runs = r.runs;
      out.evals_to_best = driver.history().evals_to_best();
      return out;
    }
    harmony::engine::PoolEvalBackend pool(space, short_run, popts.short_run_steps,
                                          0.0, kPopLanes, kPopLanes, true);
    TimedBackend backend(pool);
    harmony::ControllerHooks hooks;
    hooks.proposals_counter = "engine.driver.proposals";
    hooks.batches_counter = "engine.driver.batches";
    hooks.status_phase = "batching";
    hooks.status_batch_phase = true;
    harmony::SearchController controller(space, {kPopBudget, kPopBudget * 64 + 256},
                                         std::move(hooks), nullptr, nullptr);
    TracedBatchStrategy ts(strategy, strat_t);
    const auto r = controller.run(ts, backend);
    batches += backend.timer.count();
    backend_busy += backend.timer.busy_s();
    batch_items += backend.items;
    proposals += static_cast<std::uint64_t>(r.proposals);
    hits += pool.cache_hits();
    coalesced += pool.cache_coalesced();
    out.best = r.best_objective;
    out.best_config = *r.best;
    out.runs = r.evaluations;
    out.evals_to_best = controller.history().evals_to_best();
    return out;
  };

  const auto one_search = [&](std::size_t s, bool tr) {
    traced = tr;
    // Stage 1: the speculative simplex from the seeded start.
    harmony::engine::SpeculativeNelderMead spec(space, pop_nm_options(nm_seeds[s]),
                                                starts[s]);
    const PoolStage nm = on_pool(spec, tr);
    // Stage 2: the GA seeded with the simplex's best. Its elites are
    // re-proposed every generation, so revisits reach the pool's cache.
    harmony::GeneticSearch ga(space, pop_ga_options(ga_seeds[s]), nm.best_config);
    const PoolStage gs = on_pool(ga, tr);

    SearchOutcome out;
    out.default_obj = t_default;
    out.evals = nm.runs + gs.runs;
    out.strategy_best = spec.best_objective();
    out.stage1_best = nm.best_config;
    out.stage2_best = gs.best;
    if (gs.best < nm.best) {
      out.best = gs.best;
      out.best_config = gs.best_config;
      out.evals_to_best = nm.runs + gs.evals_to_best;
    } else {
      out.best = nm.best;
      out.best_config = nm.best_config;
      out.evals_to_best = nm.evals_to_best;
    }
    traced = false;
    return out;
  };

  const auto run = repeat_schedule(o, report, gauge, kPopSearches, one_search,
                                   [&] { (void)setup_burst(kPopSetupBurst); }, rt);
  report.check(threads_seen.load() <= kMaxThreads,
               "thread budget exceeded in pop_pool: " +
                   std::to_string(threads_seen.load()) + " threads");

  // Checks: each tuned best re-evaluates to its objective, and on the first
  // kPopSerialChecks searches (a serial replay costs a repetition's worth of
  // single-lane work) the serial strategies reproduce the pool's: the serial
  // simplex from the same start and seed ends on the speculative simplex's
  // incumbent, and the serial GA from the same seed and first member finds
  // the pool GA's best.
  for (std::size_t s = 0; s < run.outcomes.size(); ++s) {
    const auto& out = run.outcomes[s];
    report.check(short_run(out.best_config, 10).measured_s == out.best,
                 "pop tuned best does not re-evaluate to its objective");
    if (s >= kPopSerialChecks) continue;
    harmony::OfflineOptions sopts;
    sopts.max_runs = kPopBudget;
    harmony::OfflineDriver serial(space, sopts);
    harmony::NelderMead nm(space, pop_nm_options(nm_seeds[s]), starts[s]);
    const auto sr = serial.tune(nm, short_run);
    // The speculative simplex replays the serial one exactly; its extra
    // (speculated) evaluations can only improve the driver's incumbent.
    report.check(nm.best_objective() == out.strategy_best &&
                     sr.best_measured_s >= out.best,
                 "pop pool simplex differs from the serial simplex for search " +
                     std::to_string(s));
    harmony::OfflineDriver serial_ga(space, sopts);
    harmony::GeneticSearch ga(space, pop_ga_options(ga_seeds[s]), out.stage1_best);
    const auto gr = serial_ga.tune(static_cast<harmony::SearchStrategy&>(ga), short_run);
    report.check(gr.best_measured_s == out.stage2_best,
                 "pop pool GA differs from the serial GA for search " +
                     std::to_string(s));
  }

  report_offline(o, report, gauge, run, setups, rt);
  if (!o.trace) return;
  report.count("minipop.step_time.calls", step_t.count());
  report.metric("minipop.step_time.busy_s", step_t.busy_s(), "s");
  report.metric("minipop.multipliers.busy_s", mult_t.busy_s(), "s");
  const double strategy_s = report_strategy(report, strat_t);
  const double controller_self = run.traced_wall - strategy_s - backend_busy;
  report.metric("core.controller.self_s", controller_self, "s");
  report.ratio("core.controller.cache_hit_ratio", static_cast<double>(hits + coalesced),
               static_cast<double>(proposals));
  report.ratio("core.controller.proposals_per_eval", static_cast<double>(proposals),
               run.traced_evals());
  report.count("engine.backend.batches", batches);
  report.metric("engine.backend.batch_size_mean",
                static_cast<double>(batch_items) / static_cast<double>(batches),
                "count");
  report.metric("engine.backend.busy_s", backend_busy, "s");
  const double lane_s = kPopLanes * backend_busy;
  report.ratio("engine.pool.utilization", substrate_t.busy_s(), lane_s);
  report.metric("engine.pool.idle_s", lane_s - substrate_t.busy_s(), "s");
  report.count("engine.cache.coalesced", coalesced);

  // Critical path of the driving thread: waiting on the pool (substrate work
  // on the lanes plus dispatch), the strategy, the controller.
  report.ledger_wall(run.traced_wall);
  report.ledger_row("engine.backend (pool wait)", backend_busy);
  report.ledger_row("core.strategy", strategy_s);
  report.ledger_row("core.controller.self", controller_self);
  std::printf("pool lanes: substrate busy %.4f s = minipop.step_time %.4f s + "
              "minipop.multipliers %.4f s + wrapper; utilization %.3f; "
              "cache %llu hits + %llu coalesced of %llu proposals\n",
              substrate_t.busy_s(), step_t.busy_s(), mult_t.busy_s(),
              substrate_t.busy_s() / lane_s, static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(coalesced),
              static_cast<unsigned long long>(proposals));
}

// ---------------------------------------------------------------------------
// gs2_fleet: the Fig. 6 GS2 space through SurrogateEvalBackend ->
// WorkerEvalBackend -> Dispatcher -> a 1-reactor server -> two in-process
// WorkerClients over loopback. Each search is the 368-point systematic sweep
// plus a GA + k-NN surrogate search.

namespace {

constexpr int kGs2Searches = 128;
constexpr int kGs2Workers = 2;
constexpr int kGs2GaBudget = 92;
constexpr int kGs2Steps = 10;
constexpr int kGs2SetupBurst = 8;  ///< rig rebuilds before every repetition

/// Server + dispatcher + workers; torn down in dependency order.
struct FleetRig {
  std::unique_ptr<harmony::fleet::Dispatcher> dispatcher;
  std::unique_ptr<harmony::TuningServer> server;
  std::vector<std::unique_ptr<harmony::fleet::WorkerClient>> clients;
  std::vector<std::thread> threads;
  std::atomic<bool> worker_failed{false};
  bool ok = false;

  FleetRig(const FleetRig&) = delete;
  FleetRig& operator=(const FleetRig&) = delete;

  FleetRig(const harmony::ParamSpace& space, const harmony::ShortRunFn& run) {
    harmony::fleet::DispatcherOptions dopts;
    dopts.substrate = "gs2";
    dispatcher = std::make_unique<harmony::fleet::Dispatcher>(space, dopts);
    harmony::ServerOptions sopts;
    sopts.fleet = dispatcher.get();
    sopts.reactor_threads = 1;
    server = std::make_unique<harmony::TuningServer>(sopts);
    if (!server->start()) return;
    const int port = server->port();
    for (int w = 0; w < kGs2Workers; ++w) {
      harmony::fleet::WorkerClientOptions wopts;
      wopts.name = "gs2";
      wopts.capacity = 2;
      clients.push_back(std::make_unique<harmony::fleet::WorkerClient>(wopts));
    }
    for (auto& c : clients) {
      auto* wc = c.get();
      threads.emplace_back([this, wc, &space, &run, port] {
        try {
          (void)wc->run(port, space, run, kGs2Steps);
        } catch (const std::exception&) {
          worker_failed = true;  // the run's checks report it
        }
      });
    }
    ok = dispatcher->wait_for_workers(kGs2Workers, std::chrono::milliseconds(5000));
  }
  ~FleetRig() {
    dispatcher->shutdown();
    server->stop();
    for (auto& t : threads) t.join();
  }
};

harmony::GeneticOptions gs2_ga_options(std::uint64_t seed) {
  harmony::GeneticOptions g;
  g.population = 16;
  g.generations = 100;  // budget-limited, not generation-limited
  g.mutation = 0.25;
  g.seed = seed;
  return g;
}

harmony::engine::SurrogateBackendOptions gs2_surrogate_options() {
  harmony::engine::SurrogateBackendOptions s;
  s.top_k = 4;
  s.rank_window = 16;
  return s;
}

}  // namespace

void run_gs2_fleet(const RunOptions& o, Report& report) {
  LayerTimer gs2_t, worker_t;
  StrategyTimers strat_t;
  Injector inject(o);
  double sweep_fleet_busy = 0, ga_fleet_busy = 0, surrogate_busy = 0;
  std::uint64_t proposals = 0, cache_hits = 0, forwarded = 0, skipped = 0;

  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("negrid", 4, 16));
  space.add(harmony::Parameter::Integer("ntheta", 10, 32, 2));
  space.add(harmony::Parameter::Integer("nodes", 1, 64));
  const minigs2::Gs2Model model;
  const minigs2::Layout layout("lxyes");

  std::atomic<bool> traced{false};
  const harmony::ShortRunFn short_run = [&](const Config& c, int steps) {
    const bool tr = traced.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    minigs2::Resolution res;
    res.negrid = as_int(c.values[0]);
    res.ntheta = as_int(c.values[1]);
    const int nodes = as_int(c.values[2]);
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    harmony::ShortRunResult r;
    r.measured_s = timed(tr, gs2_t, [&] {
      inject();
      return model.run_time(machine, 2 * nodes, res, layout,
                            minigs2::CollisionModel::None, steps);
    });
    if (tr) worker_t.add(Clock::now() - t0);
    return r;
  };
  const harmony::Evaluator evaluate = [&](const Config& c) {
    harmony::EvaluationResult r;
    r.objective = short_run(c, kGs2Steps).measured_s;
    return r;
  };

  // Set-up: a burst of full rebuilds (tear down, start the server, attach
  // the workers); the last rig stays up. Untraced runs repeat the burst
  // before every repetition; traced runs keep one rig, so its dispatcher
  // counters cover every traced search.
  HostGauge gauge;
  gauge.sample(true);
  std::vector<Span> setups;
  std::unique_ptr<FleetRig> rig;
  const auto setup_burst = [&] {
    for (int i = 0; i < kGs2SetupBurst; ++i) {
      if (rig) report.check(!rig->worker_failed, "a fleet worker thread failed");
      rig.reset();
      const auto t0 = Clock::now();
      rig = std::make_unique<FleetRig>(space, short_run);
      setups.push_back({t0, Clock::now()});
      report.check(rig->ok, "fleet workers failed to attach");
      if (!rig->ok) throw std::runtime_error("fleet workers failed to attach");
    }
  };
  setup_burst();
  check_thread_budget(report, "gs2_fleet");

  const double t_default = evaluate(space.default_config()).objective;
  std::vector<std::uint64_t> ga_seeds;
  SeedStream rng(o.seed, 0x6552);
  for (int s = 0; s < kGs2Searches; ++s) ga_seeds.push_back(rng.next());

  SampleSink rt;
  const auto one_search = [&](std::size_t s, bool tr) {
    traced = tr;
    auto& dispatcher = *rig->dispatcher;
    const auto before = dispatcher.stats();
    // Stage 1: the systematic sweep, every point over the wire.
    harmony::fleet::WorkerEvalBackend sweep_wb(dispatcher, space);
    TimedBackend sweep_tb(sweep_wb);
    harmony::engine::BatchSystematicSampler sweep(space, std::vector<int>{4, 4, 23});
    TracedBatchStrategy traced_sweep(sweep, strat_t);
    harmony::SearchController sweep_ctl(space, {368, 4000});
    auto& sweep_strategy =
        tr ? static_cast<harmony::BatchSearchStrategy&>(traced_sweep) : sweep;
    const auto r1 = sweep_ctl.run(sweep_strategy, sweep_tb);

    // Stage 2: GA behind the k-NN surrogate, misses on the fleet.
    harmony::fleet::WorkerEvalBackend ga_wb(dispatcher, space);
    TimedBackend ga_tb(ga_wb);
    harmony::engine::KnnSurrogate knn(space, {});
    harmony::engine::SurrogateEvalBackend surrogate(ga_tb, knn,
                                                    gs2_surrogate_options());
    TimedBackend surrogate_tb(surrogate);
    harmony::GeneticSearch ga(space, gs2_ga_options(ga_seeds[s]));
    TracedBatchStrategy traced_ga(ga, strat_t);
    harmony::EvalCache cache(space);
    harmony::SearchController ga_ctl(space, {kGs2GaBudget, 100000}, {}, nullptr,
                                     &cache);
    auto& ga_strategy = tr ? static_cast<harmony::BatchSearchStrategy&>(traced_ga)
                           : static_cast<harmony::BatchSearchStrategy&>(ga);
    const auto r2 = ga_ctl.run(ga_strategy, surrogate_tb);

    const auto after = dispatcher.stats();
    report.check(after.completed - before.completed ==
                     static_cast<std::uint64_t>(r1.evaluations + r2.evaluations),
                 "dispatcher completed count does not match distinct evaluations");
    report.check(after.failed == before.failed,
                 "dispatcher reported failed evaluations");
    report.check(r1.evaluations == 368, "sweep did not evaluate 368 points");

    if (tr) {
      sweep_fleet_busy += sweep_tb.timer.busy_s();
      ga_fleet_busy += ga_tb.timer.busy_s();
      surrogate_busy += surrogate_tb.timer.busy_s();
      proposals += static_cast<std::uint64_t>(r1.proposals + r2.proposals);
      cache_hits += r1.cache_hits + r2.cache_hits + sweep_wb.cache_hits() +
                    ga_wb.cache_hits();
      forwarded += surrogate.forwarded();
      skipped += surrogate.skipped();
    } else {
      for (const double x : sweep_tb.batch_s) rt.push(x);
      for (const double x : ga_tb.batch_s) rt.push(x);
    }
    SearchOutcome out;
    out.default_obj = t_default;
    out.best = r2.best_objective;
    out.best_config = *r2.best;
    out.evals = r1.evaluations + r2.evaluations;
    out.evals_to_best = ga_ctl.history().evals_to_best();
    traced = false;
    return out;
  };

  const auto before_all = rig->dispatcher->stats();
  const auto run = repeat_schedule(o, report, gauge, kGs2Searches, one_search, [&] {
    if (!o.trace) setup_burst();
  }, rt);
  const auto& dispatcher = *rig->dispatcher;
  const auto after_all = dispatcher.stats();
  report.check(!rig->worker_failed, "a fleet worker thread failed");
  const auto latency_p50_us = dispatcher.eval_latency().quantile(0.50) * 1e6;
  const auto latency_p99_us = dispatcher.eval_latency().quantile(0.99) * 1e6;
  rig.reset();

  // Checks: each tuned best re-evaluates to its objective, and the same GA +
  // surrogate search run in-process reproduces the fleet's best. The
  // reference is a one-lane pool backend: it has the fleet backend's dedup
  // semantics (duplicates inside a batch cost one run).
  for (std::size_t s = 0; s < run.outcomes.size(); ++s) {
    const auto& out = run.outcomes[s];
    report.check(evaluate(out.best_config).objective == out.best,
                 "gs2 tuned best does not re-evaluate to its objective");
    harmony::engine::PoolEvalBackend local(space, short_run, kGs2Steps, 0.0, 1, 4,
                                           true);
    harmony::engine::KnnSurrogate knn(space, {});
    harmony::engine::SurrogateEvalBackend surrogate(local, knn,
                                                    gs2_surrogate_options());
    harmony::GeneticSearch ga(space, gs2_ga_options(ga_seeds[s]));
    harmony::EvalCache cache(space);
    harmony::SearchController ctl(space, {kGs2GaBudget, 100000}, {}, nullptr, &cache);
    const auto r = ctl.run(static_cast<harmony::BatchSearchStrategy&>(ga), surrogate);
    report.check(r.best && *r.best == out.best_config && r.best_objective == out.best,
                 "gs2 fleet best differs from the in-process best for search " +
                     std::to_string(s));
  }

  report_offline(o, report, gauge, run, setups, rt);
  if (!o.trace) return;
  report.count("minigs2.run_time.calls", gs2_t.count());
  report.metric("minigs2.run_time.busy_s", gs2_t.busy_s(), "s");
  const double strategy_s = report_strategy(report, strat_t);
  // The sweep's backend is the fleet backend itself; the GA's is the
  // surrogate, which wraps the fleet backend.
  const double surrogate_self = surrogate_busy - ga_fleet_busy;
  const double fleet_busy = sweep_fleet_busy + ga_fleet_busy;
  const double controller_self =
      run.traced_wall - strategy_s - sweep_fleet_busy - surrogate_busy;
  report.metric("core.controller.self_s", controller_self, "s");
  report.metric("engine.surrogate.self_s", surrogate_self, "s");
  report.ratio("core.controller.cache_hit_ratio", static_cast<double>(cache_hits),
               static_cast<double>(proposals));
  report.ratio("core.controller.proposals_per_eval", static_cast<double>(proposals),
               run.traced_evals());
  report.ratio("engine.surrogate.skip_ratio", static_cast<double>(skipped),
               static_cast<double>(forwarded + skipped));
  report.metric("fleet.backend.busy_s", fleet_busy, "s");
  report.count("fleet.dispatch.dispatched",
               after_all.dispatched - before_all.dispatched);
  report.count("fleet.dispatch.redispatched",
               after_all.redispatched - before_all.redispatched);
  report.count("fleet.dispatch.deduped", after_all.deduped - before_all.deduped);
  report.metric("fleet.eval_latency.p50_us", latency_p50_us, "us");
  report.metric("fleet.eval_latency.p99_us", latency_p99_us, "us");
  report.ratio("fleet.worker.utilization", worker_t.busy_s(), kGs2Workers * fleet_busy);

  report.ledger_wall(run.traced_wall);
  report.ledger_row("fleet.backend (wire + workers)", fleet_busy);
  report.ledger_row("engine.surrogate.self", surrogate_self);
  report.ledger_row("core.strategy", strategy_s);
  report.ledger_row("core.controller.self", controller_self);
  std::printf("workers: busy %.4f s (minigs2.run_time %.4f s) over %d workers\n",
              worker_t.busy_s(), gs2_t.busy_s(), kGs2Workers);
}

}  // namespace perfbench
