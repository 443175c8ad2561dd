// perfbench: the repository benchmark. Runs one named workload from a seed
// for a measurement window, checks its outputs and prints one JSON line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and print the layer ledger.
//
//   perfbench --workload pop_pool --seed 1 --seconds 10 --trace 0
//             [--inject-delay-us N [--inject-every K]]

#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every untraced run reports exactly these, on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"tune_s", "s"},          {"evals_per_s", "1/s"},
    {"improvement_pct", "%"}, {"evals_to_best", "count"}, {"rt_p50_ms", "ms"},
    {"rt_p90_ms", "ms"},      {"peak_rss_mb", "MB"},
};

// Every traced run reports exactly these; a layer a workload does not touch
// reads 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"minipetsc.analyze.calls", "count"},
    {"minipetsc.analyze.busy_s", "s"},
    {"minipetsc.simulate_sles.busy_s", "s"},
    {"minipetsc.setup.busy_s", "s"},
    {"minipop.step_time.calls", "count"},
    {"minipop.step_time.busy_s", "s"},
    {"minipop.multipliers.busy_s", "s"},
    {"minigs2.run_time.calls", "count"},
    {"minigs2.run_time.busy_s", "s"},
    {"core.strategy.propose.calls", "count"},
    {"core.strategy.propose.busy_s", "s"},
    {"core.strategy.report.busy_s", "s"},
    {"core.controller.self_s", "s"},
    {"core.controller.cache_hit_ratio", "ratio"},
    {"core.controller.proposals_per_eval", "ratio"},
    {"engine.backend.batches", "count"},
    {"engine.backend.batch_size_mean", "count"},
    {"engine.backend.busy_s", "s"},
    {"engine.pool.utilization", "ratio"},
    {"engine.pool.idle_s", "s"},
    {"engine.cache.coalesced", "count"},
    {"engine.surrogate.skip_ratio", "ratio"},
    {"engine.surrogate.self_s", "s"},
    {"fleet.backend.busy_s", "s"},
    {"fleet.dispatch.dispatched", "count"},
    {"fleet.dispatch.redispatched", "count"},
    {"fleet.dispatch.deduped", "count"},
    {"fleet.eval_latency.p50_us", "us"},
    {"fleet.eval_latency.p99_us", "us"},
    {"fleet.worker.utilization", "ratio"},
    {"core.server.handle.p50_us", "us"},
    {"core.server.handle.p99_us", "us"},
    {"core.server.ask.p50_us", "us"},
    {"core.server.tell.p50_us", "us"},
    {"core.server.outside.p50_us", "us"},
    {"core.server.status.p50_us", "us"},
    {"core.protocol.parse_ns", "ns"},
    {"core.protocol.encode_ns", "ns"},
    {"server.rt_p50_ms.lo", "ms"},
    {"server.rt_p99_ms.lo", "ms"},
    {"server.rt_p50_ms.mid", "ms"},
    {"server.rt_p99_ms.mid", "ms"},
    {"server.rt_p50_ms.hi", "ms"},
    {"server.rt_p99_ms.hi", "ms"},
    {"server.max_rate_at_slo", "1/s"},
    {"server.open_p50_ms", "ms"},
    {"server.open_p99_ms", "ms"},
    {"gen.late_p99_us", "us"},
    {"obs.trace_overhead_pct", "%"},
    {"ledger.wall_s", "s"},
    {"ledger.residual_s", "s"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "{petsc_sles32|pop_pool|gs2_fleet|server_online}\n"
               "         --seed N --seconds S --trace {0|1}\n"
               "         [--inject-delay-us N [--inject-every K]]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = v == "1";
      else if (a == "--inject-delay-us") o.inject_delay_us = std::stod(v);
      else if (a == "--inject-every") o.inject_every = std::stoi(v);
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }

  // Every workload runs on one CPU; server_online widens it again for its
  // open-loop phase.
  if (!perfbench::pin_to_one_cpu()) {
    std::fprintf(stderr, "perfbench: could not pin the process to one CPU\n");
  }
  Report report;
  try {
    if (o.workload == "petsc_sles32") perfbench::run_petsc_sles32(o, report);
    else if (o.workload == "pop_pool") perfbench::run_pop_pool(o, report);
    else if (o.workload == "gs2_fleet") perfbench::run_gs2_fleet(o, report);
    else if (o.workload == "server_online") perfbench::run_server_online(o, report);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  if (o.trace) {
    report.print_ledger(o.workload);
    report.metric("ledger.residual_s", report.ledger_residual(), "s");
  }
  for (const auto& f : report.failures()) std::printf("check failed: %s\n", f.c_str());

  // The final line carries exactly the metric set of the run's mode.
  Report out = report.select([&] {
    std::vector<std::pair<std::string, std::string>> names;
    if (o.trace) {
      for (const auto& m : kPerLayer) names.emplace_back(m.name, m.unit);
    } else {
      for (const auto& m : kEndToEnd) names.emplace_back(m.name, m.unit);
    }
    return names;
  }());
  std::fflush(stdout);
  out.print_json();
  return 0;
}
