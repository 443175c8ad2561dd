// server_throughput: load generator for the tuning server's network stack.
//
// Spawns K client sessions against a fresh in-process TuningServer; each
// session registers two parameters and completes M evaluations, then the
// whole exercise is timed. Two client configurations are compared against
// the same event-loop server (see bench/server_load.hpp for the harnesses):
//
//  * pipelined — all K connections multiplexed over a couple of
//                poll()-driven client threads that pipeline REPORT+FETCH
//                with a send window of W lines per connection (the steady
//                state the server is built for).
//  * blocking  — one blocking client thread per connection running the
//                classic FETCH -> REPORT exchange: two round trips and four
//                syscalls per evaluation, one evaluation at a time.
//
// A second, single-client experiment isolates the wire-protocol win: one
// TuningClient tuning synchronously via report_and_fetch() (one round trip
// per evaluation) versus report() + fetch() (two), both against the
// event-loop server.
//
// Results go to stdout and to BENCH_server_throughput.json
// (ah-bench-report/1): sessions/sec, evals/sec, p50/p95/p99 per-request
// latency for each configuration, plus the two headline ratios
// (`speedup` = pipelined over blocking evals/s, and `rf_speedup`). The CI
// bench-smoke job runs a small K x M and uploads the report; bench_gate
// tracks the pipelined/blocking ratio against a baseline on a gate-sized
// workload.
//
// --trace-sample F + --trace-out FILE turn on end-to-end request tracing for
// the pipelined run: F of the REPORT+FETCH lines carry a wire trace token,
// the server records per-stage spans, and the spans land in FILE as JSONL
// (merge into a Chrome trace with report_gen --merge). --slow-us N sets the
// server's slow-request SLO so over-threshold requests hit the event log.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/client.hpp"
#include "core/server.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"
#include "server_load.hpp"

namespace bench = harmony::bench;
namespace obs = harmony::obs;
using bench::LoadResult;

namespace {

struct Options {
  bench::LoadOptions load;
  int reps = 3;  // keep the best of this many runs per configuration
  std::string out_dir = obs::bench_out_dir();
  std::string trace_out;  // span JSONL path; empty = tracing off
};

/// Single synchronous TuningClient, one round trip per evaluation via
/// report_and_fetch() when `combined`, two (report + fetch) otherwise.
LoadResult run_single_client(bool combined, int evals, const Options& opt) {
  harmony::ServerOptions sopts;
  sopts.reactor_threads = opt.load.reactors;
  harmony::TuningServer server(sopts);
  LoadResult result;
  if (!server.start()) return result;

  harmony::TuningClient client;
  const bool ok = client.connect(server.port(), "bench-single") &&
                  client.add_real("x", 0, 10) && client.add_real("y", 0, 10) &&
                  client.start(evals + 8);
  const auto t0 = bench::LoadClock::now();
  if (ok && client.fetch().has_value()) {
    for (int i = 0; i < evals; ++i) {
      const double obj = bench::synthetic_objective(i);
      if (combined) {
        if (!client.report_and_fetch(obj)) break;
      } else {
        if (!client.report(obj) || !client.fetch()) break;
      }
      result.evals = static_cast<std::uint64_t>(i + 1);
    }
  }
  result.wall_s = bench::load_seconds_since(t0);
  result.sessions_completed = 1;
  client.bye();
  server.stop();
  return result;
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s [--clients K] [--evals M] [--window W] [--reactors N]\n"
      "          [--reps R] [--out DIR] [--trace-sample F]\n"
      "          [--trace-out FILE] [--slow-us N]\n\n"
      "Measures tuning-server throughput: K concurrent clients x M\n"
      "evaluations each, pipelined vs blocking clients, plus a\n"
      "single-client REPORT+FETCH vs FETCH/REPORT comparison. Writes\n"
      "BENCH_server_throughput.json into --out. --trace-sample F samples F\n"
      "of the pipelined requests into spans written to --trace-out FILE;\n"
      "--slow-us N logs requests over N microseconds.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--clients" && (v = next()) != nullptr) {
      opt.load.clients = std::max(1, std::atoi(v));
    } else if (arg == "--evals" && (v = next()) != nullptr) {
      opt.load.evals = std::max(1, std::atoi(v));
    } else if (arg == "--window" && (v = next()) != nullptr) {
      opt.load.window = std::max(1, std::atoi(v));
    } else if (arg == "--reactors" && (v = next()) != nullptr) {
      opt.load.reactors = std::max(1, std::atoi(v));
    } else if (arg == "--reps" && (v = next()) != nullptr) {
      opt.reps = std::max(1, std::atoi(v));
    } else if (arg == "--out" && (v = next()) != nullptr) {
      opt.out_dir = v;
    } else if (arg == "--trace-sample" && (v = next()) != nullptr) {
      opt.load.trace_sample = std::atof(v);
    } else if (arg == "--trace-out" && (v = next()) != nullptr) {
      opt.trace_out = v;
    } else if (arg == "--slow-us" && (v = next()) != nullptr) {
      opt.load.slow_request_us = std::atoll(v);
    } else {
      return usage(argv[0]);
    }
  }

  harmony::obs::SearchTracer tracer;
  if (!opt.trace_out.empty()) {
    opt.load.tracer = &tracer;
    if (opt.load.trace_sample <= 0.0) opt.load.trace_sample = 0.05;
  }

  std::printf("== server_throughput: %d clients x %d evals (window %d, "
              "%d reactors) ==\n",
              opt.load.clients, opt.load.evals, opt.load.window,
              opt.load.reactors);

  const auto pipelined = bench::best_of(opt.reps, [&] {
    return bench::run_load(/*pipelined=*/true, opt.load);
  });
  std::printf("pipelined: %llu evals in %.3f s -> %.0f evals/s, "
              "%.1f sessions/s, p50 %.3f ms, p99 %.3f ms (%d/%d completed)\n",
              static_cast<unsigned long long>(pipelined.evals),
              pipelined.wall_s, pipelined.evals_per_s(),
              pipelined.sessions_per_s(), pipelined.p50_ms, pipelined.p99_ms,
              pipelined.sessions_completed, opt.load.clients);

  const auto blocking = bench::best_of(opt.reps, [&] {
    return bench::run_load(/*pipelined=*/false, opt.load);
  });
  std::printf("blocking:  %llu evals in %.3f s -> %.0f evals/s, "
              "%.1f sessions/s, p50 %.3f ms, p99 %.3f ms (%d/%d completed)\n",
              static_cast<unsigned long long>(blocking.evals), blocking.wall_s,
              blocking.evals_per_s(), blocking.sessions_per_s(),
              blocking.p50_ms, blocking.p99_ms, blocking.sessions_completed,
              opt.load.clients);

  const double pipeline_speedup =
      blocking.evals_per_s() > 0.0
          ? pipelined.evals_per_s() / blocking.evals_per_s()
          : 0.0;
  std::printf("pipeline speedup (pipelined/blocking evals/s): %.2fx\n",
              pipeline_speedup);

  // The single-client runs are short, so the two sides of the ratio are
  // measured back to back within each rep and the best rep's ratio kept —
  // a scheduling hiccup then hits both sides or drops the whole rep.
  const int single_evals = std::max(opt.load.evals, 2000);
  LoadResult rf;
  LoadResult fr;
  double rf_speedup = 0.0;
  for (int rep = 0; rep < opt.reps; ++rep) {
    const auto rf_run = run_single_client(/*combined=*/true, single_evals, opt);
    const auto fr_run = run_single_client(/*combined=*/false, single_evals, opt);
    const double ratio = fr_run.evals_per_s() > 0.0
                             ? rf_run.evals_per_s() / fr_run.evals_per_s()
                             : 0.0;
    if (rep == 0 || ratio > rf_speedup) {
      rf = rf_run;
      fr = fr_run;
      rf_speedup = ratio;
    }
  }
  std::printf("single client, %d evals: REPORT+FETCH %.0f evals/s vs "
              "FETCH/REPORT %.0f evals/s -> %.2fx\n",
              single_evals, rf.evals_per_s(), fr.evals_per_s(), rf_speedup);

  obs::BenchReport report;
  report.name = "server_throughput";
  report.best_config = "";
  report.best_value = 0.0;
  report.evaluations = static_cast<int>(pipelined.evals + blocking.evals);
  report.evals_to_best = 0;
  report.wall_s = pipelined.wall_s + blocking.wall_s;
  report.speedup = pipeline_speedup;
  report.metrics["clients"] = opt.load.clients;
  report.metrics["evals_per_client"] = opt.load.evals;
  report.metrics["window"] = opt.load.window;
  report.metrics["reactors"] = opt.load.reactors;
  report.metrics["pipelined_evals_per_s"] = pipelined.evals_per_s();
  report.metrics["pipelined_sessions_per_s"] = pipelined.sessions_per_s();
  report.metrics["pipelined_p50_ms"] = pipelined.p50_ms;
  report.metrics["pipelined_p95_ms"] = pipelined.p95_ms;
  report.metrics["pipelined_p99_ms"] = pipelined.p99_ms;
  report.metrics["blocking_evals_per_s"] = blocking.evals_per_s();
  report.metrics["blocking_sessions_per_s"] = blocking.sessions_per_s();
  report.metrics["blocking_p50_ms"] = blocking.p50_ms;
  report.metrics["blocking_p95_ms"] = blocking.p95_ms;
  report.metrics["blocking_p99_ms"] = blocking.p99_ms;
  report.metrics["rf_evals_per_s"] = rf.evals_per_s();
  report.metrics["fetch_report_evals_per_s"] = fr.evals_per_s();
  report.metrics["rf_speedup"] = rf_speedup;
  if (const auto path = report.write_file(opt.out_dir)) {
    std::printf("wrote %s\n", path->c_str());
  } else {
    std::fprintf(stderr, "error: could not write report into '%s'\n",
                 opt.out_dir.c_str());
    return 2;
  }
  if (!opt.trace_out.empty()) {
    std::ofstream tf(opt.trace_out);
    if (tf) {
      tracer.write_jsonl(tf);
      std::printf("wrote %zu span(s) to %s\n", tracer.size(),
                  opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", opt.trace_out.c_str());
      return 2;
    }
  }
  return 0;
}
