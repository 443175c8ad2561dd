// server_fleet: scaling curve for the distributed evaluation fleet.
//
// For each worker count in 1..--workers, stands up a fresh tuning server
// with a fleet Dispatcher, attaches that many evaluation workers, and drives
// a fixed random-search workload over the synthetic substrate through
// WorkerEvalBackend (cache disabled, so every proposal crosses the wire).
// Each evaluation sleeps --spin-us microseconds on the worker — the wall-clock
// wait on an "application short run" — so the curve measures how well the
// dispatcher overlaps remote runs, not just protocol overhead.
//
// Workers come in two flavours:
//  * default       — in-process WorkerClient threads (same wire protocol over
//                    loopback; what the test suite and bench_gate use);
//  * --worker-bin  — fork/exec one harmony_worker process per worker (what a
//                    real deployment runs; the CI bench-smoke job uses this).
//
// Results go to stdout and BENCH_server_fleet.json (ah-bench-report/1):
// evals/s per worker count, per-evaluation dispatch latency quantiles
// (p50/p95/p99 of WORK-dispatch to RESULT, from the dispatcher's HDR
// histogram) at the maximum worker count, plus the headline
// `evals_per_s_ratio` (max-workers over 1-worker throughput) that bench_gate
// tracks against a checked-in baseline.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/server.hpp"
#include "engine/batch_strategy.hpp"
#include "fleet/dispatcher.hpp"
#include "fleet/substrates.hpp"
#include "fleet/worker_backend.hpp"
#include "fleet/worker_client.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"

namespace fleet = harmony::fleet;
namespace obs = harmony::obs;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  int workers = 4;       // curve runs 1..workers
  int capacity = 2;      // WORK lines pipelined per worker
  int evals = 256;       // distinct evaluations per point on the curve
  int spin_us = 2000;    // per-evaluation simulated short-run cost
  int reps = 3;          // keep the best evals/s of this many runs
  bool serve = false;    // one search against externally attached workers
  int port = 0;          // fixed listen port for --serve (0 = ephemeral)
  std::string worker_bin;  // fork/exec this binary instead of threads
  std::string out_dir = obs::bench_out_dir();
  // Request tracing (off unless --trace-out is given): dispatcher
  // head-sample rate, dispatcher span JSONL path, per-worker span file
  // prefix for subprocess workers, and the tracer every in-process span
  // lands in (set by main, points at a stack-local SearchTracer).
  double trace_sample = 0.0;
  std::string trace_out;
  std::string worker_trace_out;
  obs::SearchTracer* tracer = nullptr;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct PointResult {
  double evals_per_s = 0.0;
  double p50_ms = 0.0;  ///< dispatch-to-RESULT latency quantiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// One curve point: server + dispatcher + `nworkers` workers, one search.
/// evals_per_s is 0 on failure. `rep` only disambiguates the per-worker
/// span files — every (point, rep, worker) triple gets its own shard.
PointResult run_point(const Options& opt, const fleet::Substrate& sub,
                      int nworkers, int rep) {
  fleet::DispatcherOptions dopts;
  dopts.substrate = sub.name;
  dopts.tracer = opt.tracer;
  dopts.trace_sample = opt.tracer != nullptr ? opt.trace_sample : 0.0;
  fleet::Dispatcher dispatcher(sub.space, dopts);

  harmony::ServerOptions sopts;
  sopts.fleet = &dispatcher;
  harmony::TuningServer server(sopts);
  PointResult point;
  if (!server.start()) {
    std::fprintf(stderr, "error: server failed to start\n");
    return point;
  }

  // Launch the workers: harmony_worker subprocesses when --worker-bin was
  // given, otherwise in-process WorkerClient threads on the same protocol.
  std::vector<pid_t> pids;
  std::vector<std::unique_ptr<fleet::WorkerClient>> clients;
  std::vector<std::thread> threads;
  if (!opt.worker_bin.empty()) {
    for (int w = 0; w < nworkers; ++w) {
      // argv built before fork: the server's reactor threads are already
      // running, so the child must not allocate between fork and exec.
      std::vector<std::string> args;
      args.push_back(opt.worker_bin);
      args.push_back("--port");
      args.push_back(std::to_string(server.port()));
      args.push_back("--substrate");
      args.push_back(sub.name);
      args.push_back("--capacity");
      args.push_back(std::to_string(opt.capacity));
      args.push_back("--spin-us");
      args.push_back(std::to_string(opt.spin_us));
      if (!opt.worker_trace_out.empty()) {
        args.push_back("--trace-out");
        args.push_back(opt.worker_trace_out + ".n" + std::to_string(nworkers) +
                       "r" + std::to_string(rep) + ".w" + std::to_string(w) +
                       ".jsonl");
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::execv(opt.worker_bin.c_str(), argv.data());
        std::_Exit(127);  // exec failed
      }
      if (pid > 0) pids.push_back(pid);
    }
  } else {
    for (int w = 0; w < nworkers; ++w) {
      fleet::WorkerClientOptions wopts;
      wopts.name = sub.name;
      wopts.capacity = opt.capacity;
      wopts.tracer = opt.tracer;  // in-process: spans share the one tracer
      clients.push_back(std::make_unique<fleet::WorkerClient>(wopts));
    }
    const int port = server.port();
    for (auto& c : clients) {
      fleet::WorkerClient* wc = c.get();
      threads.emplace_back([wc, &sub, port] {
        (void)wc->run(port, sub.space, sub.run, sub.steps);
      });
    }
  }

  if (dispatcher.wait_for_workers(static_cast<std::size_t>(nworkers),
                                  std::chrono::milliseconds(5000))) {
    fleet::WorkerBackendOptions bopts;
    bopts.use_cache = false;
    fleet::WorkerEvalBackend backend(dispatcher, sub.space, bopts);

    harmony::ControllerLimits limits;
    limits.max_evaluations = opt.evals;
    limits.max_proposals = opt.evals * 8;
    harmony::SearchController controller(sub.space, limits);
    harmony::engine::BatchRandomSearch strategy(sub.space, opt.evals * 8,
                                                /*seed=*/7);
    const auto t0 = Clock::now();
    const auto result = controller.run(strategy, backend);
    const double wall = seconds_since(t0);
    if (wall > 0.0) {
      point.evals_per_s = static_cast<double>(result.evaluations) / wall;
    }
    const auto& lat = dispatcher.eval_latency();
    point.p50_ms = lat.quantile(0.50) * 1e3;
    point.p95_ms = lat.quantile(0.95) * 1e3;
    point.p99_ms = lat.quantile(0.99) * 1e3;
  } else {
    std::fprintf(stderr, "error: only %zu/%d workers attached\n",
                 dispatcher.worker_count(), nworkers);
  }

  dispatcher.shutdown();
  server.stop();  // drops worker connections; they exit their serve loops
  for (auto& t : threads) t.join();
  for (const pid_t pid : pids) {
    int status = 0;
    (void)::waitpid(pid, &status, 0);
  }
  return point;
}

/// --serve: a single search on a fixed port, workers attached externally
/// (e.g. `harmony_worker --port P` from other terminals or hosts).
int serve_mode(const Options& opt, const fleet::Substrate& sub) {
  fleet::DispatcherOptions dopts;
  dopts.substrate = sub.name;
  fleet::Dispatcher dispatcher(sub.space, dopts);

  harmony::ServerOptions sopts;
  sopts.port = opt.port;
  sopts.fleet = &dispatcher;
  harmony::TuningServer server(sopts);
  if (!server.start()) {
    std::fprintf(stderr, "error: server failed to start on port %d\n", opt.port);
    return 1;
  }
  std::printf(
      "fleet server listening on 127.0.0.1:%d; waiting for %d worker%s\n"
      "  attach with: harmony_worker --port %d\n",
      server.port(), opt.workers, opt.workers == 1 ? "" : "s", server.port());

  int rc = 1;
  if (dispatcher.wait_for_workers(static_cast<std::size_t>(opt.workers),
                                  std::chrono::seconds(120))) {
    fleet::WorkerBackendOptions bopts;
    bopts.use_cache = false;
    fleet::WorkerEvalBackend backend(dispatcher, sub.space, bopts);

    harmony::ControllerLimits limits;
    limits.max_evaluations = opt.evals;
    limits.max_proposals = opt.evals * 8;
    harmony::SearchController controller(sub.space, limits);
    harmony::engine::BatchRandomSearch strategy(sub.space, opt.evals * 8,
                                                /*seed=*/7);
    const auto t0 = Clock::now();
    const auto result = controller.run(strategy, backend);
    const double wall = seconds_since(t0);
    std::printf("%d evals across %zu worker(s) in %.2f s (%.0f evals/s)\n",
                result.evaluations, dispatcher.worker_count(), wall,
                wall > 0.0 ? static_cast<double>(result.evaluations) / wall
                           : 0.0);
    if (result.best.has_value()) {
      std::printf("best %s = %.6g\n", sub.space.format(*result.best).c_str(),
                  result.best_objective);
    }
    rc = 0;
  } else {
    std::fprintf(stderr, "error: only %zu/%d workers attached within 120 s\n",
                 dispatcher.worker_count(), opt.workers);
  }
  dispatcher.shutdown();
  server.stop();  // drops worker connections; they exit their serve loops
  return rc;
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s [--workers N] [--capacity C] [--evals M] [--spin-us U]\n"
      "          [--reps R] [--worker-bin PATH] [--out DIR]\n"
      "          [--trace-sample F] [--trace-out FILE]\n"
      "          [--worker-trace-out PREFIX] [--serve [--port P]]\n\n"
      "Measures fleet throughput: a random search of M distinct evaluations\n"
      "over the synthetic substrate, repeated for every worker count in\n"
      "1..N. Writes BENCH_server_fleet.json into --out. With --worker-bin,\n"
      "workers are harmony_worker subprocesses; otherwise in-process\n"
      "threads. With --serve, runs one search on a fixed port and waits for\n"
      "N workers to attach externally (no report is written).\n\n"
      "--trace-out FILE enables dispatcher request tracing (head-sampled at\n"
      "--trace-sample, default 0.05) and writes span JSONL to FILE.\n"
      "--worker-trace-out PREFIX makes each harmony_worker subprocess write\n"
      "its own spans to PREFIX.n<point>r<rep>.w<worker>.jsonl; merge the\n"
      "shards with\n"
      "  report_gen --merge FILE PREFIX.*.jsonl --out trace.json\n",
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
    if (arg == "--workers" && (v = next()) != nullptr) {
      opt.workers = std::max(1, std::atoi(v));
    } else if (arg == "--capacity" && (v = next()) != nullptr) {
      opt.capacity = std::max(1, std::atoi(v));
    } else if (arg == "--evals" && (v = next()) != nullptr) {
      opt.evals = std::max(1, std::atoi(v));
    } else if (arg == "--spin-us" && (v = next()) != nullptr) {
      opt.spin_us = std::max(0, std::atoi(v));
    } else if (arg == "--reps" && (v = next()) != nullptr) {
      opt.reps = std::max(1, std::atoi(v));
    } else if (arg == "--worker-bin" && (v = next()) != nullptr) {
      opt.worker_bin = v;
    } else if (arg == "--out" && (v = next()) != nullptr) {
      opt.out_dir = v;
    } else if (arg == "--trace-sample" && (v = next()) != nullptr) {
      opt.trace_sample = std::atof(v);
    } else if (arg == "--trace-out" && (v = next()) != nullptr) {
      opt.trace_out = v;
    } else if (arg == "--worker-trace-out" && (v = next()) != nullptr) {
      opt.worker_trace_out = v;
    } else if (arg == "--serve") {
      opt.serve = true;
    } else if (arg == "--port" && (v = next()) != nullptr) {
      opt.port = std::atoi(v);
    } else {
      return usage(argv[0]);
    }
  }

  obs::SearchTracer tracer;
  if (!opt.trace_out.empty()) {
    opt.tracer = &tracer;
    if (opt.trace_sample <= 0.0) opt.trace_sample = 0.05;
  }

  const auto sub = fleet::make_substrate("synthetic", opt.spin_us);
  if (!sub) return 2;
  if (opt.serve) return serve_mode(opt, *sub);

  std::printf("== server_fleet: %d evals x 1..%d workers (capacity %d, "
              "spin %d us, %s workers) ==\n",
              opt.evals, opt.workers, opt.capacity, opt.spin_us,
              opt.worker_bin.empty() ? "in-process" : "subprocess");

  obs::BenchReport report;
  report.name = "server_fleet";
  std::vector<double> curve;
  PointResult top;  // best rep at the maximum worker count
  const auto curve_t0 = Clock::now();
  for (int n = 1; n <= opt.workers; ++n) {
    PointResult best;
    for (int rep = 0; rep < opt.reps; ++rep) {
      const auto point = run_point(opt, *sub, n, rep);
      if (point.evals_per_s > best.evals_per_s) best = point;
    }
    curve.push_back(best.evals_per_s);
    std::printf("%d worker%s: %.0f evals/s (eval p50 %.2f ms, p99 %.2f ms)\n",
                n, n == 1 ? " " : "s", best.evals_per_s, best.p50_ms,
                best.p99_ms);
    report.metrics["evals_per_s_" + std::to_string(n)] = best.evals_per_s;
    if (n == opt.workers) top = best;
  }

  const double ratio = curve.front() > 0.0 ? curve.back() / curve.front() : 0.0;
  std::printf("scaling (%d workers / 1 worker): %.2fx\n", opt.workers, ratio);

  report.evaluations = opt.evals * opt.workers * opt.reps;
  report.wall_s = seconds_since(curve_t0);
  report.speedup = ratio;
  report.metrics["evals_per_s_ratio"] = ratio;
  report.metrics["workers"] = opt.workers;
  report.metrics["capacity"] = opt.capacity;
  report.metrics["evals"] = opt.evals;
  report.metrics["spin_us"] = opt.spin_us;
  report.metrics["eval_p50_ms"] = top.p50_ms;
  report.metrics["eval_p95_ms"] = top.p95_ms;
  report.metrics["eval_p99_ms"] = top.p99_ms;
  report.metrics["subprocess"] = opt.worker_bin.empty() ? 0.0 : 1.0;
  if (const auto path = report.write_file(opt.out_dir)) {
    std::printf("wrote %s\n", path->c_str());
  } else {
    std::fprintf(stderr, "error: could not write report into '%s'\n",
                 opt.out_dir.c_str());
    return 2;
  }

  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    if (!out) {
      std::fprintf(stderr, "error: could not write spans into '%s'\n",
                   opt.trace_out.c_str());
      return 2;
    }
    tracer.write_jsonl(out);
    std::printf("wrote %s (%zu span(s))\n", opt.trace_out.c_str(),
                tracer.size());
  }
  return 0;
}
