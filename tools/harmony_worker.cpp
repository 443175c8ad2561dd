// harmony_worker: a remote evaluation worker for the fleet protocol.
//
// Connects to a tuning server (with retry, so workers may be launched before
// the server binds), ATTACHes with a substrate name and a pipeline capacity,
// then serves pushed WORK lines: decode the candidate against the substrate's
// parameter space, run its short-run model, answer RESULT. One process = one
// worker; launch several to scale the fleet (see README "Distributed
// evaluation fleet").
//
//   harmony_worker --port P [--substrate synthetic|pop|gs2|petsc]
//                  [--name N] [--capacity C] [--steps S] [--spin-us U]
//                  [--max-evals M] [--heartbeat-ms H] [--trace-out FILE]
//
// --trace-out records a "worker.eval" span for every WORK line that carried
// a wire trace token and writes them as span JSONL on exit; feed the file to
// report_gen --merge together with the server's span log to see one request
// end to end.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "fleet/substrates.hpp"
#include "fleet/worker_client.hpp"
#include "obs/trace.hpp"

namespace fleet = harmony::fleet;

namespace {

int usage(const char* argv0) {
  std::string names;
  for (const auto& n : fleet::substrate_names()) {
    if (!names.empty()) names += "|";
    names += n;
  }
  std::printf(
      "usage: %s --port P [--substrate %s]\n"
      "          [--name N] [--capacity C] [--steps S] [--spin-us U]\n"
      "          [--max-evals M] [--heartbeat-ms H] [--trace-out FILE]\n\n"
      "Evaluation worker for a harmony tuning server: ATTACHes with the\n"
      "chosen substrate and serves WORK pushes until the server hangs up\n"
      "(or M evaluations are done). --spin-us adds a busy-wait per\n"
      "evaluation to model real run cost; --name defaults to the substrate\n"
      "(the server only dispatches to workers whose name matches its\n"
      "dispatcher's substrate filter, when one is set). --heartbeat-ms sets\n"
      "the idle PING cadence (default 500, 0 disables heartbeats).\n"
      "--trace-out FILE writes span JSONL for trace-token WORK lines on\n"
      "exit (merge with the server's spans via report_gen --merge).\n",
      argv0, names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  std::string substrate = "synthetic";
  std::string name;
  int capacity = 2;
  int steps = 0;  // 0 = substrate default
  int spin_us = 0;
  long long max_evals = 0;
  int heartbeat_ms = -1;  // -1 = keep the WorkerClientOptions default
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--port" && (v = next()) != nullptr) {
      port = std::atoi(v);
    } else if (arg == "--substrate" && (v = next()) != nullptr) {
      substrate = v;
    } else if (arg == "--name" && (v = next()) != nullptr) {
      name = v;
    } else if (arg == "--capacity" && (v = next()) != nullptr) {
      capacity = std::atoi(v);
    } else if (arg == "--steps" && (v = next()) != nullptr) {
      steps = std::atoi(v);
    } else if (arg == "--spin-us" && (v = next()) != nullptr) {
      spin_us = std::atoi(v);
    } else if (arg == "--max-evals" && (v = next()) != nullptr) {
      max_evals = std::atoll(v);
    } else if (arg == "--heartbeat-ms" && (v = next()) != nullptr) {
      heartbeat_ms = std::atoi(v);
      if (heartbeat_ms < 0) return usage(argv[0]);
    } else if (arg == "--trace-out" && (v = next()) != nullptr) {
      trace_out = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (port <= 0) return usage(argv[0]);

  const auto sub = fleet::make_substrate(substrate, spin_us);
  if (!sub) {
    std::fprintf(stderr, "error: unknown substrate '%s'\n", substrate.c_str());
    return usage(argv[0]);
  }

  fleet::WorkerClientOptions opts;
  opts.name = name.empty() ? sub->name : name;
  opts.capacity = capacity > 0 ? capacity : 1;
  if (max_evals > 0) opts.max_evals = static_cast<std::uint64_t>(max_evals);
  if (heartbeat_ms >= 0) opts.heartbeat = std::chrono::milliseconds(heartbeat_ms);

  harmony::obs::SearchTracer tracer;
  if (!trace_out.empty()) opts.tracer = &tracer;

  fleet::WorkerClient worker(opts);
  const int run_steps = steps > 0 ? steps : sub->steps;
  std::printf("harmony_worker: substrate=%s capacity=%d -> port %d\n",
              sub->name.c_str(), opts.capacity, port);
  const bool ok = worker.run(port, sub->space, sub->run, run_steps);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (out) {
      tracer.write_jsonl(out);
      std::printf("harmony_worker: wrote %zu span(s) to %s\n",
                  tracer.size(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    }
  }
  std::printf("harmony_worker: done, %llu evals (%s)\n",
              static_cast<unsigned long long>(worker.evals()),
              ok ? "served" : worker.last_error().c_str());
  return ok ? 0 : 1;
}
