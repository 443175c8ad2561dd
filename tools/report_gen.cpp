// report_gen: render a SearchTracer JSONL trace (plus an optional BenchReport
// JSON) into a self-contained HTML session report — inline CSS and SVG, no
// scripts — with the convergence curve, the per-lane evaluation timeline and
// per-strategy cache statistics, drawn from the trace's evaluation spans
// (search.eval / search.cache). CI runs it over the bench-smoke artifacts so
// every run uploads a browsable convergence report.
//
//   report_gen --trace TRACE_x.jsonl [--bench BENCH_x.json]
//              [--out report.html] [--title "..."]
//
// A second mode merges the span logs of several processes (a server's
// --trace-out plus each harmony_worker's, or any SearchTracer JSONL) into one
// Chrome trace-viewer JSON, one pid per input file, timestamps aligned on
// each file's wall-clock anchor — load the result at chrome://tracing or
// https://ui.perfetto.dev and follow one request across processes by the
// trace id in each slice's args:
//
//   report_gen --merge spans_server.jsonl spans_worker*.jsonl [--out t.json]
//
// Both modes read files with the one loader, obs::load_trace_jsonl. With no
// --out, the document goes to stdout. Exit status: 0 on success, 1 on
// unusable input (unreadable trace, or zero parseable evaluations/spans).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/report_html.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --trace <trace.jsonl> [--bench <bench.json>] "
               "[--out <report.html>] [--title <title>]\n"
               "       %s --merge <spans.jsonl>... [--out <trace.json>]\n",
               argv0, argv0);
  return 1;
}

/// Strip directories from a path for the per-process label in the merge.
std::string base_name(const std::string& path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

/// Load one SearchTracer JSONL file; nullopt (after a message) when it
/// cannot be read.
std::optional<std::vector<harmony::obs::SpanEvent>> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read trace: %s\n", path.c_str());
    return std::nullopt;
  }
  std::size_t skipped = 0;
  auto spans = harmony::obs::load_trace_jsonl(in, &skipped);
  if (skipped > 0) {
    std::fprintf(stderr, "warning: skipped %zu unparseable line(s) in %s\n",
                 skipped, path.c_str());
  }
  return spans;
}

int run_merge(const std::vector<std::string>& span_paths,
              const std::string& out_path) {
  std::vector<std::pair<std::string, std::vector<harmony::obs::SpanEvent>>>
      inputs;
  std::size_t total = 0;
  for (const auto& path : span_paths) {
    auto spans = load(path);
    if (!spans) return 1;
    total += spans->size();
    inputs.emplace_back(base_name(path), std::move(*spans));
  }
  if (total == 0) {
    std::fprintf(stderr, "no spans in any input\n");
    return 1;
  }
  if (out_path.empty()) {
    harmony::obs::write_chrome_trace(std::cout, inputs);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  harmony::obs::write_chrome_trace(out, inputs);
  std::fprintf(stderr, "wrote %s (%zu spans from %zu file(s))\n",
               out_path.c_str(), total, inputs.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string bench_path;
  std::string out_path;
  bool merge = false;
  std::vector<std::string> span_paths;
  harmony::obs::HtmlReportOptions opts;

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--trace") == 0) {
      const char* v = need_value("--trace");
      if (v == nullptr) return usage(argv[0]);
      trace_path = v;
    } else if (std::strcmp(argv[i], "--bench") == 0) {
      const char* v = need_value("--bench");
      if (v == nullptr) return usage(argv[0]);
      bench_path = v;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = need_value("--out");
      if (v == nullptr) return usage(argv[0]);
      out_path = v;
    } else if (std::strcmp(argv[i], "--title") == 0) {
      const char* v = need_value("--title");
      if (v == nullptr) return usage(argv[0]);
      opts.title = v;
    } else if (std::strcmp(argv[i], "--merge") == 0) {
      merge = true;
    } else if (merge && argv[i][0] != '-') {
      span_paths.emplace_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (merge) {
    if (span_paths.empty()) return usage(argv[0]);
    return run_merge(span_paths, out_path);
  }
  if (trace_path.empty()) return usage(argv[0]);

  const auto spans = load(trace_path);
  if (!spans) return 1;
  std::size_t evaluations = 0;
  for (const auto& s : *spans) evaluations += s.is_eval() ? 1 : 0;
  if (evaluations == 0) {
    std::fprintf(stderr, "no evaluation spans in %s\n", trace_path.c_str());
    return 1;
  }

  std::optional<harmony::obs::BenchReport> bench;
  if (!bench_path.empty()) {
    bench = harmony::obs::BenchReport::load(bench_path);
    if (!bench) {
      std::fprintf(stderr, "warning: could not load bench report %s\n",
                   bench_path.c_str());
    } else if (opts.title == harmony::obs::HtmlReportOptions{}.title) {
      opts.title = "Session report: " + bench->name;
    }
  }

  if (out_path.empty()) {
    harmony::obs::write_html_report(std::cout, *spans,
                                    bench ? &*bench : nullptr, opts);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  harmony::obs::write_html_report(out, *spans, bench ? &*bench : nullptr, opts);
  std::fprintf(stderr, "wrote %s (%zu evaluations)\n", out_path.c_str(),
               evaluations);
  return 0;
}
