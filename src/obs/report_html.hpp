#pragma once

/// \file report_html.hpp
/// Self-contained HTML session reports rendered from the evaluation spans of
/// a SearchTracer JSONL trace (see load_trace_jsonl) and BenchReport JSON —
/// the browsable counterpart of the paper's convergence figures (Figs. 2-6
/// are all trajectory plots). The emitted
/// document embeds everything inline (CSS + SVG, no scripts, no external
/// fetches), so a CI artifact opens directly in a browser:
///
///  * an SVG convergence curve — best objective so far vs evaluation index,
///    with the raw per-evaluation objectives as faint markers;
///  * an SVG evaluation timeline — one row per thread lane, one bar per
///    evaluation colored by strategy (cache hits hollow), laid out on the
///    trace's wall clock — the at-a-glance view of pool utilization;
///  * a per-strategy summary table: evaluations, cache hits/rate, best
///    value;
///  * the BenchReport headline numbers, when a report is supplied.
///
/// The library half lives here so tests can exercise the renderer directly;
/// `tools/report_gen` is the thin CLI that CI runs over bench artifacts.

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/trace.hpp"

namespace harmony::obs {

struct HtmlReportOptions {
  std::string title = "Active Harmony session report";
  int width = 900;        ///< pixel width of the SVG charts
  int curve_height = 320; ///< convergence chart height
  int lane_height = 26;   ///< per-lane row height in the timeline
};

/// Render the full report document from the evaluation spans
/// (SpanEvent::is_eval) among `spans`; other spans are ignored. `bench` may
/// be null (trace-only report).
void write_html_report(std::ostream& os, const std::vector<SpanEvent>& spans,
                       const BenchReport* bench,
                       const HtmlReportOptions& opts = {});

/// Just the convergence-curve SVG element (exposed for tests/embedding).
void write_convergence_svg(std::ostream& os, const std::vector<SpanEvent>& spans,
                           const HtmlReportOptions& opts = {});

/// Just the per-lane evaluation-timeline SVG element.
void write_timeline_svg(std::ostream& os, const std::vector<SpanEvent>& spans,
                        const HtmlReportOptions& opts = {});

}  // namespace harmony::obs
