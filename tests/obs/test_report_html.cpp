/// \file test_report_html.cpp
/// HTML session-report renderer: trace JSONL loading (including skip-on-bad
/// -line resilience), the Chrome-trace merge, the convergence/timeline SVG
/// generators, and the
/// acceptance-criterion end-to-end path — a real fig4-style coordinate-
/// descent search over the POP model, traced, serialized to JSONL, loaded
/// back, and rendered to a report containing an SVG convergence curve.

#include "obs/report_html.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/harmony.hpp"
#include "minipop/minipop.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "simcluster/simcluster.hpp"

namespace obs = harmony::obs;

namespace {

obs::SpanEvent ev(std::string strategy, std::string point, double objective,
                  double t0, double t1, std::uint32_t lane = 0,
                  bool cache_hit = false, bool valid = true) {
  obs::SpanEvent e = obs::eval_span(/*trace_id=*/1, std::move(strategy),
                                    std::move(point), objective, valid,
                                    cache_hit, t0, t1);
  e.thread_lane = lane;
  return e;
}

TEST(ReportHtml, LoadTraceJsonlRoundTripsTracerOutput) {
  obs::SearchTracer tracer;
  tracer.record(ev("nelder-mead", "block_x=180 block_y=100", 1.5, 10.0, 20.0));
  tracer.record(ev("nelder-mead", "block_x=240 block_y=80",
                   std::numeric_limits<double>::infinity(), 20.0, 21.0, 0,
                   /*cache_hit=*/true, /*valid=*/false));
  std::ostringstream os;
  tracer.write_jsonl(os);

  std::istringstream in(os.str());
  std::size_t skipped = 99;
  const auto events = obs::load_trace_jsonl(in, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].strategy, "nelder-mead");
  EXPECT_EQ(events[0].detail, "block_x=180 block_y=100");
  EXPECT_DOUBLE_EQ(events[0].objective, 1.5);
  EXPECT_TRUE(events[0].valid);
  EXPECT_FALSE(events[0].cache_hit());
  // Non-finite objectives serialize as null and load back as infinity.
  EXPECT_FALSE(events[1].valid);
  EXPECT_TRUE(events[1].cache_hit());
  EXPECT_TRUE(std::isinf(events[1].objective));
  EXPECT_DOUBLE_EQ(events[1].t_end_us, 21.0 + tracer.wall_anchor_us());
}

TEST(ReportHtml, LoadSpanJsonlAppliesWallClockAnchor) {
  obs::SearchTracer tracer;
  obs::SpanEvent sp;
  sp.trace_id = 0xabcULL;
  sp.span_id = 0x1ULL;
  sp.parent_span = 0x2ULL;
  sp.name = "server.handle";
  sp.detail = "REPORT+FETCH";
  sp.t_start_us = 100.0;
  sp.t_end_us = 250.0;
  tracer.record(sp);
  tracer.record(ev("s", "p", 1.0, 0.0, 1.0));  // an evaluation, same file
  std::ostringstream os;
  tracer.write_jsonl(os);

  std::istringstream in(os.str());
  std::size_t skipped = 99;
  const auto spans = obs::load_trace_jsonl(in, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].is_eval());  // starts first
  EXPECT_DOUBLE_EQ(spans[0].t_start_us, tracer.wall_anchor_us());
  EXPECT_EQ(spans[1].trace_id, 0xabcULL);
  EXPECT_EQ(spans[1].span_id, 0x1ULL);
  EXPECT_EQ(spans[1].parent_span, 0x2ULL);
  EXPECT_EQ(spans[1].name, "server.handle");
  EXPECT_EQ(spans[1].detail, "REPORT+FETCH");
  // Loaded timestamps are tracer-relative plus the wall anchor, so spans
  // from different processes land on one shared clock.
  EXPECT_DOUBLE_EQ(spans[1].t_start_us, 100.0 + tracer.wall_anchor_us());
  EXPECT_DOUBLE_EQ(spans[1].t_end_us - spans[1].t_start_us, 150.0);
}

TEST(ReportHtml, MergedChromeTraceAlignsProcessesOnSharedClock) {
  // Two "processes": a server whose span starts at wall +1000 us and a
  // worker whose nested span starts at wall +1400 us. After the merge both
  // must appear on one rebased axis with distinct pids.
  obs::SpanEvent server_span;
  server_span.trace_id = 0xaaULL;
  server_span.span_id = 0x1ULL;
  server_span.name = "fleet.item";
  server_span.detail = "work 7";
  server_span.t_start_us = 1000.0;
  server_span.t_end_us = 2000.0;
  obs::SpanEvent worker_span;
  worker_span.trace_id = 0xaaULL;
  worker_span.span_id = 0x2ULL;
  worker_span.parent_span = 0x1ULL;
  worker_span.name = "worker.eval";
  worker_span.thread_lane = 3;
  worker_span.t_start_us = 1400.0;
  worker_span.t_end_us = 1900.0;

  std::ostringstream os;
  obs::write_chrome_trace(os,
                          {{"server", {server_span}}, {"worker", {worker_span}}});
  const auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const auto* events = doc->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());

  bool saw_server = false;
  bool saw_worker = false;
  for (const auto& e : events->as_array()) {
    if (e.string_or("ph", "") != "X") continue;  // skip process metadata
    const auto* args = e.find("args");
    ASSERT_TRUE(args != nullptr);
    EXPECT_EQ(args->string_or("trace", ""), "00000000000000aa");
    if (e.string_or("name", "") == "fleet.item") {
      saw_server = true;
      EXPECT_DOUBLE_EQ(e.number_or("ts", -1), 0.0);  // rebased to earliest
      EXPECT_DOUBLE_EQ(e.number_or("dur", 0), 1000.0);
    } else if (e.string_or("name", "") == "worker.eval") {
      saw_worker = true;
      EXPECT_DOUBLE_EQ(e.number_or("ts", -1), 400.0);  // shared axis
      EXPECT_DOUBLE_EQ(e.number_or("tid", -1), 3.0);
      EXPECT_NE(e.number_or("pid", -1), -1.0);
      EXPECT_EQ(args->string_or("parent", ""), "0000000000000001");
    }
  }
  EXPECT_TRUE(saw_server);
  EXPECT_TRUE(saw_worker);
}

TEST(ReportHtml, LoadTraceJsonlSkipsMalformedLines) {
  std::istringstream in(
      "{\"name\":\"search.eval\",\"detail\":\"p\",\"strategy\":\"s\","
      "\"objective\":2.0,\"valid\":true,\"thread\":1,\"t_start_us\":0,"
      "\"t_end_us\":1}\n"
      "this is not json\n"
      "\n"
      "[1,2,3]\n"
      "{\"name\":\"search.eval\",\"detail\":\"q\",\"strategy\":\"s\","
      "\"objective\":1.0,\"valid\":true,\"thread\":0,\"t_start_us\":2,"
      "\"t_end_us\":3}\n");
  std::size_t skipped = 0;
  const auto events = obs::load_trace_jsonl(in, &skipped);
  EXPECT_EQ(skipped, 2u);  // bad JSON + non-object; empty lines don't count
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].thread_lane, 1u);
  EXPECT_EQ(events[1].detail, "q");
}

TEST(ReportHtml, ConvergenceSvgTracksBestSoFar) {
  const std::vector<obs::SpanEvent> events = {
      ev("cd", "a", 5.0, 0, 1), ev("cd", "b", 3.0, 1, 2),
      ev("cd", "c", 4.0, 2, 3), ev("cd", "d", 2.0, 3, 4)};
  std::ostringstream os;
  obs::write_convergence_svg(os, events);
  const std::string svg = os.str();
  EXPECT_NE(svg.find("<svg class=\"convergence\""), std::string::npos);
  EXPECT_NE(svg.find("<polyline class=\"best\""), std::string::npos);
  // y-axis labels span the observed objective range.
  EXPECT_NE(svg.find(">5<"), std::string::npos) << svg;
  EXPECT_NE(svg.find(">2<"), std::string::npos) << svg;
  EXPECT_NE(svg.find("evaluation 4"), std::string::npos);
  // One faint marker per valid evaluation.
  std::size_t circles = 0;
  for (auto pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, events.size());
}

TEST(ReportHtml, ConvergenceSvgWithNoValidEventsRendersPlaceholder) {
  const std::vector<obs::SpanEvent> events = {
      ev("cd", "a", std::numeric_limits<double>::infinity(), 0, 1, 0, false,
         /*valid=*/false)};
  std::ostringstream os;
  obs::write_convergence_svg(os, events);
  EXPECT_NE(os.str().find("no trace events"), std::string::npos);
}

TEST(ReportHtml, TimelineSvgHasOneRowPerLaneAndHollowCacheHits) {
  const std::vector<obs::SpanEvent> events = {
      ev("cd", "a", 5.0, 0, 100, 0), ev("cd", "b", 3.0, 0, 100, 1),
      ev("annealing", "c", 4.0, 100, 150, 2, /*cache_hit=*/true)};
  std::ostringstream os;
  obs::write_timeline_svg(os, events);
  const std::string svg = os.str();
  EXPECT_NE(svg.find("<svg class=\"timeline\""), std::string::npos);
  EXPECT_NE(svg.find("lane 0"), std::string::npos);
  EXPECT_NE(svg.find("lane 1"), std::string::npos);
  EXPECT_NE(svg.find("lane 2"), std::string::npos);
  EXPECT_NE(svg.find("<rect class=\"eval\""), std::string::npos);
  EXPECT_NE(svg.find("<rect class=\"hit\""), std::string::npos);
  // Legend lists both strategies.
  EXPECT_NE(svg.find(">cd</text>"), std::string::npos);
  EXPECT_NE(svg.find(">annealing</text>"), std::string::npos);
}

TEST(ReportHtml, ReportEmbedsBenchHeadlineAndEscapesTitle) {
  obs::BenchReport bench;
  bench.name = "fig4_pop_blocksize";
  bench.best_config = "block_x=<180>";
  bench.best_value = 1.25;
  bench.evaluations = 42;
  bench.speedup = 1.08;
  bench.metrics["total_default_s"] = 9.0;

  obs::HtmlReportOptions opts;
  opts.title = "report <with> \"markup\"";
  const std::vector<obs::SpanEvent> events = {ev("cd", "a", 1.25, 0, 1)};
  std::ostringstream os;
  obs::write_html_report(os, events, &bench, opts);
  const std::string html = os.str();
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("report &lt;with&gt; &quot;markup&quot;"),
            std::string::npos);
  EXPECT_EQ(html.find("<with>"), std::string::npos);
  EXPECT_NE(html.find("fig4_pop_blocksize"), std::string::npos);
  EXPECT_NE(html.find("block_x=&lt;180&gt;"), std::string::npos);
  EXPECT_NE(html.find("total_default_s"), std::string::npos);
  // Both charts plus the summary table are present.
  EXPECT_NE(html.find("class=\"convergence\""), std::string::npos);
  EXPECT_NE(html.find("class=\"timeline\""), std::string::npos);
  EXPECT_NE(html.find("class=\"summary\""), std::string::npos);
  // Self-contained: no scripts; the only URL is the SVG xmlns.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), html.find("http://www.w3.org/2000/svg"));
}

TEST(ReportHtml, ReportWithoutBenchSkipsBenchTable) {
  std::ostringstream os;
  obs::write_html_report(os, {ev("cd", "a", 1.0, 0, 1)}, nullptr);
  EXPECT_EQ(os.str().find("Benchmark report"), std::string::npos);
  EXPECT_NE(os.str().find("Convergence"), std::string::npos);
}

// Acceptance criterion: a REAL fig4-style search (coordinate descent tuning
// POP block sizes on a simulated 480-CPU machine), traced per evaluation,
// round-tripped through JSONL, renders to an HTML report whose SVG
// convergence curve reflects the actual search trajectory.
TEST(ReportHtml, Fig4StyleTraceRendersConvergenceReport) {
  using namespace minipop;
  const PopGrid grid = PopGrid::production();
  const PopModel model(grid);
  const auto pspace = make_param_space(32);
  const auto mult = evaluate_multipliers(pspace, default_config(pspace));
  const auto machine = simcluster::presets::nersc_sp3(30, 16);

  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("block_x", 30, 720, 6));
  space.add(harmony::Parameter::Integer("block_y", 24, 600, 4));
  harmony::Config start = space.default_config();
  space.set(start, "block_x", std::int64_t{180});
  space.set(start, "block_y", std::int64_t{100});

  obs::SearchTracer tracer;
  harmony::CoordinateDescent search(space, start, 10, /*line_samples=*/20);
  harmony::TunerOptions topts;
  topts.max_iterations = 120;
  topts.max_proposals = 12000;
  topts.tracer = &tracer;
  harmony::Tuner tuner(space, topts);
  const auto result = tuner.run(search, [&](const harmony::Config& c) {
    const BlockShape shape{static_cast<int>(space.get_int(c, "block_x")),
                           static_cast<int>(space.get_int(c, "block_y"))};
    harmony::EvaluationResult r;
    r.objective = model.step_time(machine, 16, shape, mult).total_s;
    return r;
  });
  ASSERT_TRUE(result.best.has_value());
  ASSERT_GT(tracer.size(), 0u);

  // Serialize the trace and load it back the way tools/report_gen does.
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  std::istringstream in(jsonl.str());
  std::size_t skipped = 0;
  const auto events = obs::load_trace_jsonl(in, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(events.size(), tracer.size());

  obs::BenchReport bench;
  bench.name = "fig4_pop_blocksize";
  bench.best_config = space.format(*result.best);
  bench.best_value = result.best_result.objective;
  bench.evaluations = result.iterations;

  obs::HtmlReportOptions opts;
  opts.title = "Session report: fig4_pop_blocksize";
  std::ostringstream os;
  obs::write_html_report(os, events, &bench, opts);
  const std::string html = os.str();

  // The report carries an SVG convergence curve with a real trajectory.
  EXPECT_NE(html.find("<svg class=\"convergence\""), std::string::npos);
  EXPECT_NE(html.find("<polyline class=\"best\""), std::string::npos);
  EXPECT_NE(html.find("class=\"timeline\""), std::string::npos);
  EXPECT_NE(html.find("Session report: fig4_pop_blocksize"),
            std::string::npos);
  EXPECT_NE(html.find("coordinate-descent"), std::string::npos);
  // The trace's best matches the tuner's best (same evaluations).
  EXPECT_NE(html.find(space.format(*result.best)), std::string::npos);

  // The same loaded spans feed the Chrome-trace merge: one slice each.
  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, {{"fig4", events}});
  const auto doc = obs::json_parse(chrome.str());
  ASSERT_TRUE(doc.has_value());
  std::size_t slices = 0;
  for (const auto& e : doc->find("traceEvents")->as_array()) {
    if (e.string_or("ph", "") == "X") ++slices;
  }
  EXPECT_EQ(slices, events.size());
}

}  // namespace
