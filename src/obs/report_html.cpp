#include "obs/report_html.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

namespace harmony::obs {

namespace {

constexpr int kMarginLeft = 64;
constexpr int kMarginRight = 16;
constexpr int kMarginTop = 16;
constexpr int kMarginBottom = 36;

/// Strategy bar/line colors; index by order of first appearance.
const char* const kPalette[] = {"#2563eb", "#dc2626", "#059669", "#d97706",
                                "#7c3aed", "#0891b2", "#be185d", "#4d7c0f"};
constexpr std::size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v, int precision = 6) {
  if (!std::isfinite(v)) return "∞";
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

/// The evaluation spans, ordered the way a convergence plot wants them: by
/// start time, lanes breaking ties (same ordering SearchTracer::spans()
/// uses).
std::vector<SpanEvent> evaluations(const std::vector<SpanEvent>& spans) {
  std::vector<SpanEvent> out;
  for (const auto& s : spans) {
    if (s.is_eval()) out.push_back(s);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.t_start_us != b.t_start_us) {
                       return a.t_start_us < b.t_start_us;
                     }
                     return a.thread_lane < b.thread_lane;
                   });
  return out;
}

/// Distinct strategy names in order of first appearance (stable color map).
std::vector<std::string> strategy_order(const std::vector<SpanEvent>& events) {
  std::vector<std::string> out;
  for (const auto& e : events) {
    if (std::find(out.begin(), out.end(), e.strategy) == out.end()) {
      out.push_back(e.strategy);
    }
  }
  return out;
}

const char* color_for(const std::vector<std::string>& order,
                      const std::string& strategy) {
  const auto it = std::find(order.begin(), order.end(), strategy);
  const auto idx =
      it == order.end() ? 0 : static_cast<std::size_t>(it - order.begin());
  return kPalette[idx % kPaletteSize];
}

void empty_chart(std::ostream& os, int width, int height, const char* cls) {
  os << "<svg class=\"" << cls << "\" width=\"" << width << "\" height=\""
     << height << "\" viewBox=\"0 0 " << width << " " << height
     << "\" xmlns=\"http://www.w3.org/2000/svg\">"
     << "<text x=\"" << width / 2 << "\" y=\"" << height / 2
     << "\" text-anchor=\"middle\" fill=\"#6b7280\">no trace events</text>"
     << "</svg>\n";
}

}  // namespace

void write_convergence_svg(std::ostream& os, const std::vector<SpanEvent>& spans,
                           const HtmlReportOptions& opts) {
  const int width = opts.width;
  const int height = opts.curve_height;
  const auto evs = evaluations(spans);

  // Best-so-far trajectory over finite, valid objectives.
  std::vector<double> best_so_far(evs.size(),
                                  std::numeric_limits<double>::infinity());
  double best = std::numeric_limits<double>::infinity();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto& e = evs[i];
    if (e.valid && std::isfinite(e.objective)) {
      best = std::min(best, e.objective);
      lo = std::min(lo, e.objective);
      hi = std::max(hi, e.objective);
      any = true;
    }
    best_so_far[i] = best;
  }
  if (!any) {
    empty_chart(os, width, height, "convergence");
    return;
  }
  if (hi <= lo) hi = lo + (lo != 0.0 ? std::abs(lo) * 1e-3 : 1.0);

  const double plot_w = width - kMarginLeft - kMarginRight;
  const double plot_h = height - kMarginTop - kMarginBottom;
  const double n = static_cast<double>(evs.size());
  const auto x_of = [&](std::size_t i) {
    return kMarginLeft +
           plot_w * (n > 1 ? static_cast<double>(i) / (n - 1) : 0.5);
  };
  const auto y_of = [&](double v) {
    return kMarginTop + plot_h * (1.0 - (v - lo) / (hi - lo));
  };

  os << "<svg class=\"convergence\" width=\"" << width << "\" height=\""
     << height << "\" viewBox=\"0 0 " << width << " " << height
     << "\" xmlns=\"http://www.w3.org/2000/svg\">\n";
  // Frame + axis labels.
  os << "<rect x=\"" << kMarginLeft << "\" y=\"" << kMarginTop << "\" width=\""
     << plot_w << "\" height=\"" << plot_h
     << "\" fill=\"none\" stroke=\"#d1d5db\"/>\n";
  os << "<text x=\"" << kMarginLeft - 6 << "\" y=\"" << y_of(hi) + 4
     << "\" text-anchor=\"end\" class=\"axis\">" << fmt(hi, 4) << "</text>\n";
  os << "<text x=\"" << kMarginLeft - 6 << "\" y=\"" << y_of(lo) + 4
     << "\" text-anchor=\"end\" class=\"axis\">" << fmt(lo, 4) << "</text>\n";
  os << "<text x=\"" << kMarginLeft << "\" y=\"" << height - 10
     << "\" class=\"axis\">evaluation 1</text>\n";
  os << "<text x=\"" << width - kMarginRight << "\" y=\"" << height - 10
     << "\" text-anchor=\"end\" class=\"axis\">evaluation " << evs.size()
     << "</text>\n";

  // Raw per-evaluation objectives as faint markers.
  const auto order = strategy_order(evs);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto& e = evs[i];
    if (!e.valid || !std::isfinite(e.objective)) continue;
    os << "<circle cx=\"" << fmt(x_of(i), 7) << "\" cy=\""
       << fmt(y_of(e.objective), 7) << "\" r=\"2\" fill=\""
       << color_for(order, e.strategy) << "\" fill-opacity=\"0.35\"/>\n";
  }

  // The best-so-far step curve (the figure the paper's convergence plots
  // show): horizontal until an improvement, then a vertical drop.
  os << "<polyline class=\"best\" fill=\"none\" stroke=\"#111827\" "
        "stroke-width=\"1.8\" points=\"";
  double prev = std::numeric_limits<double>::infinity();
  bool started = false;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (!std::isfinite(best_so_far[i])) continue;
    if (started && best_so_far[i] != prev) {
      os << fmt(x_of(i), 7) << "," << fmt(y_of(prev), 7) << " ";
    }
    os << fmt(x_of(i), 7) << "," << fmt(y_of(best_so_far[i]), 7) << " ";
    prev = best_so_far[i];
    started = true;
  }
  os << "\"/>\n</svg>\n";
}

void write_timeline_svg(std::ostream& os, const std::vector<SpanEvent>& spans,
                        const HtmlReportOptions& opts) {
  const int width = opts.width;
  const auto events = evaluations(spans);
  if (events.empty()) {
    empty_chart(os, width, 3 * opts.lane_height, "timeline");
    return;
  }
  std::uint32_t max_lane = 0;
  double t_lo = std::numeric_limits<double>::infinity();
  double t_hi = -std::numeric_limits<double>::infinity();
  for (const auto& e : events) {
    max_lane = std::max(max_lane, e.thread_lane);
    t_lo = std::min(t_lo, e.t_start_us);
    t_hi = std::max(t_hi, std::max(e.t_end_us, e.t_start_us));
  }
  if (t_hi <= t_lo) t_hi = t_lo + 1.0;
  const int lanes = static_cast<int>(max_lane) + 1;
  const int legend_h = 22;
  const int height = kMarginTop + lanes * opts.lane_height + kMarginBottom + legend_h;
  const double plot_w = width - kMarginLeft - kMarginRight;
  const auto x_of = [&](double t_us) {
    return kMarginLeft + plot_w * (t_us - t_lo) / (t_hi - t_lo);
  };

  os << "<svg class=\"timeline\" width=\"" << width << "\" height=\"" << height
     << "\" viewBox=\"0 0 " << width << " " << height
     << "\" xmlns=\"http://www.w3.org/2000/svg\">\n";
  for (int lane = 0; lane < lanes; ++lane) {
    const int y = kMarginTop + lane * opts.lane_height;
    os << "<text x=\"" << kMarginLeft - 6 << "\" y=\""
       << y + opts.lane_height / 2 + 4
       << "\" text-anchor=\"end\" class=\"axis\">lane " << lane << "</text>\n";
    os << "<line x1=\"" << kMarginLeft << "\" y1=\"" << y + opts.lane_height
       << "\" x2=\"" << width - kMarginRight << "\" y2=\""
       << y + opts.lane_height << "\" stroke=\"#e5e7eb\"/>\n";
  }

  const auto order = strategy_order(events);
  for (const auto& e : events) {
    const double x0 = x_of(e.t_start_us);
    const double x1 = std::max(x_of(e.t_end_us), x0 + 1.0);  // min 1px wide
    const int y = kMarginTop +
                  static_cast<int>(e.thread_lane) * opts.lane_height + 3;
    const char* color = color_for(order, e.strategy);
    const bool hit = e.cache_hit();
    os << "<rect class=\"" << (hit ? "hit" : "eval") << "\" x=\""
       << fmt(x0, 7) << "\" y=\"" << y << "\" width=\"" << fmt(x1 - x0, 7)
       << "\" height=\"" << opts.lane_height - 6 << "\" fill=\"" << color
       << "\" fill-opacity=\"" << (hit ? "0.25" : "0.85")
       << "\" stroke=\"" << color << "\"><title>" << html_escape(e.detail)
       << " = " << fmt(e.objective) << (hit ? " (cache hit)" : "")
       << "</title></rect>\n";
  }

  // Time axis + strategy legend.
  const int axis_y = kMarginTop + lanes * opts.lane_height + 16;
  os << "<text x=\"" << kMarginLeft << "\" y=\"" << axis_y
     << "\" class=\"axis\">0 ms</text>\n";
  os << "<text x=\"" << width - kMarginRight << "\" y=\"" << axis_y
     << "\" text-anchor=\"end\" class=\"axis\">" << fmt((t_hi - t_lo) / 1000.0, 5)
     << " ms</text>\n";
  int lx = kMarginLeft;
  const int ly = axis_y + legend_h;
  for (const auto& s : order) {
    os << "<rect x=\"" << lx << "\" y=\"" << ly - 10
       << "\" width=\"12\" height=\"12\" fill=\"" << color_for(order, s)
       << "\"/><text x=\"" << lx + 16 << "\" y=\"" << ly
       << "\" class=\"axis\">" << html_escape(s) << "</text>\n";
    lx += 24 + 8 * static_cast<int>(s.size());
  }
  os << "</svg>\n";
}

void write_html_report(std::ostream& os, const std::vector<SpanEvent>& spans,
                       const BenchReport* bench, const HtmlReportOptions& opts) {
  // Summary numbers from the trace itself.
  const auto events = evaluations(spans);
  std::size_t cache_hits = 0;
  std::size_t invalid = 0;
  double best = std::numeric_limits<double>::infinity();
  std::string best_point;
  double t_lo = std::numeric_limits<double>::infinity();
  double t_hi = 0.0;
  std::uint32_t max_lane = 0;
  for (const auto& e : events) {
    if (e.cache_hit()) ++cache_hits;
    if (!e.valid) ++invalid;
    if (e.valid && std::isfinite(e.objective) && e.objective < best) {
      best = e.objective;
      best_point = e.detail;
    }
    t_lo = std::min(t_lo, e.t_start_us);
    t_hi = std::max(t_hi, e.t_end_us);
    max_lane = std::max(max_lane, e.thread_lane);
  }
  const double wall_us = events.empty() ? 0.0 : std::max(0.0, t_hi - t_lo);
  const double hit_rate =
      events.empty() ? 0.0
                     : 100.0 * static_cast<double>(cache_hits) /
                           static_cast<double>(events.size());

  os << "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
     << "<title>" << html_escape(opts.title) << "</title>\n<style>\n"
     << "body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:"
     << opts.width + 40 << "px;color:#111827}\n"
     << "h1{font-size:1.4rem} h2{font-size:1.1rem;margin-top:2rem}\n"
     << "table{border-collapse:collapse;font-size:0.9rem}\n"
     << "td,th{border:1px solid #d1d5db;padding:0.3rem 0.6rem;text-align:left}\n"
     << "th{background:#f3f4f6}\n"
     << "svg text.axis,svg .axis{font-size:11px;fill:#6b7280}\n"
     << "p.note{color:#6b7280;font-size:0.85rem}\n"
     << "</style>\n</head>\n<body>\n";
  os << "<h1>" << html_escape(opts.title) << "</h1>\n";

  if (bench != nullptr) {
    os << "<h2>Benchmark report</h2>\n<table class=\"bench\">\n"
       << "<tr><th>bench</th><td>" << html_escape(bench->name) << "</td></tr>\n"
       << "<tr><th>best config</th><td>" << html_escape(bench->best_config)
       << "</td></tr>\n"
       << "<tr><th>best value</th><td>" << fmt(bench->best_value)
       << "</td></tr>\n"
       << "<tr><th>evaluations</th><td>" << bench->evaluations << "</td></tr>\n"
       << "<tr><th>evals to best</th><td>" << bench->evals_to_best
       << "</td></tr>\n"
       << "<tr><th>wall (s)</th><td>" << fmt(bench->wall_s) << "</td></tr>\n";
    if (bench->speedup != 0.0) {
      os << "<tr><th>speedup</th><td>" << fmt(bench->speedup) << "</td></tr>\n";
    }
    for (const auto& [k, v] : bench->metrics) {
      os << "<tr><th>" << html_escape(k) << "</th><td>" << fmt(v)
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  os << "<h2>Convergence</h2>\n"
     << "<p class=\"note\">best objective so far vs evaluation index; faint "
        "dots are the raw per-evaluation objectives</p>\n";
  write_convergence_svg(os, events, opts);

  os << "<h2>Evaluation timeline</h2>\n"
     << "<p class=\"note\">one row per thread lane, one bar per evaluation "
        "(hollow = served from cache)</p>\n";
  write_timeline_svg(os, events, opts);

  os << "<h2>Cache & strategy summary</h2>\n<table class=\"summary\">\n"
     << "<tr><th>strategy</th><th>evaluations</th><th>cache hits</th>"
     << "<th>hit rate</th><th>best value</th></tr>\n";
  for (const auto& s : strategy_order(events)) {
    std::size_t count = 0;
    std::size_t hits = 0;
    double s_best = std::numeric_limits<double>::infinity();
    for (const auto& e : events) {
      if (e.strategy != s) continue;
      ++count;
      if (e.cache_hit()) ++hits;
      if (e.valid && std::isfinite(e.objective)) s_best = std::min(s_best, e.objective);
    }
    os << "<tr><td>" << html_escape(s) << "</td><td>" << count << "</td><td>"
       << hits << "</td><td>"
       << fmt(count != 0 ? 100.0 * static_cast<double>(hits) /
                               static_cast<double>(count)
                         : 0.0,
              3)
       << "%</td><td>" << fmt(s_best) << "</td></tr>\n";
  }
  os << "<tr><th>total</th><th>" << events.size() << "</th><th>" << cache_hits
     << "</th><th>" << fmt(hit_rate, 3) << "%</th><th>" << fmt(best)
     << "</th></tr>\n</table>\n";
  os << "<p class=\"note\">trace: " << events.size() << " events, "
     << (static_cast<int>(max_lane) + 1) << " lane(s), " << invalid
     << " invalid evaluation(s), wall span " << fmt(wall_us / 1000.0, 5)
     << " ms; best point: " << html_escape(best_point) << "</p>\n";
  os << "</body>\n</html>\n";
}

}  // namespace harmony::obs
