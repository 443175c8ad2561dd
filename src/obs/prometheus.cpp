/// \file prometheus.cpp
/// Prometheus text exposition rendering for MetricsRegistry (the METRICS
/// protocol verb and anything else that wants to be scraped). Kept out of
/// metrics.cpp so the hot-path recording code stays separate from the
/// (cold) exposition encoder.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace harmony::obs {

std::string prometheus_escape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

namespace {

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted
/// names ("server.roundtrips") become underscored with an "ah_" namespace
/// prefix ("ah_server_roundtrips").
std::string prometheus_name(const std::string& name) {
  std::string out = "ah_";
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    out += (std::isalnum(uc) != 0 || c == '_' || c == ':') ? c : '_';
  }
  return out;
}

std::string render_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void render_help_type(std::ostream& os, const std::string& pname,
                      const std::string& source_name, std::string_view type) {
  // The source (dotted) name can in principle hold anything, so HELP text is
  // escaped: backslash -> \\ and line-feed -> \n per the text-format spec.
  std::string help;
  for (const char c : source_name) {
    if (c == '\\') {
      help += "\\\\";
    } else if (c == '\n') {
      help += "\\n";
    } else {
      help += c;
    }
  }
  os << "# HELP " << pname << " harmony metric " << help << "\n";
  os << "# TYPE " << pname << " " << type << "\n";
}

void render_histogram(std::ostream& os, const std::string& name,
                      const std::string& source_name, const Histogram& h) {
  render_help_type(os, name, source_name, "histogram");
  // The fine log-linear buckets coarsen to one fixed series per octave
  // boundary, le = kValueFloor * 2^k: every family exposes the same series
  // whatever was recorded. The overflow bucket has no finite bound, so its
  // values count only under +Inf.
  std::uint64_t cumulative = 0;
  for (int i = 0; i < Histogram::kOverflow; ++i) {
    cumulative += h.bucket(i);
    if (i % Histogram::kSubBuckets != 0) continue;  // not an octave boundary
    os << name << "_bucket{le=\""
       << prometheus_escape(render_double(Histogram::bucket_upper(i))) << "\"} "
       << cumulative << "\n";
  }
  os << name << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
  os << name << "_sum " << render_double(h.sum()) << "\n";
  os << name << "_count " << h.count() << "\n";
  // Pre-computed quantiles ride along as a gauge family so scrapers that do
  // not do histogram_quantile() still see the tail.
  const std::string qname = name + "_quantile";
  os << "# HELP " << qname << " harmony metric " << prometheus_escape(source_name)
     << " quantiles\n";
  os << "# TYPE " << qname << " gauge\n";
  os << qname << "{quantile=\"0.5\"} " << render_double(h.quantile(0.50)) << "\n";
  os << qname << "{quantile=\"0.95\"} " << render_double(h.quantile(0.95)) << "\n";
  os << qname << "{quantile=\"0.99\"} " << render_double(h.quantile(0.99)) << "\n";
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  struct Row {
    std::string name;
    std::string body;
  };
  std::vector<Row> rows;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, entry] : shard.table) {
      const std::string pname = prometheus_name(name);
      std::ostringstream body;
      switch (entry.kind) {
        case Entry::Kind::Counter:
          render_help_type(body, pname + "_total", name, "counter");
          body << pname << "_total " << entry.counter->value() << "\n";
          break;
        case Entry::Kind::Gauge:
          render_help_type(body, pname, name, "gauge");
          body << pname << " " << render_double(entry.gauge->value()) << "\n";
          break;
        case Entry::Kind::Histogram:
          render_histogram(body, pname, name, *entry.histogram);
          break;
      }
      rows.push_back({pname, body.str()});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  for (const auto& row : rows) os << row.body;
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

}  // namespace harmony::obs
