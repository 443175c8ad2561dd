#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace harmony::obs {

namespace {

/// Render a double for JSON: finite values print plainly; non-finite values
/// (infinite objectives mark infeasible configurations) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Hex rendering for 64-bit ids: JSON numbers only carry 53 bits safely, so
/// trace/span ids are always strings.
std::string hex_id(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t parse_hex_id(const std::string& s) {
  return static_cast<std::uint64_t>(std::strtoull(s.c_str(), nullptr, 16));
}

}  // namespace

std::uint64_t next_trace_id() noexcept {
  static std::atomic<std::uint64_t> counter{static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count())};
  std::uint64_t id = 0;
  while (id == 0) {
    id = splitmix64(counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

SpanEvent eval_span(std::uint64_t trace_id, std::string strategy,
                    std::string point, double objective, bool valid,
                    bool cache_hit, double t_start_us, double t_end_us) {
  SpanEvent s;
  s.trace_id = trace_id;
  s.span_id = next_trace_id();
  s.name = cache_hit ? kCacheSpan : kEvalSpan;
  s.detail = std::move(point);
  s.strategy = std::move(strategy);
  s.objective = objective;
  s.valid = valid;
  s.t_start_us = t_start_us;
  s.t_end_us = t_end_us;
  return s;
}

SearchTracer::SearchTracer()
    : epoch_(std::chrono::steady_clock::now()),
      wall_anchor_us_(std::chrono::duration<double, std::micro>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count()),
      shards_(kShards) {}

double SearchTracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t SearchTracer::lane_for_current_thread() {
  const auto id = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  const auto it = lane_ids_.find(id);
  if (it != lane_ids_.end()) return it->second;
  const auto lane = static_cast<std::uint32_t>(lane_ids_.size());
  lane_ids_.emplace(id, lane);
  return lane;
}

void SearchTracer::record(SpanEvent s) {
  s.thread_lane = lane_for_current_thread();
  Shard& shard = shards_[std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                         shards_.size()];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.spans.push_back(std::move(s));
}

std::vector<SpanEvent> SearchTracer::spans() const {
  std::vector<SpanEvent> out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    out.insert(out.end(), shard.spans.begin(), shard.spans.end());
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

std::size_t SearchTracer::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    n += shard.spans.size();
  }
  return n;
}

std::size_t SearchTracer::lanes() const {
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  return lane_ids_.size();
}

void SearchTracer::clear() {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.spans.clear();
  }
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  lane_ids_.clear();
}

void SearchTracer::write_jsonl(std::ostream& os) const {
  for (const auto& s : spans()) {
    os << "{\"trace\":\"" << hex_id(s.trace_id) << "\""
       << ",\"span\":\"" << hex_id(s.span_id) << "\""
       << ",\"parent\":\"" << hex_id(s.parent_span) << "\""
       << ",\"name\":\"" << json_escape(s.name) << "\""
       << ",\"detail\":\"" << json_escape(s.detail) << "\""
       << ",\"strategy\":\"" << json_escape(s.strategy) << "\""
       << ",\"objective\":" << json_number(s.objective)
       << ",\"valid\":" << (s.valid ? "true" : "false")
       << ",\"thread\":" << s.thread_lane
       << ",\"t_start_us\":" << json_number(s.t_start_us)
       << ",\"t_end_us\":" << json_number(s.t_end_us)
       << ",\"anchor_us\":" << json_number(wall_anchor_us_) << "}\n";
  }
}

void SearchTracer::write_chrome_trace(std::ostream& os) const {
  obs::write_chrome_trace(os, {{"harmony", spans()}});
}

std::vector<SpanEvent> load_trace_jsonl(std::istream& is, std::size_t* skipped) {
  std::vector<SpanEvent> out;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto v = json_parse(line);
    if (!v || !v->is_object()) {
      ++bad;
      continue;
    }
    SpanEvent s;
    s.trace_id = parse_hex_id(v->string_or("trace", ""));
    s.span_id = parse_hex_id(v->string_or("span", ""));
    s.parent_span = parse_hex_id(v->string_or("parent", ""));
    s.name = v->string_or("name", "");
    s.detail = v->string_or("detail", "");
    s.strategy = v->string_or("strategy", "");
    // write_jsonl serializes non-finite objectives as null.
    const JsonValue* obj = v->find("objective");
    s.objective = (obj != nullptr && obj->is_number())
                      ? obj->as_number()
                      : std::numeric_limits<double>::infinity();
    const JsonValue* valid = v->find("valid");
    s.valid = valid == nullptr || !valid->is_bool() || valid->as_bool();
    s.thread_lane = static_cast<std::uint32_t>(v->number_or("thread", 0.0));
    // The anchor is the tracer's wall-clock time at its steady-epoch zero;
    // adding it turns per-process relative microseconds into a shared axis.
    const double anchor = v->number_or("anchor_us", 0.0);
    s.t_start_us = anchor + v->number_or("t_start_us", 0.0);
    s.t_end_us = anchor + v->number_or("t_end_us", 0.0);
    out.push_back(std::move(s));
  }
  if (skipped != nullptr) *skipped = bad;
  return out;
}

void write_chrome_trace(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::vector<SpanEvent>>>& inputs) {
  double t0 = std::numeric_limits<double>::infinity();
  for (const auto& [label, spans] : inputs) {
    for (const auto& s : spans) t0 = std::min(t0, s.t_start_us);
  }
  if (!std::isfinite(t0)) t0 = 0.0;

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",";
    first = false;
  };
  for (std::size_t pid = 0; pid < inputs.size(); ++pid) {
    const auto& [label, spans] = inputs[pid];
    comma();
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
       << json_escape(label) << "\"}}";
    // Lane labels so the viewer shows "lane 0..N" instead of raw tids.
    std::uint32_t lanes = 0;
    for (const auto& s : spans) lanes = std::max(lanes, s.thread_lane + 1);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      comma();
      os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << lane
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"lane " << lane
         << "\"}}";
    }
    for (const auto& s : spans) {
      comma();
      os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << s.thread_lane
         << ",\"ts\":" << json_number(s.t_start_us - t0)
         << ",\"dur\":" << json_number(std::max(0.0, s.t_end_us - s.t_start_us))
         << ",\"cat\":\"span\",\"name\":\"" << json_escape(s.name)
         << "\",\"args\":{\"trace\":\"" << hex_id(s.trace_id)
         << "\",\"span\":\"" << hex_id(s.span_id)
         << "\",\"parent\":\"" << hex_id(s.parent_span)
         << "\",\"detail\":\"" << json_escape(s.detail) << "\"";
      if (s.is_eval()) {
        os << ",\"strategy\":\"" << json_escape(s.strategy)
           << "\",\"objective\":" << json_number(s.objective)
           << ",\"valid\":" << (s.valid ? "true" : "false");
      }
      os << "}}";
    }
  }
  os << "]}\n";
}

}  // namespace harmony::obs
