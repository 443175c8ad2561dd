#include "obs/event_log.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace harmony::obs {

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::Debug: return "debug";
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "info";
}

Severity severity_from(std::string_view name) noexcept {
  if (name == "debug") return Severity::Debug;
  if (name == "warn") return Severity::Warn;
  if (name == "error") return Severity::Error;
  return Severity::Info;
}

EventLog::EventLog(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(std::max<std::size_t>(capacity, kShards)),
      per_shard_(std::max<std::size_t>(1, capacity_ / kShards)),
      shards_(kShards) {}

EventLog& EventLog::global() {
  static EventLog log;
  return log;
}

EventLog::Shard& EventLog::shard_for_current_thread() noexcept {
  // Threads take shards round-robin in order of first use, so up to kShards
  // concurrent recorders never share one. (Hashing thread ids could put
  // several on one shard, which then evicts while others sit empty.)
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return shards_[slot % shards_.size()];
}

double EventLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EventLog::record(Severity severity, std::string_view component,
                      std::string_view session, std::string_view message) {
  LogEvent e;
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  e.t_us = now_us();
  e.severity = severity;
  e.component.assign(component);
  e.session.assign(session);
  e.message.assign(message);

  {
    const std::lock_guard<std::mutex> lock(sink_mutex_);
    if (sink_ != nullptr) {
      write_event_json(*sink_, e);
      *sink_ << '\n';
    }
  }

  Shard& shard = shard_for_current_thread();
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.ring.size() < per_shard_) {
    shard.ring.push_back(std::move(e));
  } else {
    shard.ring[shard.head] = std::move(e);
    shard.head = (shard.head + 1) % per_shard_;
  }
}

std::vector<LogEvent> EventLog::tail(std::size_t n) const {
  std::vector<LogEvent> out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    out.insert(out.end(), shard.ring.begin(), shard.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const LogEvent& a, const LogEvent& b) { return a.seq < b.seq; });
  if (out.size() > n) out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(n));
  return out;
}

std::size_t EventLog::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    n += shard.ring.size();
  }
  return n;
}

void EventLog::set_sink(std::ostream* sink) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = sink;
}

void EventLog::clear() {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.ring.clear();
    shard.head = 0;
  }
}

void EventLog::write_event_json(std::ostream& os, const LogEvent& e) {
  std::ostringstream t;
  t.precision(17);
  t << e.t_us;
  os << "{\"seq\":" << e.seq << ",\"t_us\":" << t.str() << ",\"severity\":\""
     << severity_name(e.severity) << "\",\"component\":\""
     << json_escape(e.component) << "\",\"session\":\""
     << json_escape(e.session) << "\",\"message\":\"" << json_escape(e.message)
     << "\"}";
}

void EventLog::write_jsonl_tail(std::ostream& os, std::size_t n) const {
  for (const auto& e : tail(n)) {
    write_event_json(os, e);
    os << '\n';
  }
}

}  // namespace harmony::obs
