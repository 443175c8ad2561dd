#pragma once

/// \file event_log.hpp
/// Structured event log for the tuning system: bounded, lock-sharded ring
/// buffer of (severity, component, session, message) records with monotonic
/// timestamps and a global sequence order. The server's `LOG tail N` verb
/// reads the most recent events while the system runs; an optional JSONL
/// sink mirrors every record to a stream for durable logs.
///
/// Recording is shard-local (threads take shards round-robin on first use,
/// one mutex per shard), so pool workers logging concurrently almost never
/// contend; the buffer is bounded per shard, so a chatty component can never
/// grow memory without limit — old events are overwritten, the lifetime
/// total is kept.
///
/// The gated convenience helpers (obs::log_info etc.) cost one relaxed
/// atomic load when observability is off, like every other record site in
/// this layer.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"  // obs::enabled()

namespace harmony::obs {

enum class Severity { Debug = 0, Info = 1, Warn = 2, Error = 3 };

/// Lower-case label ("debug", "info", "warn", "error").
[[nodiscard]] const char* severity_name(Severity s) noexcept;

/// Parse a label back; nullopt semantics via bool return + out param would
/// be clunky here — unknown labels map to Info.
[[nodiscard]] Severity severity_from(std::string_view name) noexcept;

struct LogEvent {
  std::uint64_t seq = 0;   ///< process-wide record order (1-based)
  double t_us = 0.0;       ///< microseconds since the log's construction
  Severity severity = Severity::Info;
  std::string component;   ///< subsystem, e.g. "server", "engine.pool"
  std::string session;     ///< session id when applicable, else empty
  std::string message;
};

class EventLog {
 public:
  /// `capacity` bounds the total retained events (split across shards,
  /// minimum one event per shard).
  explicit EventLog(std::size_t capacity = 4096);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// The process-wide log used by the convenience helpers and the server.
  static EventLog& global();

  /// Append one record. Thread-safe; overwrites the shard's oldest record
  /// when full. Also mirrors to the sink when one is attached.
  void record(Severity severity, std::string_view component,
              std::string_view session, std::string_view message);

  /// The most recent `n` retained events, oldest first. Thread-safe
  /// snapshot; events evicted from the ring are gone (see total()).
  [[nodiscard]] std::vector<LogEvent> tail(std::size_t n) const;

  /// Events ever recorded (including evicted ones).
  [[nodiscard]] std::uint64_t total() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Events currently retained across all shards.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Microseconds since construction, from the log's steady clock.
  [[nodiscard]] double now_us() const;

  /// Attach (or detach with nullptr) a JSONL sink: every subsequent record
  /// is also appended to `sink` as one JSON object per line, under a
  /// dedicated mutex. The stream must outlive the attachment.
  void set_sink(std::ostream* sink);

  /// Drop all retained events (the sequence counter keeps counting).
  void clear();

  /// Serialize one event as a single-line JSON object (no newline):
  /// {"seq":N,"t_us":T,"severity":"info","component":"...","session":"...",
  ///  "message":"..."}
  static void write_event_json(std::ostream& os, const LogEvent& e);

  /// tail(n), one JSON object per line.
  void write_jsonl_tail(std::ostream& os, std::size_t n) const;

 private:
  static constexpr std::size_t kShards = 8;

  struct Shard {
    mutable std::mutex mutex;
    std::vector<LogEvent> ring;  ///< capacity-bounded, wraps at `head`
    std::size_t head = 0;        ///< next write position once full
  };

  Shard& shard_for_current_thread() noexcept;

  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  std::size_t per_shard_;
  mutable std::vector<Shard> shards_;
  std::atomic<std::uint64_t> seq_{0};
  std::mutex sink_mutex_;
  std::ostream* sink_ = nullptr;
};

// ---- zero-cost-when-disabled convenience recorders ------------------------

inline void log_event(Severity sev, std::string_view component,
                      std::string_view session, std::string_view message) {
  if (!enabled()) return;
  EventLog::global().record(sev, component, session, message);
}

inline void log_debug(std::string_view component, std::string_view message,
                      std::string_view session = {}) {
  log_event(Severity::Debug, component, session, message);
}
inline void log_info(std::string_view component, std::string_view message,
                     std::string_view session = {}) {
  log_event(Severity::Info, component, session, message);
}
inline void log_warn(std::string_view component, std::string_view message,
                     std::string_view session = {}) {
  log_event(Severity::Warn, component, session, message);
}
inline void log_error(std::string_view component, std::string_view message,
                      std::string_view session = {}) {
  log_event(Severity::Error, component, session, message);
}

}  // namespace harmony::obs
