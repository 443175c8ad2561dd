#pragma once

/// \file metrics.hpp
/// Process-wide metrics for the tuning core and the parallel engine: named
/// counters, gauges and histogram timers behind a zero-cost-when-disabled
/// API. Design constraints, in order:
///
///  * recording must be safe and cheap from the thread-pool workers — metric
///    objects update with relaxed/CAS atomics only, and the name->metric
///    table is lock-sharded so two workers touching different metrics never
///    serialize on one mutex;
///  * when observability is off (the default), every record path reduces to
///    one relaxed atomic load and a branch — no clocks, no allocation, no
///    hashing — so instrumented hot paths cost nothing in production runs;
///  * metric references returned by the registry stay valid for the
///    registry's lifetime (entries are never removed), so callers on a hot
///    path can resolve the name once and keep the handle.
///
/// Enablement is process-wide: obs::set_enabled(true), or export AH_OBS=1
/// before the first record (read once, lazily).

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace harmony::obs {

/// True when metric recording is on. One relaxed atomic load; reads AH_OBS
/// from the environment on first call.
[[nodiscard]] bool enabled() noexcept;

/// Escape a Prometheus label value per the text exposition spec: backslash,
/// double quote and line feed become \\, \" and \n. Implemented in
/// prometheus.cpp; exposed so the conformance tests can pin the rule down.
[[nodiscard]] std::string prometheus_escape(std::string_view v);

/// Turn recording on/off process-wide (overrides AH_OBS).
void set_enabled(bool on) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution summary: count/sum/min/max plus high-dynamic-range
/// log-linear buckets — 64 linear sub-buckets per power-of-two octave —
/// which bound the relative quantile error at ~1.6% anywhere in the range
/// [1e-9, ~1.8e4] (seconds, say). Values above the top octave land in one
/// overflow bucket with no finite upper bound. quantile(q) scans the
/// cumulative counts and returns the matched bucket's midpoint clamped to the
/// observed [min, max] (so a single-valued distribution reports that value
/// exactly), or max() when q falls in the overflow bucket. All updates are
/// relaxed/CAS atomics; record() never allocates.
class Histogram {
 public:
  static constexpr int kSubBits = 6;  ///< 2^6 linear sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kOctaves = 44;
  static constexpr double kValueFloor = 1e-9;  ///< bucket 0 upper bound
  /// Bucket of values above the top octave (kValueFloor * 2^kOctaves).
  static constexpr int kOverflow = 1 + kOctaves * kSubBuckets;
  static constexpr int kBuckets = kOverflow + 1;

  void record(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double min() const noexcept;  ///< 0 when empty
  [[nodiscard]] double max() const noexcept;  ///< 0 when empty
  [[nodiscard]] double mean() const noexcept;
  /// Value at quantile q in [0, 1] (0 when empty). q=0.5 is the median.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] std::uint64_t bucket(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Bucket a value falls into / that bucket's upper bound (+inf for
  /// kOverflow). Exposed for the Prometheus renderer and for tests.
  [[nodiscard]] static int bucket_index(double v) noexcept;
  [[nodiscard]] static double bucket_upper(int i) noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> any_{false};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Name -> metric table, sharded by name hash (one mutex per shard) so the
/// parallel engine's workers resolving different metrics do not contend.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t shards = 16);

  /// The process-wide registry used by the convenience helpers below.
  static MetricsRegistry& global();

  /// Get-or-create. The returned reference is stable for the registry's
  /// lifetime. A name keeps the kind it was first created with; asking for
  /// the same name as a different kind throws std::logic_error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] std::size_t size() const;

  /// Zero every metric's value (registrations survive) — for tests and for
  /// reusing one process across benchmark repetitions.
  void reset_values();

  /// One JSON object, keys sorted: {"name":{"type":"counter","value":N}, ...}.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition format (one # HELP/# TYPE block per metric,
  /// names sorted): counters become `ah_<name>_total`, gauges `ah_<name>`,
  /// histograms the cumulative `_bucket{le=...}/_sum/_count` family on a
  /// fixed octave layout (le = 1e-9 * 2^k, k = 0..Histogram::kOctaves, then
  /// +Inf) plus a `_quantile` gauge family. Dots in metric names map to
  /// underscores. Served by the tuning server's METRICS verb; implemented in
  /// prometheus.cpp.
  void write_prometheus(std::ostream& os) const;
  [[nodiscard]] std::string to_prometheus() const;

 private:
  struct Entry {
    enum class Kind { Counter, Gauge, Histogram } kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> table;
  };

  [[nodiscard]] Shard& shard_for(std::string_view name) const;
  Entry& entry_for(std::string_view name, Entry::Kind kind);

  mutable std::vector<Shard> shards_;
};

// ---- zero-cost-when-disabled convenience recorders ------------------------
// Each is a relaxed load + branch when observability is off. When on, they
// resolve the metric in the global registry (sharded lock) and update it
// atomically. Hot loops that record at high frequency should instead resolve
// the handle once via MetricsRegistry::global().counter(...).

inline void count(std::string_view name, std::uint64_t n = 1) {
  if (!enabled()) return;
  MetricsRegistry::global().counter(name).add(n);
}

inline void gauge_set(std::string_view name, double v) {
  if (!enabled()) return;
  MetricsRegistry::global().gauge(name).set(v);
}

inline void observe(std::string_view name, double v) {
  if (!enabled()) return;
  MetricsRegistry::global().histogram(name).record(v);
}

/// RAII wall-clock timer recording seconds into a histogram on destruction.
/// Construct via time_scope(); holds nullptr (and touches no clock) when
/// observability is disabled at construction time.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::uint64_t start_ns_ = 0;
};

[[nodiscard]] ScopedTimer time_scope(std::string_view name);

}  // namespace harmony::obs
