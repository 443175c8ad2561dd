#pragma once

/// \file common.hpp
/// Shared plumbing of the perfbench workloads: clocks, seeded streams,
/// sample statistics, the per-run report (metrics, checks, layer ledger) and
/// the process-budget probes (threads, connections, peak RSS).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// splitmix64: every seeded input of a run derives from one stream per
/// (seed, purpose) pair, so the same --seed gives the same inputs.
class SeedStream {
 public:
  SeedStream(std::uint64_t seed, std::uint64_t purpose)
      : state_(seed * 0x9E3779B97F4A7C15ull ^ (purpose + 0x632BE59BD9B4E019ull)) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int64_t>(next() % span);
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile of raw samples (no bucketing, so repeated
/// runs never read back the exact same value by construction).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One timed part of a run; `gauge_s` is the HostGauge's own time inside it.
struct Span {
  Clock::time_point from;
  Clock::time_point to;
  double gauge_s = 0;
};

/// CPUs the process was allowed to run on before pin_to_one_cpu().
inline cpu_set_t& allowed_cpus() {
  static cpu_set_t set;
  return set;
}

/// Pins the calling thread, and so every thread it starts later, to the CPU
/// it runs on now (the scheduler starts a process on an idle CPU). On a
/// virtual machine a wakeup of a thread on another, idle vCPU costs the host
/// a variable tens of microseconds, so a loopback round trip between threads
/// on different CPUs measures the host's scheduler rather than the program;
/// on one CPU the threads hand over by a local context switch, and the
/// HostGauge runs on the very CPU the work does. Returns false (and leaves
/// the process as it was) when the affinity cannot be set.
inline bool pin_to_one_cpu() {
  cpu_set_t& all = allowed_cpus();
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return false;
  const int cpu = sched_getcpu();
  if (cpu < 0 || !CPU_ISSET(cpu, &all)) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

/// Lets every thread of the process run on all the CPUs it was allowed
/// before pin_to_one_cpu() again.
inline void unpin_all_threads() {
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const auto tid = static_cast<pid_t>(std::stol(e.path().filename().string()));
    (void)sched_setaffinity(tid, sizeof(cpu_set_t), &allowed_cpus());
  }
}

/// Host speed gauge. On a shared virtual machine the host's speed drifts by
/// up to 2.5x, in episodes of a fraction of a second to minutes, in the
/// process's CPU time as much as in its wall time. The gauge times a fixed
/// kernel of the benchmark's own (no repository code) on the run's CPU, in
/// between and inside the timed parts of a run, and a part's time is
/// reported at the reference speed:
///   (wall - gauge time inside) x kNominalS / (median sample within kWindowS)
/// A slower program reads slower in full; a slower host slows the part and
/// the gauge alike and cancels out. The kernel's three pieces were picked
/// from seven tried (also a memory walk, a memory sweep, fresh pages and a
/// floating-point chain) as those whose time followed the searches of
/// pop_pool and petsc_sles32 best across the host's episodes; see README.md.
class HostGauge {
 public:
  /// About the kernel's time on the development machine, so gauged times
  /// read close to wall seconds there.
  static constexpr double kNominalS = 0.7e-3;
  /// Samples closer together than this are skipped (caps the overhead).
  static constexpr double kMinGapS = 0.02;
  /// Reach of the samples that gauge one span.
  static constexpr double kWindowS = 1.0;

  /// Time the kernel once, unless the last sample is recent. The kernel is
  /// core-bound work like the substrates' and the server's inner loops:
  /// ordered-set churn and a hash chain, allocation churn, and
  /// data-dependent branches on a seeded stream.
  void sample(bool force = false) {
    if (!force && !samples_.empty() && seconds_since(samples_.back().end) < kMinGapS) return;
    const auto t0 = Clock::now();
    SeedStream rng(0x6a09e667, 0);
    std::uint64_t acc = 0;
    {
      std::set<std::uint32_t> set;
      for (int i = 0; i < kSetKeys; ++i) set.insert(static_cast<std::uint32_t>(rng.next() % 65536));
      for (const auto k : set) acc += k;
      for (int i = 0; i < kHashSteps; ++i) acc = (acc ^ (acc >> 29)) * 0xBF58476D1CE4E5B9ull + i;
    }
    {
      std::vector<std::unique_ptr<char[]>> blocks;
      for (int i = 0; i < kAllocs; ++i) {
        blocks.emplace_back(new char[16 + rng.next() % 200]);
        if (i % 3 == 0) blocks[rng.next() % blocks.size()].reset();
      }
      acc += blocks.size();
    }
    for (int i = 0; i < kBranches; ++i) {
      if ((rng.next() & 7) < 3) {
        acc += static_cast<std::uint64_t>(i);
      } else {
        acc ^= static_cast<std::uint64_t>(i);
      }
    }
    sink_ = acc;
    const auto t1 = Clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    samples_.push_back({t1, s});
    spent_s_ += s;
  }

  /// Seconds spent sampling so far (to take out of the spans around them).
  [[nodiscard]] double spent_s() const { return spent_s_; }

  /// kNominalS over the median sample that ended within kWindowS of [from,
  /// to] (or, if none did, the last one before and the first one after it).
  /// The median drops a sample that a passing interrupt slowed.
  [[nodiscard]] double factor(const Span& span) const {
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kWindowS));
    std::vector<double> near;
    const Sample* before = nullptr;
    const Sample* after = nullptr;
    for (const auto& s : samples_) {
      if (s.end <= span.from) before = &s;
      if (s.end >= span.to && after == nullptr) after = &s;
      if (s.end >= span.from - window && s.end <= span.to + window) near.push_back(s.s);
    }
    if (near.empty()) {
      if (before != nullptr) near.push_back(before->s);
      if (after != nullptr) near.push_back(after->s);
    }
    return near.empty() ? 1.0 : kNominalS / median(near);
  }
  /// A span's own time (without the gauge's) at the reference speed.
  [[nodiscard]] double gauged(const Span& s) const {
    return (std::chrono::duration<double>(s.to - s.from).count() - s.gauge_s) * factor(s);
  }
  [[nodiscard]] std::vector<double> gauged(const std::vector<Span>& spans) const {
    std::vector<double> out;
    for (const auto& s : spans) out.push_back(gauged(s));
    return out;
  }

  /// One line for the run's log: the samples and the run's reference factor.
  void print(const char* what, double wall_s, double gauged_s) const {
    std::vector<double> v;
    for (const auto& s : samples_) v.push_back(s.s);
    std::printf("host gauge: %zu samples, median %.4f ms (p10 %.4f, p90 %.4f); "
                "%s %.4f s of wall, %.4f s at the reference speed\n",
                v.size(), 1e3 * median(v), 1e3 * quantile(v, 0.1), 1e3 * quantile(v, 0.9),
                what, wall_s, gauged_s);
  }

 private:
  static constexpr int kSetKeys = 1000;
  static constexpr int kHashSteps = 30000;
  static constexpr int kAllocs = 2000;
  static constexpr int kBranches = 100000;
  struct Sample {
    Clock::time_point end;
    double s;
  };
  std::vector<Sample> samples_;
  double spent_s_ = 0;
  volatile std::uint64_t sink_ = 0;
};

/// Thread-safe busy-time accumulator for one traced seam.
struct LayerTimer {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};

  void add(Clock::duration d) {
    calls.fetch_add(1, std::memory_order_relaxed);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    busy_ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
  }
  [[nodiscard]] double busy_s() const {
    return static_cast<double>(busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  [[nodiscard]] std::uint64_t count() const {
    return calls.load(std::memory_order_relaxed);
  }
};

/// Times one call into `timer` when `on`; a plain call otherwise.
template <typename F>
auto timed(bool on, LayerTimer& timer, F&& f) {
  if (!on) return f();
  const auto t0 = Clock::now();
  auto out = f();
  timer.add(Clock::now() - t0);
  return out;
}

/// Busy-wait for `us` microseconds: the self-test's injected substrate
/// slowdown (a spin, so it costs CPU like a slower model would).
inline void spin_us(double us) {
  if (us <= 0) return;
  const auto until =
      Clock::now() + std::chrono::nanoseconds(static_cast<long long>(us * 1e3));
  while (Clock::now() < until) {
  }
}

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double inject_delay_us = 0;  ///< self-test: spin added to substrate calls ...
  int inject_every = 1;        ///< ... on every N-th call
};

/// The self-test's injected substrate slowdown: a spin of `delay_us` on
/// every `every`-th call (counted across threads), so it costs CPU like a
/// slower model would. A no-op when the delay is 0.
class Injector {
 public:
  explicit Injector(const RunOptions& o)
      : delay_us_(o.inject_delay_us), every_(std::max(1, o.inject_every)) {}
  void operator()() {
    if (delay_us_ <= 0) return;
    if (calls_.fetch_add(1, std::memory_order_relaxed) % every_ == 0) spin_us(delay_us_);
  }

 private:
  double delay_us_;
  std::uint64_t every_;
  std::atomic<std::uint64_t> calls_{0};
};

/// One workload's results: end-to-end metrics, per-layer metrics, checks and
/// the layer ledger, printed as the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void count(const std::string& name, std::uint64_t n) {
    metric(name, static_cast<double>(n), "count");
  }
  /// A ratio metric; 0 when the base is 0.
  void ratio(const std::string& name, double part, double base) {
    metric(name, base != 0 ? part / base : 0.0, "ratio");
  }
  /// Record one checked operation; a false `ok` is a failure with `what`.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
    }
  }
  /// Count `n` operations that are not individually checked (requests,
  /// evaluations) and `bad` of them that failed.
  void attempts(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted_ += n;
    failed_ += bad;
    if (bad > 0 && failures_.size() < 20) failures_.push_back(what);
  }

  /// Ledger rows: self-time seconds attributed to a layer; the residual is
  /// whatever of `wall_s` no row explains.
  void ledger_row(const std::string& layer, double self_s) {
    ledger_.emplace_back(layer, self_s);
  }
  void ledger_wall(double wall_s) {
    ledger_wall_s_ = wall_s;
    metric("ledger.wall_s", wall_s, "s");
  }

  void print_ledger(const std::string& workload) const {
    if (ledger_.empty()) return;
    double sum = 0;
    for (const auto& [layer, s] : ledger_) sum += s;
    std::printf("ledger %s (traced wall %.4f s)\n", workload.c_str(), ledger_wall_s_);
    for (const auto& [layer, s] : ledger_) {
      std::printf("  %-28s %10.4f s  %6.2f%%\n", layer.c_str(), s,
                  ledger_wall_s_ > 0 ? 100.0 * s / ledger_wall_s_ : 0.0);
    }
    const double residual = ledger_wall_s_ - sum;
    std::printf("  %-28s %10.4f s  %6.2f%%\n", "residual (unattributed)", residual,
                ledger_wall_s_ > 0 ? 100.0 * residual / ledger_wall_s_ : 0.0);
    std::printf("  %-28s %10.4f s\n", "total", ledger_wall_s_);
  }
  [[nodiscard]] double ledger_residual() const {
    double sum = 0;
    for (const auto& [layer, s] : ledger_) sum += s;
    return ledger_wall_s_ - sum;
  }

  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_ == 0 ? 1 : attempted_),
                static_cast<unsigned long long>(failed_));
    bool first = true;
    for (const auto& [name, vu] : metrics_) {
      double v = vu.first;
      if (!std::isfinite(v)) v = 0;
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), v, vu.second.c_str());
      first = false;
    }
    std::printf("}}\n");
  }

  /// Copy with exactly the named metrics; a metric the workload never set
  /// (a layer it does not touch) reads 0.
  [[nodiscard]] Report select(
      const std::vector<std::pair<std::string, std::string>>& names) const {
    Report out = *this;
    out.metrics_.clear();
    for (const auto& [name, unit] : names) {
      const auto it = metrics_.find(name);
      out.metrics_[name] = {it == metrics_.end() ? 0.0 : it->second.first, unit};
    }
    return out;
  }

  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, double>> ledger_;
  double ledger_wall_s_ = 0;
};

/// Threads of this process right now (/proc/self/task entries).
inline int thread_count() {
  int n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    (void)e;
    ++n;
  }
  return n;
}

/// Peak resident set of this process in MB (ru_maxrss is in KiB on Linux).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Load budget of one workload process: all threads (server reactors, pool
/// lanes, in-process workers, the driver itself) and open client connections.
constexpr int kMaxThreads = 4;
constexpr int kMaxConnections = 4;

/// Record the thread budget check at a point where every thread of the
/// workload is running. A thread that was just joined can linger in
/// /proc/self/task for a moment, so the count is the lowest of a few reads.
inline void check_thread_budget(Report& report, const char* where) {
  int n = thread_count();
  for (int i = 0; i < 4 && n > kMaxThreads; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = std::min(n, thread_count());
  }
  report.check(n <= kMaxThreads, std::string("thread budget exceeded at ") + where +
                                     ": " + std::to_string(n) + " threads");
}

}  // namespace perfbench
