#pragma once

/// \file event_loop.hpp
/// A minimal epoll reactor for the tuning server. One EventLoop owns one
/// epoll instance and runs on one thread; the server starts N of them and
/// spreads connections across the loops, so the whole serving stack runs on
/// a fixed, small thread count regardless of how many clients are
/// connected.
///
/// Threading contract: add()/modify()/remove() and the registered callbacks
/// are loop-thread-only. The thread-safe surface is stop(), wakeup() and
/// defer(fn) — defer enqueues a closure that the loop thread runs on its
/// next iteration (an eventfd wakes the loop if it is blocked in
/// epoll_wait). That is how the acceptor hands fresh connections to another
/// loop and how stop tears everything down from outside.
///
/// Observability: when AH_OBS is on, each iteration records the ready-queue
/// depth into `net.loop.ready` and counts `net.loop.iterations`, and every
/// deferred closure's queue residency (defer() enqueue to drain) lands in
/// the `net.loop.defer_wait_s` histogram; connection byte counters are
/// maintained by the server's connection handlers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace harmony::net {

/// Coarse hashed timer wheel for idle-session reaping. Single-threaded (it
/// lives inside one reactor shard and is only touched from that shard's
/// thread). Time is measured in abstract ticks — the owner advances the
/// wheel from its periodic tick callback, so the resolution is whatever the
/// loop's tick interval is; deadlines land in `slots` hash buckets and an
/// entry whose bucket comes up early (deadline more than `slots` ticks out)
/// is lazily re-bucketed instead of fired. schedule() on a live key moves
/// its deadline; cancel() is O(1) (the stale bucket entry is skipped when
/// its bucket is swept).
class TimerWheel {
 public:
  explicit TimerWheel(std::size_t slots = 128)
      : buckets_(slots > 0 ? slots : 1) {}

  /// Current tick count (monotonic, starts at 0).
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }

  /// Live (scheduled, not yet fired or cancelled) entries.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// (Re)arm `key` to expire `delay_ticks` from now (clamped to >= 1).
  void schedule(int key, std::uint64_t delay_ticks) {
    const std::uint64_t deadline = now_ + std::max<std::uint64_t>(1, delay_ticks);
    auto [it, inserted] = entries_.insert_or_assign(key, deadline);
    (void)it;
    (void)inserted;
    buckets_[deadline % buckets_.size()].push_back(key);
  }

  /// Disarm `key`; safe when not scheduled.
  void cancel(int key) { entries_.erase(key); }

  /// Advance one tick and invoke `expired(key)` for every entry now due.
  /// The callback may schedule()/cancel() freely (including re-arming the
  /// fired key — how the server snoozes a session that was active since its
  /// deadline was set).
  template <typename Fn>
  void advance(Fn&& expired) {
    ++now_;
    auto& bucket = buckets_[now_ % buckets_.size()];
    if (bucket.empty()) return;
    std::vector<int> keys;
    keys.swap(bucket);
    for (const int key : keys) {
      const auto it = entries_.find(key);
      if (it == entries_.end()) continue;  // cancelled (or already fired)
      if (it->second <= now_) {
        entries_.erase(it);
        expired(key);
      } else {
        // Re-bucket: the deadline is in a future lap of the wheel (or the
        // entry was re-armed since this bucket entry was pushed).
        buckets_[it->second % buckets_.size()].push_back(key);
      }
    }
  }

 private:
  std::vector<std::vector<int>> buckets_;
  std::unordered_map<int, std::uint64_t> entries_;  ///< key -> deadline tick
  std::uint64_t now_ = 0;
};

class EventLoop {
 public:
  /// Callback for descriptor readiness; receives the epoll event mask.
  using FdCallback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when epoll/eventfd could not be created.
  [[nodiscard]] bool ok() const noexcept { return epoll_fd_ >= 0; }

  // ---- loop-thread-only surface -------------------------------------------

  /// Register `fd` for `events` (EPOLLIN | EPOLLOUT | ...). The callback is
  /// invoked from run() whenever the descriptor is ready.
  [[nodiscard]] bool add(int fd, std::uint32_t events, FdCallback cb);

  /// Change the interest mask of a registered descriptor.
  [[nodiscard]] bool modify(int fd, std::uint32_t events);

  /// Deregister; safe to call from the descriptor's own callback.
  void remove(int fd);

  /// Install a periodic tick: run() calls `fn` on the loop thread roughly
  /// every `interval_ms` (coarse — epoll_wait timeout resolution, and a
  /// busy loop checks between event batches). Call before run(); the server
  /// drives its timer wheel, backpressure resume sweep and buffer
  /// compaction off this. interval_ms <= 0 disables the tick (the loop goes
  /// back to blocking indefinitely).
  void set_tick(int interval_ms, std::function<void()> fn);

  /// Block in epoll_wait dispatching callbacks until stop().
  void run();

  // ---- thread-safe surface ------------------------------------------------

  /// Ask the loop to exit; wakes it if blocked. Idempotent.
  void stop();

  /// Run `fn` on the loop thread during its next iteration.
  void defer(std::function<void()> fn);

  /// Force an epoll_wait wakeup (defer/stop call this internally).
  void wakeup();

  /// Registered descriptor count (loop thread, for tests/diagnostics).
  [[nodiscard]] std::size_t watched() const noexcept { return callbacks_.size(); }

 private:
  void drain_deferred();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd used by wakeup()
  int tick_ms_ = 0;   ///< 0 = no tick, epoll_wait blocks indefinitely
  std::function<void()> tick_fn_;
  std::atomic<bool> stop_{false};
  std::unordered_map<int, std::shared_ptr<FdCallback>> callbacks_;
  std::mutex deferred_mutex_;
  // Enqueue timestamp rides along so drain can record queue residency; it is
  // only taken when observability is on (epoch otherwise, skipped at drain).
  struct Deferred {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };
  std::vector<Deferred> deferred_;
};

}  // namespace harmony::net
