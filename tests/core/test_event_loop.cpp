// EventLoop::defer() cross-thread handoff tests. defer is the only way other
// threads (the acceptor, the fleet dispatcher's push path) inject work into
// a reactor, so it must survive heavy contention, defers enqueued from the
// loop thread itself, and a stop() racing in-flight defers. The suite runs
// under TSan in CI (see .github/workflows/ci.yml).

#include "core/event_loop.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

using harmony::net::EventLoop;

namespace {

/// Poll until `fn` is true or ~5s elapse.
template <typename Fn>
bool eventually(Fn fn) {
  for (int i = 0; i < 1000; ++i) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fn();
}

TEST(EventLoopDefer, RunsClosureOnLoopThread) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::thread runner([&] { loop.run(); });

  std::atomic<bool> ran{false};
  std::thread::id loop_tid;
  loop.defer([&] {
    loop_tid = std::this_thread::get_id();
    ran.store(true);
  });
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_EQ(loop_tid, runner.get_id());

  loop.stop();
  runner.join();
}

TEST(EventLoopDefer, ManyThreadsUnderContention) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::thread runner([&] { loop.run(); });

  // 8 producers x 500 defers each, all racing the loop's drain. Every
  // closure must run exactly once: the per-producer counters sum exactly.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  std::atomic<int> executed{0};
  std::atomic<long long> checksum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const long long token = static_cast<long long>(p) * kPerProducer + i;
        loop.defer([&, token] {
          checksum.fetch_add(token, std::memory_order_relaxed);
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : producers) t.join();

  constexpr int kTotal = kProducers * kPerProducer;
  EXPECT_TRUE(eventually([&] { return executed.load() == kTotal; }));
  EXPECT_EQ(executed.load(), kTotal);
  EXPECT_EQ(checksum.load(),
            static_cast<long long>(kTotal) * (kTotal - 1) / 2);

  loop.stop();
  runner.join();
}

TEST(EventLoopDefer, DeferFromDeferredCallbackRunsNextIteration) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::thread runner([&] { loop.run(); });

  // A chain of defers, each enqueued from inside the previous one on the
  // loop thread itself — the re-entrant enqueue must not deadlock or drop.
  std::atomic<int> depth{0};
  std::function<void()> chain = [&] {
    if (depth.fetch_add(1) + 1 < 100) loop.defer(chain);
  };
  loop.defer(chain);
  EXPECT_TRUE(eventually([&] { return depth.load() == 100; }));

  loop.stop();
  runner.join();
}

TEST(EventLoopDefer, StopWhileProducersAreDeferring) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::thread runner([&] { loop.run(); });

  // Producers keep deferring while the main thread stops the loop. No hang,
  // no crash; whatever ran, ran exactly once (monotone counter only grows).
  std::atomic<bool> quit{false};
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      while (!quit.load(std::memory_order_relaxed)) {
        loop.defer([&] { executed.fetch_add(1, std::memory_order_relaxed); });
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  loop.stop();
  runner.join();
  quit.store(true);
  for (auto& t : producers) t.join();
  EXPECT_GT(executed.load(), 0);
}

// Defer-queue residency: with observability on, every drained defer records
// its cross-thread handoff wait into the "net.loop.defer_wait_s" histogram
// (nothing is recorded while observability is off).
TEST(EventLoopDefer, DeferWaitRecordedWhenObsEnabled) {
  namespace obs = harmony::obs;
  auto& hist = obs::MetricsRegistry::global().histogram("net.loop.defer_wait_s");
  const bool was = obs::enabled();
  obs::set_enabled(false);

  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::thread runner([&] { loop.run(); });

  std::atomic<int> ran{0};
  loop.defer([&] { ran.fetch_add(1); });
  EXPECT_TRUE(eventually([&] { return ran.load() == 1; }));
  const auto count_disabled = hist.count();

  obs::set_enabled(true);
  constexpr int kDefers = 32;
  for (int i = 0; i < kDefers; ++i) {
    loop.defer([&] { ran.fetch_add(1); });
  }
  EXPECT_TRUE(eventually([&] { return ran.load() == 1 + kDefers; }));
  loop.stop();
  runner.join();
  obs::set_enabled(was);

  // Each enabled-mode defer recorded exactly one (nonnegative) wait sample;
  // the disabled-mode defer recorded none.
  EXPECT_GE(hist.count(), count_disabled + kDefers);
}

// ---- TimerWheel -----------------------------------------------------------
// The wheel drives idle-session reaping: coarse ticks, lazy re-bucketing for
// deadlines beyond one lap, and re-arm-from-callback (the "snooze" the server
// uses for sessions that were active since their deadline was set).

using harmony::net::TimerWheel;

TEST(TimerWheel, FiresAtTheScheduledTick) {
  TimerWheel wheel;
  std::vector<int> fired;
  wheel.schedule(7, 3);
  EXPECT_EQ(wheel.size(), 1u);
  for (int tick = 1; tick <= 5; ++tick) {
    wheel.advance([&](int key) { fired.push_back(key * 100 + tick); });
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 703);  // key 7, at tick 3, exactly once
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel;
  int fired = 0;
  wheel.schedule(1, 2);
  wheel.schedule(2, 2);
  wheel.cancel(1);
  for (int tick = 0; tick < 4; ++tick) {
    wheel.advance([&](int key) {
      EXPECT_EQ(key, 2);
      ++fired;
    });
  }
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, RearmMovesTheDeadline) {
  TimerWheel wheel;
  int fired_at = -1;
  wheel.schedule(5, 2);
  wheel.schedule(5, 6);  // re-arm before the first deadline: only 6 counts
  for (int tick = 1; tick <= 8; ++tick) {
    wheel.advance([&](int) { fired_at = tick; });
  }
  EXPECT_EQ(fired_at, 6);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, DelaysBeyondOneLapRebucket) {
  // 4 slots, delay 10: entry lands in bucket (10 % 4) and must survive two
  // earlier visits to that bucket before firing on the third lap.
  TimerWheel wheel(4);
  int fired_at = -1;
  wheel.schedule(9, 10);
  for (int tick = 1; tick <= 12; ++tick) {
    wheel.advance([&](int) {
      EXPECT_EQ(fired_at, -1);
      fired_at = tick;
    });
  }
  EXPECT_EQ(fired_at, 10);
}

TEST(TimerWheel, SnoozeFromCallbackReschedules) {
  TimerWheel wheel;
  std::vector<int> fire_ticks;
  wheel.schedule(3, 1);
  for (int tick = 1; tick <= 7; ++tick) {
    wheel.advance([&](int key) {
      fire_ticks.push_back(tick);
      if (fire_ticks.size() < 3) wheel.schedule(key, 2);  // snooze twice
    });
  }
  EXPECT_EQ(fire_ticks, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(wheel.size(), 0u);
}

// ---- EventLoop::set_tick ----------------------------------------------------

TEST(EventLoopTick, PeriodicTickFiresRepeatedlyOnLoopThread) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  std::atomic<int> ticks{0};
  std::thread::id tick_tid;
  loop.set_tick(10, [&] {
    tick_tid = std::this_thread::get_id();
    ticks.fetch_add(1, std::memory_order_relaxed);
  });
  std::thread runner([&] { loop.run(); });
  const std::thread::id runner_tid = runner.get_id();

  EXPECT_TRUE(eventually([&] { return ticks.load() >= 5; }));
  loop.stop();
  runner.join();
  EXPECT_EQ(tick_tid, runner_tid);
}

TEST(EventLoopTick, TickCoexistsWithDefers) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::atomic<int> ticks{0};
  loop.set_tick(5, [&] { ticks.fetch_add(1, std::memory_order_relaxed); });
  std::thread runner([&] { loop.run(); });

  std::atomic<int> deferred{0};
  for (int i = 0; i < 200; ++i) {
    loop.defer([&] { deferred.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_TRUE(
      eventually([&] { return deferred.load() == 200 && ticks.load() >= 3; }));
  loop.stop();
  runner.join();
}

}  // namespace
