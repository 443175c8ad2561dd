#include "core/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "obs/metrics.hpp"

namespace harmony::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(epoll_fd_);
    ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
  }
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

bool EventLoop::add(int fd, std::uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  callbacks_[fd] = std::make_shared<FdCallback>(std::move(cb));
  return true;
}

bool EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wakeup();
}

void EventLoop::wakeup() {
  const std::uint64_t one = 1;
  // Best-effort: EAGAIN means a wakeup is already pending.
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::defer(std::function<void()> fn) {
  Deferred item{std::move(fn), {}};
  if (obs::enabled()) item.enqueued = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(deferred_mutex_);
    deferred_.push_back(std::move(item));
  }
  wakeup();
}

void EventLoop::drain_deferred() {
  std::vector<Deferred> pending;
  {
    const std::lock_guard<std::mutex> lock(deferred_mutex_);
    pending.swap(deferred_);
  }
  if (pending.empty()) return;
  if (obs::enabled()) {
    auto& defer_wait =
        obs::MetricsRegistry::global().histogram("net.loop.defer_wait_s");
    const auto now = std::chrono::steady_clock::now();
    for (const auto& item : pending) {
      if (item.enqueued == std::chrono::steady_clock::time_point{}) continue;
      defer_wait.record(std::chrono::duration<double>(now - item.enqueued).count());
    }
  }
  for (auto& item : pending) item.fn();
}

void EventLoop::set_tick(int interval_ms, std::function<void()> fn) {
  tick_ms_ = interval_ms > 0 ? interval_ms : 0;
  tick_fn_ = tick_ms_ > 0 ? std::move(fn) : nullptr;
}

void EventLoop::run() {
  // Resolve the hot-path metric handles once; recording stays gated on
  // obs::enabled() so a disabled run costs one relaxed load per iteration.
  auto& iterations = obs::MetricsRegistry::global().counter("net.loop.iterations");
  auto& ready_depth = obs::MetricsRegistry::global().histogram("net.loop.ready");

  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  auto next_tick = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(tick_ms_ > 0 ? tick_ms_ : 0);
  while (!stop_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    if (tick_ms_ > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= next_tick) {
        if (tick_fn_) tick_fn_();
        // No catch-up bursts after a stall: the next deadline is measured
        // from now, so ticks are "at least interval apart", not "N per N ms".
        next_tick = now + std::chrono::milliseconds(tick_ms_);
      }
      timeout_ms = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        next_tick - std::chrono::steady_clock::now())
                                        .count()) +
                   1;
      if (timeout_ms < 1) timeout_ms = 1;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (obs::enabled()) {
      iterations.add(1);
      ready_depth.record(static_cast<double>(n));
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const auto r = ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      // Look the callback up per event and hold a reference across the call:
      // a handler may remove its own fd (or a later-ready one) mid-batch.
      const auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;
      const auto cb = it->second;
      (*cb)(events[i].events);
    }
    drain_deferred();
  }
  drain_deferred();
}

}  // namespace harmony::net
