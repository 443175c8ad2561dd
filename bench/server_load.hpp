#pragma once

/// \file server_load.hpp
/// Shared load generator for the tuning server's network stack, used by
/// bench/server_throughput (the full benchmark) and bench/bench_gate (a
/// gate-sized run whose pipelined/blocking evals-per-second ratio is tracked
/// against a checked-in baseline).
///
/// Two client harnesses, both against a fresh event-loop server:
///  * run_load(pipelined=true)  — all K connections multiplexed over a few
///    poll()-driven threads, each connection keeping a window of pipelined
///    REPORT+FETCH lines in flight (the steady state the server is built
///    for).
///  * run_load(pipelined=false) — one blocking client thread per connection
///    running the classic FETCH -> REPORT exchange: two round trips per
///    evaluation, one at a time.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/net.hpp"
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "obs/trace.hpp"

namespace harmony::bench {

using LoadClock = std::chrono::steady_clock;

inline double load_seconds_since(LoadClock::time_point start) {
  return std::chrono::duration<double>(LoadClock::now() - start).count();
}

/// Monotonically improving synthetic objective: the search always has a new
/// incumbent, so Nelder-Mead keeps proposing and never converges mid-run.
inline double synthetic_objective(int eval_index) {
  return 1000.0 - 1e-3 * eval_index;
}

struct LoadOptions {
  int clients = 64;
  int evals = 200;   // evaluations per client
  int window = 8;    // pipelined REPORT+FETCH lines in flight per connection
  int reactors = 2;  // server reactor threads / client mux threads

  /// Client-side head sampling: this fraction of pipelined REPORT+FETCH
  /// lines carry a wire trace token (see protocol.hpp). Needs `tracer` to
  /// produce spans; 0 sends the exact untraced byte stream.
  double trace_sample = 0.0;
  obs::SearchTracer* tracer = nullptr;  ///< server-side span sink (optional)
  long long slow_request_us = 0;        ///< ServerOptions::slow_request_us
};

/// Head-based sampling coin drawn from the trace-id generator's stream.
inline bool trace_coin(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return static_cast<double>(obs::next_trace_id() >> 11) * 0x1.0p-53 < p;
}

struct ClientStats {
  std::uint64_t evals = 0;
  bool completed = false;
  std::vector<double> latency_ms;  // one sample per protocol request
};

/// One multiplexed pipelined connection: non-blocking socket, a window of
/// REPORT+FETCH lines in flight, replies consumed in order. run_mux_driver
/// runs many of these off a single poll() loop.
struct MuxConn {
  net::Socket sock;
  ClientStats* stats = nullptr;
  int evals = 0;
  int window = 0;
  double trace_sample = 0.0;
  std::string rbuf;
  std::size_t rpos = 0;
  std::string wbuf;
  std::deque<LoadClock::time_point> inflight;
  int setup_replies = 5;  // 4x OK + the first CONFIG
  int sent = 0;
  int completed = 0;
  bool done = false;

  void start(int port) {
    sock = net::connect_loopback(port);
    if (!sock.valid() || !sock.set_nonblocking()) {
      done = true;
      return;
    }
    wbuf = "HELLO bench\nPARAM REAL x 0 10\nPARAM REAL y 0 10\nSTART ";
    wbuf += std::to_string(evals + 8);
    wbuf += "\nFETCH\n";
  }

  /// Keep the request window full (no-op until setup replies are in).
  void fill_window() {
    if (setup_replies > 0 || done) return;
    const auto now = LoadClock::now();
    while (sent < evals && static_cast<int>(inflight.size()) < window) {
      wbuf += "REPORT+FETCH ";
      wbuf += std::to_string(synthetic_objective(sent));
      if (trace_coin(trace_sample)) {
        // This request becomes a trace root: the server's "server.handle"
        // span will name our span id as its parent.
        obs::TraceContext ctx;
        ctx.trace_id = obs::next_trace_id();
        ctx.span_id = obs::next_trace_id();
        proto::append_trace(ctx, wbuf);
      }
      wbuf += '\n';
      ++sent;
      inflight.push_back(now);
    }
  }

  /// Non-blocking drain of wbuf; false on connection error.
  bool flush() {
    while (!wbuf.empty()) {
      const auto n = ::send(sock.fd(), wbuf.data(), wbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        wbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    return true;
  }

  void handle_line(std::string_view line) {
    if (line.rfind("ERR", 0) == 0) {
      done = true;
      return;
    }
    if (setup_replies > 0) {
      --setup_replies;
      return;
    }
    if (!inflight.empty()) {
      stats->latency_ms.push_back(1e3 * load_seconds_since(inflight.front()));
      inflight.pop_front();
    }
    ++completed;
    stats->evals = static_cast<std::uint64_t>(completed);
    if (line.rfind("CONFIG", 0) != 0) {  // DONE
      done = true;
      return;
    }
    if (completed >= evals) {
      stats->completed = true;
      wbuf += "BYE\n";
      done = true;
    }
  }

  /// Consume readable bytes and process complete lines; false on EOF/error.
  bool drain_input() {
    char chunk[16384];
    for (;;) {
      const auto n = ::recv(sock.fd(), chunk, sizeof(chunk), 0);
      if (n > 0) {
        rbuf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // EOF or hard error
    }
    std::size_t nl;
    while (!done && (nl = rbuf.find('\n', rpos)) != std::string::npos) {
      handle_line(std::string_view(rbuf).substr(rpos, nl - rpos));
      rpos = nl + 1;
    }
    if (rpos == rbuf.size()) {
      rbuf.clear();
      rpos = 0;
    }
    return true;
  }
};

/// Drive a set of pipelined connections from one thread with poll().
inline void run_mux_driver(int port, std::vector<MuxConn*> conns) {
  for (auto* c : conns) c->start(port);
  std::vector<pollfd> fds(conns.size());
  for (;;) {
    std::size_t live = 0;
    for (auto* c : conns) {
      if (c->done && c->wbuf.empty()) continue;
      c->fill_window();
      if (!c->flush()) {
        c->done = true;
        c->wbuf.clear();
        continue;
      }
      if (c->done && c->wbuf.empty()) continue;
      fds[live].fd = c->sock.fd();
      fds[live].events =
          static_cast<short>(POLLIN | (c->wbuf.empty() ? 0 : POLLOUT));
      fds[live].revents = 0;
      ++live;
    }
    if (live == 0) break;
    if (::poll(fds.data(), live, 5000) <= 0) break;
    std::size_t i = 0;
    for (auto* c : conns) {
      if (c->done && c->wbuf.empty()) continue;
      const auto re = fds[i++].revents;
      if ((re & (POLLERR | POLLHUP)) != 0 ||
          ((re & POLLIN) != 0 && !c->drain_input())) {
        c->done = true;
        c->wbuf.clear();
      }
      if (i >= live) break;
    }
  }
}

/// Blocking client: the classic exchange — FETCH, read, REPORT, read — two
/// round trips per evaluation, no pipelining.
inline void run_blocking_client(int port, int evals, ClientStats* out) {
  out->latency_ms.reserve(static_cast<std::size_t>(evals) + 8);
  net::Socket s = net::connect_loopback(port);
  if (!s.valid()) return;
  net::LineReader reader(s);
  std::string line;

  const auto transact = [&](const std::string& req) -> bool {
    const auto t0 = LoadClock::now();
    if (!s.send_all(req)) return false;
    if (!reader.read_line(line)) return false;
    out->latency_ms.push_back(1e3 * load_seconds_since(t0));
    return line.rfind("ERR", 0) != 0;
  };

  if (!transact("HELLO bench\n")) return;
  if (!transact("PARAM REAL x 0 10\n")) return;
  if (!transact("PARAM REAL y 0 10\n")) return;
  if (!transact("START " + std::to_string(evals + 8) + "\n")) return;
  if (!transact("FETCH\n")) return;
  for (int i = 0; i < evals; ++i) {
    if (!transact("REPORT " + std::to_string(synthetic_objective(i)) + "\n")) {
      return;
    }
    if (!transact("FETCH\n")) return;
    out->evals = static_cast<std::uint64_t>(i + 1);
    if (line.rfind("CONFIG", 0) != 0) return;
  }
  (void)s.send_all(std::string_view("BYE\n"));
  out->completed = true;
}

struct LoadResult {
  double wall_s = 0.0;
  std::uint64_t evals = 0;
  int sessions_completed = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  [[nodiscard]] double evals_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(evals) / wall_s : 0.0;
  }
  [[nodiscard]] double sessions_per_s() const {
    return wall_s > 0.0 ? sessions_completed / wall_s : 0.0;
  }
};

inline double latency_percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// One timed run: fresh server, opt.clients sessions of opt.evals
/// evaluations each, pipelined-multiplexed or blocking-thread-per-connection
/// clients.
inline LoadResult run_load(bool pipelined, const LoadOptions& opt) {
  ServerOptions sopts;
  sopts.reactor_threads = opt.reactors;
  sopts.tracer = opt.tracer;
  sopts.slow_request_us = opt.slow_request_us;
  TuningServer server(sopts);
  LoadResult result;
  if (!server.start()) {
    std::fprintf(stderr, "error: server failed to start\n");
    return result;
  }

  std::vector<ClientStats> stats(static_cast<std::size_t>(opt.clients));
  for (auto& st : stats) {
    st.latency_ms.reserve(static_cast<std::size_t>(opt.evals) + 8);
  }
  std::vector<std::thread> threads;
  std::vector<MuxConn> conns;
  const auto t0 = LoadClock::now();
  if (pipelined) {
    // All connections multiplexed over a few poll() threads — the client
    // counterpart of the server's reactor shards.
    conns.resize(stats.size());
    const int drivers = std::clamp(opt.reactors, 1, opt.clients);
    std::vector<std::vector<MuxConn*>> assigned(
        static_cast<std::size_t>(drivers));
    for (std::size_t i = 0; i < conns.size(); ++i) {
      conns[i].stats = &stats[i];
      conns[i].evals = opt.evals;
      conns[i].window = opt.window;
      conns[i].trace_sample = opt.trace_sample;
      assigned[i % assigned.size()].push_back(&conns[i]);
    }
    threads.reserve(assigned.size());
    for (auto& group : assigned) {
      threads.emplace_back(run_mux_driver, server.port(), std::move(group));
    }
  } else {
    threads.reserve(stats.size());
    for (auto& st : stats) {
      threads.emplace_back(run_blocking_client, server.port(), opt.evals, &st);
    }
  }
  for (auto& t : threads) t.join();
  result.wall_s = load_seconds_since(t0);
  server.stop();

  std::vector<double> all_lat;
  for (const auto& st : stats) {
    result.evals += st.evals;
    result.sessions_completed += st.completed ? 1 : 0;
    all_lat.insert(all_lat.end(), st.latency_ms.begin(), st.latency_ms.end());
  }
  std::sort(all_lat.begin(), all_lat.end());
  result.p50_ms = latency_percentile(all_lat, 0.50);
  result.p95_ms = latency_percentile(all_lat, 0.95);
  result.p99_ms = latency_percentile(all_lat, 0.99);
  return result;
}

// ---- high-session-count storm mode -----------------------------------------
//
// The storm harness drives the server the way a saturated multi-tenant
// deployment does: thousands of concurrently live sessions, each running a
// short search over the batched BATCH framing, sessions churning (a finished
// session is immediately replaced until a lifetime total is reached), a mix
// of tenants, and a deliberate fraction of slow readers that exercise the
// server's pending-output backpressure instead of its happy path.

/// Best-effort fd headroom for thousand-session storms: raise the soft
/// RLIMIT_NOFILE toward `want` (bounded by the hard limit — CI runners
/// default to a 1024 soft limit) and return the resulting soft limit.
inline std::size_t ensure_fd_capacity(std::size_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur == RLIM_INFINITY) return want;
  if (static_cast<std::size_t>(rl.rlim_cur) >= want) {
    return static_cast<std::size_t>(rl.rlim_cur);
  }
  rlimit raised = rl;
  raised.rlim_cur = rl.rlim_max == RLIM_INFINITY
                        ? static_cast<rlim_t>(want)
                        : std::min(static_cast<rlim_t>(want), rl.rlim_max);
  if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  if (rl.rlim_cur == RLIM_INFINITY) return want;
  return static_cast<std::size_t>(rl.rlim_cur);
}

struct StormOptions {
  int sessions = 1024;      ///< concurrently live sessions (fd-limit clamped)
  int total_sessions = 0;   ///< lifetime sessions incl. churn; 0 = sessions
  int evals = 8;            ///< evaluations per session (short searches)
  int batch = 4;            ///< report/fetch pairs per BATCH line
  int window = 2;           ///< BATCH lines in flight per connection
  int reactors = 2;         ///< server reactor shards
  int drivers = 2;          ///< client poll() threads
  int tenants = 4;          ///< sessions cycle TENANT t0..t{n-1}; 0 = none
  int slow_every = 0;       ///< every Nth session reads slowly; 0 = none
  std::size_t slow_read_bytes = 256;  ///< slow readers' per-cycle read budget
  std::size_t per_conn_out_cap = 64 * 1024;  ///< max_pending_out_bytes
  long long idle_timeout_ms = 0;             ///< server idle reaping; 0 = off
  int tenant_quota = 0;                      ///< server per-tenant quota
};

/// One storm slot: a sequence of `sessions_left` short sessions run
/// back-to-back on fresh connections, each driving BATCH lines with a small
/// in-flight window. Latency samples are per BATCH line (send to last of its
/// reply lines).
struct StormConn {
  int port = 0;
  ClientStats* stats = nullptr;
  int evals = 8;
  int batch = 4;
  int window = 2;
  int sessions_left = 1;
  int sessions_done = 0;
  std::string tenant;  ///< "" = no TENANT line
  bool slow = false;
  std::size_t slow_read_bytes = 256;

  net::Socket sock;
  std::string rbuf;
  std::size_t rpos = 0;
  std::string wbuf;
  struct Flight {
    int lines;
    LoadClock::time_point t0;
  };
  std::deque<Flight> inflight;
  int setup_replies = 0;
  int sent = 0;  ///< objective values written
  int got = 0;   ///< reply lines (CONFIG/DONE) consumed
  bool done = false;

  void begin() {
    rbuf.clear();
    rpos = 0;
    wbuf.clear();
    inflight.clear();
    sent = got = 0;
    done = false;
    sock = net::connect_loopback(port);
    if (!sock.valid() || !sock.set_nonblocking()) {
      done = true;
      sessions_left = 0;
      return;
    }
    wbuf = "HELLO storm\n";
    setup_replies = 5;  // HELLO, 2x PARAM, START, first CONFIG
    if (!tenant.empty()) {
      wbuf += "TENANT ";
      wbuf += tenant;
      wbuf += '\n';
      ++setup_replies;
    }
    wbuf += "PARAM REAL x 0 10\nPARAM REAL y 0 10\nSTART ";
    wbuf += std::to_string(evals + 8);
    wbuf += "\nFETCH\n";
  }

  void fill_window() {
    if (setup_replies > 0 || done) return;
    const auto now = LoadClock::now();
    while (sent < evals && static_cast<int>(inflight.size()) < window) {
      const int k = std::min(batch, evals - sent);
      wbuf += "BATCH ";
      wbuf += std::to_string(k);
      for (int i = 0; i < k; ++i) {
        wbuf += ' ';
        wbuf += std::to_string(synthetic_objective(sent + i));
      }
      wbuf += '\n';
      sent += k;
      inflight.push_back({k, now});
    }
  }

  bool flush() {
    while (!wbuf.empty()) {
      const auto n = ::send(sock.fd(), wbuf.data(), wbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        wbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    return true;
  }

  void handle_line(std::string_view line) {
    if (line.rfind("ERR", 0) == 0) {
      done = true;
      sessions_left = 0;  // a protocol error poisons the slot, not the run
      return;
    }
    if (setup_replies > 0) {
      --setup_replies;
      return;
    }
    ++got;
    if (line.rfind("CONFIG", 0) == 0) ++stats->evals;
    if (!inflight.empty() && --inflight.front().lines == 0) {
      stats->latency_ms.push_back(1e3 * load_seconds_since(inflight.front().t0));
      inflight.pop_front();
    }
    if (got >= evals && sent >= evals) {
      ++sessions_done;
      stats->completed = true;
      wbuf += "BYE\n";
      done = true;
    }
  }

  bool drain_input() {
    char chunk[16384];
    std::size_t budget =
        slow ? slow_read_bytes : std::numeric_limits<std::size_t>::max();
    while (budget > 0) {
      const std::size_t want = std::min(budget, sizeof(chunk));
      const auto n = ::recv(sock.fd(), chunk, want, 0);
      if (n > 0) {
        rbuf.append(chunk, static_cast<std::size_t>(n));
        budget -= static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // EOF or hard error
    }
    std::size_t nl;
    while (!done && (nl = rbuf.find('\n', rpos)) != std::string::npos) {
      handle_line(std::string_view(rbuf).substr(rpos, nl - rpos));
      rpos = nl + 1;
    }
    if (rpos == rbuf.size()) {
      rbuf.clear();
      rpos = 0;
    }
    return true;
  }
};

/// Drive a set of storm slots from one thread with poll(), respawning each
/// slot's connection until its session quota is spent.
inline void run_storm_driver(int port, std::vector<StormConn*> conns) {
  for (auto* c : conns) {
    c->port = port;
    if (c->sessions_left > 0) {
      c->begin();
    } else {
      c->done = true;
    }
  }
  std::vector<pollfd> fds(conns.size());
  std::vector<StormConn*> polled;
  polled.reserve(conns.size());
  for (;;) {
    polled.clear();
    for (auto* c : conns) {
      if (c->done) {
        if (!c->wbuf.empty()) {  // best-effort BYE
          (void)c->flush();
          c->wbuf.clear();
        }
        if (c->sessions_left > 0) --c->sessions_left;
        if (c->sessions_left > 0) {
          c->begin();
          if (c->done) continue;  // reconnect failed; slot poisoned
        } else {
          continue;
        }
      }
      c->fill_window();
      if (!c->flush()) {
        c->done = true;
        c->wbuf.clear();
        continue;
      }
      fds[polled.size()].fd = c->sock.fd();
      fds[polled.size()].events =
          static_cast<short>(POLLIN | (c->wbuf.empty() ? 0 : POLLOUT));
      fds[polled.size()].revents = 0;
      polled.push_back(c);
    }
    if (polled.empty()) break;
    if (::poll(fds.data(), polled.size(), 5000) <= 0) break;
    for (std::size_t i = 0; i < polled.size(); ++i) {
      StormConn* c = polled[i];
      const auto re = fds[i].revents;
      if ((re & (POLLERR | POLLHUP)) != 0 ||
          ((re & POLLIN) != 0 && !c->drain_input())) {
        c->done = true;
        c->wbuf.clear();
        c->sessions_left = 0;
      }
    }
  }
}

/// One timed storm run: a fresh event-mode server, `sessions` concurrent
/// short sessions churning up to `total_sessions`, BATCH framing, mixed
/// tenants, optional slow readers. LoadResult::sessions_completed counts
/// finished sessions (incl. churn); latency quantiles are per BATCH line.
inline LoadResult run_storm(const StormOptions& opt) {
  StormOptions o = opt;
  if (o.total_sessions <= 0) o.total_sessions = o.sessions;
  // Leave headroom for the server side of every connection plus stdio/epoll.
  const std::size_t have = ensure_fd_capacity(
      2 * static_cast<std::size_t>(o.sessions) + 512);
  const int fd_cap =
      static_cast<int>(have > 512 ? (have - 512) / 2 : 64);
  if (fd_cap < o.sessions) {
    std::fprintf(stderr, "note: fd limit clamps storm sessions %d -> %d\n",
                 o.sessions, fd_cap);
    o.sessions = std::max(1, fd_cap);
  }
  if (o.total_sessions < o.sessions) o.total_sessions = o.sessions;

  ServerOptions sopts;
  sopts.reactor_threads = o.reactors;
  sopts.max_pending_out_bytes = o.per_conn_out_cap;
  sopts.idle_timeout_ms = o.idle_timeout_ms;
  sopts.tenant_quota = o.tenant_quota;
  TuningServer server(sopts);
  LoadResult result;
  if (!server.start()) {
    std::fprintf(stderr, "error: server failed to start\n");
    return result;
  }

  const auto slots = static_cast<std::size_t>(o.sessions);
  std::vector<ClientStats> stats(slots);
  std::vector<StormConn> conns(slots);
  const int base = o.total_sessions / o.sessions;
  const int extra = o.total_sessions % o.sessions;
  for (std::size_t i = 0; i < slots; ++i) {
    conns[i].stats = &stats[i];
    conns[i].evals = o.evals;
    conns[i].batch = std::max(1, o.batch);
    conns[i].window = std::max(1, o.window);
    conns[i].sessions_left = base + (static_cast<int>(i) < extra ? 1 : 0);
    if (o.tenants > 0) {
      std::string tenant = "t";
      tenant += std::to_string(i % static_cast<std::size_t>(o.tenants));
      conns[i].tenant = std::move(tenant);
    }
    conns[i].slow = o.slow_every > 0 && (i + 1) % static_cast<std::size_t>(o.slow_every) == 0;
    conns[i].slow_read_bytes = o.slow_read_bytes;
  }
  const int drivers = std::clamp(o.drivers, 1, o.sessions);
  std::vector<std::vector<StormConn*>> assigned(static_cast<std::size_t>(drivers));
  for (std::size_t i = 0; i < slots; ++i) {
    assigned[i % assigned.size()].push_back(&conns[i]);
  }
  std::vector<std::thread> threads;
  threads.reserve(assigned.size());
  const auto t0 = LoadClock::now();
  for (auto& group : assigned) {
    threads.emplace_back(run_storm_driver, server.port(), std::move(group));
  }
  for (auto& t : threads) t.join();
  result.wall_s = load_seconds_since(t0);
  server.stop();

  std::vector<double> all_lat;
  for (std::size_t i = 0; i < slots; ++i) {
    result.evals += stats[i].evals;
    result.sessions_completed += conns[i].sessions_done;
    all_lat.insert(all_lat.end(), stats[i].latency_ms.begin(),
                   stats[i].latency_ms.end());
  }
  std::sort(all_lat.begin(), all_lat.end());
  result.p50_ms = latency_percentile(all_lat, 0.50);
  result.p95_ms = latency_percentile(all_lat, 0.95);
  result.p99_ms = latency_percentile(all_lat, 0.99);
  return result;
}

/// Best (highest evals/s) of `reps` runs of `body` — scheduling noise on a
/// loaded host only ever subtracts throughput, so the max is the estimate.
template <typename Body>
LoadResult best_of(int reps, const Body& body) {
  LoadResult best;
  for (int i = 0; i < reps; ++i) {
    LoadResult r = body();
    if (i == 0 || r.evals_per_s() > best.evals_per_s()) best = r;
  }
  return best;
}

}  // namespace harmony::bench
