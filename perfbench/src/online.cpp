// server_online: the event-loop tuning server (2 reactors) driven by one
// generator thread over at most four client connections.
//
//  * Tuning schedule (tune_s, evals_per_s, improvement_pct, evals_to_best,
//    rt_*): two connections run seeded closed-loop sessions back to back —
//    HELLO, two REAL PARAMs, START, then CONFIG -> REPORT+FETCH rounds on a
//    synthetic objective until DONE, then BYE.
//  * Open loop (server.* per-layer metrics): two steady sessions send
//    pipelined REPORT+FETCH on a seeded Poisson schedule at fixed offered
//    rates; latency is timed from each request's due time, so a late
//    generator can only make latency worse. A third connection churns short
//    sessions at a fixed rate and a fourth polls STATUS at a fixed rate.

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/net.hpp"
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using harmony::proto::MessageView;

/// (send, reply) times of trace-sampled requests by trace id.
using SampledTimes =
    std::unordered_map<std::uint64_t, std::pair<Clock::time_point, Clock::time_point>>;

constexpr int kTuneSessions = 400;    ///< closed-loop sessions per repetition
constexpr int kTuneBudget = 60;       ///< START budget of a tuning session
constexpr int kChurnEvals = 3;        ///< evaluations of one churned session
constexpr int kTraceEvery = 8;        ///< traced runs: 1 in N requests sampled
constexpr double kWarmupS = 0.05;     ///< excluded head of every open-loop step
constexpr double kSubWindowS = 0.25;  ///< open-loop quantiles: median of these
constexpr double kLateLimitUs = 200;  ///< lateness p99 that voids a step
constexpr double kSpinUs = 2000;      ///< the generator spins this close to an event
constexpr int kSetupBurst = 4;        ///< set-ups before every tuning repetition

// Open-loop load shape: fixed absolute numbers, so every build is compared
// at the same offered load. The rates sit at about a tenth, a half and
// four-fifths of the knee measured on the development machine (~175k
// REPORT+FETCH/s); the ladder climbs in 10k/s steps across the knee.
constexpr double kRates[] = {18000, 88000, 140000};  ///< lo, mid, hi (1/s)
constexpr double kLadder[] = {120000, 130000, 140000, 150000, 160000,
                              170000, 180000, 190000, 200000};  ///< 1/s
constexpr double kSloP99Ms = 0.5;    ///< p99 limit of a ladder step
constexpr double kChurnPerS = 40;    ///< churned sessions per second
constexpr double kStatusPerS = 20;   ///< STATUS polls per second

int g_open = 0;                 ///< client connections open right now
std::uint64_t g_connects = 0;   ///< connections ever opened by this process
std::uint64_t g_confirmed = 0;  ///< ... of which the server has answered

/// Non-blocking line-framed client connection.
class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { close(); }

  bool open(int port, Report& report) {
    close();
    sock_ = harmony::net::connect_loopback(port);
    if (!sock_.valid() || !sock_.set_nonblocking()) {
      report.check(false, "connect to the tuning server failed");
      sock_.close();
      return false;
    }
    ++g_open;
    ++g_connects;
    ++generation_;
    report.check(g_open <= kMaxConnections, "client connection budget exceeded");
    confirmed_ = false;
    eof_ = false;
    rbuf_.clear();
    rpos_ = 0;
    wbuf_.clear();
    wpos_ = 0;
    return true;
  }
  void close() {
    if (sock_.valid()) {
      sock_.close();
      --g_open;
    }
  }
  [[nodiscard]] bool is_open() const { return sock_.valid(); }
  [[nodiscard]] int fd() const { return sock_.fd(); }
  [[nodiscard]] bool wants_write() const { return wpos_ < wbuf_.size(); }
  std::string& out() { return wbuf_; }

  /// Write what the socket takes; false on a hard error.
  bool flush() {
    while (wpos_ < wbuf_.size()) {
      const ssize_t n =
          ::send(fd(), wbuf_.data() + wpos_, wbuf_.size() - wpos_, MSG_NOSIGNAL);
      if (n > 0) {
        wpos_ += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
    wbuf_.clear();
    wpos_ = 0;
    return true;
  }

  /// Read what is available and hand every complete line to `on_line`.
  /// False once the peer closed or the socket failed.
  template <typename F>
  bool pump(F&& on_line) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd(), buf, sizeof(buf), 0);
      if (n > 0) {
        rbuf_.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        eof_ = true;
        break;
      }
    }
    const std::uint64_t generation = generation_;
    for (;;) {
      const std::size_t nl = rbuf_.find('\n', rpos_);
      if (nl == std::string::npos) break;
      if (!confirmed_) {
        confirmed_ = true;
        ++g_confirmed;
      }
      const std::size_t line_start = rpos_;
      rpos_ = nl + 1;
      on_line(std::string_view(rbuf_).substr(line_start, nl - line_start));
      // The handler may close this connection and open the next one.
      if (generation_ != generation || !is_open()) return true;
    }
    if (rpos_ == rbuf_.size()) {
      rbuf_.clear();
      rpos_ = 0;
    } else if (rpos_ > (1u << 16)) {
      rbuf_.erase(0, rpos_);
      rpos_ = 0;
    }
    return !eof_;
  }

 private:
  harmony::net::Socket sock_;
  std::string rbuf_;
  std::size_t rpos_ = 0;
  std::string wbuf_;
  std::size_t wpos_ = 0;
  bool confirmed_ = false;
  bool eof_ = false;
  std::uint64_t generation_ = 0;  ///< bumped by every open()
};

/// Session setup on the wire: the whole handshake rides in one write.
void append_setup(std::string& out, const char* app, int budget) {
  out += "HELLO ";
  out += app;
  out += "\nPARAM REAL x 0 10\nPARAM REAL y 0 10\nSTART ";
  out += std::to_string(budget);
  out += "\nFETCH\n";
}

/// Parse "CONFIG x y"; nullopt unless both values parse and lie in [0, 10].
std::optional<std::pair<double, double>> parse_config(std::string_view line,
                                                      MessageView& msg) {
  if (!harmony::proto::parse_line(line, msg) || msg.verb != "CONFIG" ||
      msg.args.size() != 2) {
    return std::nullopt;
  }
  const auto x = harmony::proto::parse_f64(msg.args[0]);
  const auto y = harmony::proto::parse_f64(msg.args[1]);
  if (!x || !y || *x < 0 || *x > 10 || *y < 0 || *y > 10) return std::nullopt;
  return std::make_pair(*x, *y);
}

void append_value(std::string& out, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_trace_token(std::string& out, std::uint64_t trace_id) {
  harmony::obs::TraceContext ctx;
  ctx.trace_id = trace_id;
  ctx.span_id = harmony::obs::next_trace_id();
  harmony::proto::append_trace(ctx, out);
}

/// Wait for socket events (or `timeout_us`) on the given clients.
void wait_events(const std::vector<Client*>& clients, double timeout_us) {
  pollfd fds[kMaxConnections];
  nfds_t n = 0;
  for (Client* c : clients) {
    if (!c->is_open() || n == kMaxConnections) continue;
    fds[n].fd = c->fd();
    fds[n].events = static_cast<short>(POLLIN | (c->wants_write() ? POLLOUT : 0));
    fds[n].revents = 0;
    ++n;
  }
  timespec ts{};
  const double t = std::max(0.0, timeout_us);
  ts.tv_sec = static_cast<time_t>(t / 1e6);
  ts.tv_nsec = static_cast<long>(std::fmod(t, 1e6) * 1e3);
  (void)::ppoll(fds, n, &ts, nullptr);
}

// ---------------------------------------------------------------------------
// Tuning schedule: closed-loop sessions.

struct SessionOutcome {
  double f_first = 0;
  double f_best = 0;
  int evals = 0;
  int evals_to_best = 0;
  bool operator==(const SessionOutcome&) const = default;
};

/// The synthetic objective of one session: a paraboloid with a seeded
/// minimum inside the [0, 10]^2 box.
struct Objective {
  double a = 5, b = 5;
  [[nodiscard]] double operator()(double x, double y) const {
    return 1.0 + (x - a) * (x - a) + (y - b) * (y - b);
  }
};

/// One connection running its share of the schedule's sessions in turn.
class TuneRunner {
 public:
  TuneRunner(int port, std::vector<std::size_t> sessions,
             const std::vector<Objective>& objectives,
             std::vector<SessionOutcome>& outcomes, bool traced, Report& report)
      : port_(port),
        sessions_(std::move(sessions)),
        objectives_(&objectives),
        outcomes_(&outcomes),
        traced_(traced),
        report_(&report) {}

  [[nodiscard]] bool done() const { return next_ >= sessions_.size() && !c_.is_open(); }
  Client& client() { return c_; }
  /// Client-timed session open (connect to first CONFIG) and close (BYE).
  double open_close_s = 0;
  /// Traced runs: every request is sampled and timed here.
  SampledTimes* sampled = nullptr;
  /// Untraced runs: REPORT+FETCH round trips (ms).
  std::vector<double>* rtt_ms = nullptr;

  void start_next() {
    if (next_ >= sessions_.size()) return;
    cur_ = sessions_[next_++];
    out_ = {};
    expect_.clear();
    t_open_ = Clock::now();
    if (!c_.open(port_, *report_)) {
      next_ = sessions_.size();
      return;
    }
    append_setup(c_.out(), "tune", kTuneBudget);
    for (int i = 0; i < 4; ++i) expect_.push_back('O');
    expect_.push_back('C');
  }

  /// Drain replies; false on a protocol failure (already counted).
  bool step() {
    if (!c_.is_open()) return true;
    bool ok = true;
    const bool alive = c_.pump([&](std::string_view line) {
      if (ok) ok = on_line(line);
    });
    if (ok && !alive && c_.is_open()) {
      report_->check(false, "tuning session dropped by the server");
      ok = false;
    }
    if (ok && c_.is_open() && !c_.flush()) {
      report_->check(false, "tuning session write failed");
      ok = false;
    }
    if (!ok) {
      c_.close();
      next_ = sessions_.size();
    }
    return ok;
  }

 private:
  bool on_line(std::string_view line) {
    if (expect_.empty()) {
      report_->check(false, "unexpected reply on a tuning session");
      return false;
    }
    const char want = expect_.front();
    expect_.pop_front();
    if (want == 'O') {
      const bool ok = line.substr(0, 2) == "OK";
      report_->check(ok, "tuning session setup refused: " + std::string(line));
      return ok;
    }
    if (want == 'B') {
      const bool ok = line == "OK bye";
      report_->check(ok, "tuning session did not end cleanly");
      open_close_s += seconds_since(t_bye_);
      c_.close();
      (*outcomes_)[cur_] = out_;
      start_next();
      return ok;
    }
    // want == 'C': CONFIG (or DONE once the budget is spent).
    const auto now = Clock::now();
    if (out_.evals > 0 && rtt_ms != nullptr) {
      rtt_ms->push_back(1e-3 * us_between(sent_at_, now));
    }
    if (pending_trace_ != 0) {
      (*sampled)[pending_trace_].second = now;
      pending_trace_ = 0;
    }
    if (line == "DONE") {
      t_bye_ = now;
      c_.out() += "BYE\n";
      expect_.push_back('B');
      return true;
    }
    const auto xy = parse_config(line, msg_);
    report_->check(xy.has_value(), "tuning session CONFIG malformed or out of range");
    if (!xy) return false;
    const double f = (*objectives_)[cur_](xy->first, xy->second);
    if (out_.evals == 0) {
      out_.f_first = f;
      out_.f_best = f;
      open_close_s += seconds_since(t_open_);
    }
    ++out_.evals;
    if (f < out_.f_best) {
      out_.f_best = f;
      out_.evals_to_best = out_.evals;
    }
    std::string& w = c_.out();
    w += "REPORT+FETCH ";
    append_value(w, f);
    sent_at_ = Clock::now();
    if (traced_ && sampled != nullptr) {
      pending_trace_ = harmony::obs::next_trace_id();
      append_trace_token(w, pending_trace_);
      (*sampled)[pending_trace_] = {sent_at_, sent_at_};
    }
    w += '\n';
    expect_.push_back('C');
    return true;
  }

  int port_;
  std::vector<std::size_t> sessions_;
  const std::vector<Objective>* objectives_;
  std::vector<SessionOutcome>* outcomes_;
  bool traced_;
  Report* report_;
  Client c_;
  std::size_t next_ = 0;
  std::size_t cur_ = 0;
  SessionOutcome out_;
  std::deque<char> expect_;
  MessageView msg_;
  Clock::time_point t_open_{};
  Clock::time_point t_bye_{};
  Clock::time_point sent_at_{};  ///< when the outstanding REPORT+FETCH was queued
  std::uint64_t pending_trace_ = 0;
};

struct TuneRep {
  std::vector<SessionOutcome> outcomes;
  std::vector<double> rtt_ms;  ///< REPORT+FETCH round trips (untraced only)
  double open_close_s = 0;
  bool ok = true;
};

TuneRep run_tune_rep(int port, const std::vector<Objective>& objectives, bool traced,
                     Report& report, SampledTimes* sampled) {
  TuneRep rep;
  rep.outcomes.resize(objectives.size());
  std::vector<std::size_t> s0, s1;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    (i % 2 == 0 ? s0 : s1).push_back(i);
  }
  TuneRunner r0(port, s0, objectives, rep.outcomes, traced, report);
  TuneRunner r1(port, s1, objectives, rep.outcomes, traced, report);
  for (TuneRunner* r : {&r0, &r1}) {
    r->sampled = sampled;
    if (!traced) r->rtt_ms = &rep.rtt_ms;
    r->start_next();
  }
  const auto t0 = Clock::now();
  while (!r0.done() || !r1.done()) {
    for (TuneRunner* r : {&r0, &r1}) {
      if (!r->step()) rep.ok = false;
    }
    if (r0.done() && r1.done()) break;
    wait_events({&r0.client(), &r1.client()}, 1e6);
    if (seconds_since(t0) > 30) {
      report.check(false, "tuning schedule repetition took over 30 s");
      rep.ok = false;
      break;
    }
  }
  rep.open_close_s = r0.open_close_s + r1.open_close_s;
  return rep;
}

// ---------------------------------------------------------------------------
// Open loop: steady pipelined sessions + churn + STATUS poller.

/// One open-loop step. Its window is cut into sub-windows of kSubWindowS;
/// each quantile is the median over the sub-windows, so one stall of the
/// host (a preempted reactor, a page-fault storm) moves one sub-window and
/// not the step's figure.
struct StepResult {
  double rate = 0;
  std::vector<std::vector<double>> lat_ms;  ///< per sub-window, from due time
  std::vector<double> late_us;              ///< send time - due time
  std::uint64_t sent = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t errors = 0;
  std::size_t backlog_at_end = 0;
  [[nodiscard]] double p(double q) const {
    std::vector<double> per_window;
    for (const auto& w : lat_ms) {
      if (!w.empty()) per_window.push_back(quantile(w, q));
    }
    return median(per_window);
  }
  [[nodiscard]] bool generator_ok() const {
    return quantile(late_us, 0.99) <= kLateLimitUs;
  }
};

Clock::duration to_dur(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Everything the open-loop phase keeps between steps.
class OpenLoop {
 public:
  OpenLoop(int port, const RunOptions& o, Report& report,
           harmony::obs::SearchTracer* tracer)
      : port_(port), report_(&report), tracer_(tracer), rng_(o.seed, 0x0a11) {}

  /// Connect the STATUS poller and the two steady sessions.
  bool open() {
    if (!status_.open(port_, *report_)) return false;
    return open_steady();
  }

  /// (Re)start both steady sessions. Every step gets fresh sessions: a
  /// session's history grows with each evaluation, so a session kept for the
  /// whole run would make later steps measure a bigger session than earlier
  /// ones.
  bool open_steady() {
    for (auto& s : steady_) {
      if (!s.c.open(port_, *report_)) return false;
      s.expect.clear();
      s.reported = 0;
      append_setup(s.c.out(), "steady", 1 << 30);
      for (int i = 0; i < 4; ++i) s.expect.push_back({'O', {}, -1, 0});
      s.expect.push_back({'C', {}, -1, 0});
    }
    // Drain the handshakes.
    const auto t0 = Clock::now();
    while (!steady_[0].expect.empty() || !steady_[1].expect.empty()) {
      service(nullptr);
      wait_events(clients(), 1000);
      if (seconds_since(t0) > 5) {
        report_->check(false, "steady sessions did not start");
        return false;
      }
    }
    return true;
  }

  /// One open-loop step at `rate` for `seconds`. Returns its measurements.
  StepResult run_step(double rate, double seconds) {
    StepResult st;
    if (!open_steady()) {
      broken_ = true;
      return st;
    }
    st.rate = rate;
    const double measured_s = seconds - kWarmupS;
    st.lat_ms.resize(
        static_cast<std::size_t>(std::max(1.0, std::round(measured_s / kSubWindowS))));
    const auto windows = static_cast<double>(st.lat_ms.size());
    const auto t_start = Clock::now();
    const auto t_end = t_start + to_dur(seconds);
    const auto t_warm = t_start + to_dur(kWarmupS);
    auto next_due = t_start + to_dur(exp_gap(rate));
    auto next_churn = t_start + to_dur(exp_gap(kChurnPerS));
    auto next_status = t_start + to_dur(1.0 / kStatusPerS);
    std::uint64_t k = 0;
    while (true) {
      const auto now = Clock::now();
      // Arrivals due by now go out in one write per connection.
      while (next_due <= now && next_due < t_end) {
        Steady& s = steady_[k % 2];
        std::string& w = s.c.out();
        const std::size_t start = w.size();
        w += "REPORT+FETCH ";
        append_value(w, 1000.0 - 1e-3 * static_cast<double>(s.reported++));
        std::uint64_t tid = 0;
        if (tracer_ != nullptr && k % kTraceEvery == 0) {
          tid = harmony::obs::next_trace_id();
          append_trace_token(w, tid);
        }
        if (sent_lines.size() < kKeepLines) sent_lines.emplace_back(w.substr(start));
        w += '\n';
        const double since_warm = 1e-6 * us_between(t_warm, next_due);
        const int window =
            since_warm < 0
                ? -1
                : std::min(static_cast<int>(windows) - 1,
                           static_cast<int>(since_warm / measured_s * windows));
        s.expect.push_back({'C', next_due, window, tid, now});
        st.late_us.push_back(us_between(next_due, now));
        ++st.sent;
        ++k;
        next_due += to_dur(exp_gap(rate));
      }
      if (next_churn <= now && now < t_end) {
        if (!churn_.c.is_open()) start_churn(next_churn);
        next_churn += to_dur(exp_gap(kChurnPerS));
      }
      if (next_status <= now && now < t_end) {
        status_.out() += "STATUS\n";
        status_expect_.push_back({now, g_confirmed});
        next_status += to_dur(1.0 / kStatusPerS);
      }
      service(&st);
      if (now >= t_end) break;
      // Sleep only when the next event is far off: a wakeup can overshoot by
      // tens of microseconds, which would show as generator lateness.
      const auto next = std::min({next_due, next_churn, next_status, t_end});
      const double wait_us = us_between(Clock::now(), next);
      if (wait_us > kSpinUs) wait_events(clients(), wait_us - kSpinUs);
    }
    st.backlog_at_end = steady_[0].expect.size() + steady_[1].expect.size();
    // Drain: every request sent in the step must be answered.
    const auto t_drain = Clock::now();
    while (outstanding() > 0 && seconds_since(t_drain) < 2.0) {
      service(&st);
      wait_events(clients(), 500);
    }
    st.unanswered = outstanding();
    // A stuck request would poison the later steps.
    if (st.unanswered > 0) broken_ = true;
    return st;
  }

  [[nodiscard]] bool broken() const { return broken_; }
  std::vector<double> open_ms;    ///< churned sessions: due time to first CONFIG
  std::vector<double> status_us;  ///< STATUS round trips
  std::uint64_t churned = 0;
  std::uint64_t status_polls = 0;
  SampledTimes sampled;  ///< traced runs: sampled steady requests
  std::vector<std::string> sent_lines, received_lines;

 private:
  static constexpr std::size_t kKeepLines = 20000;

  struct Pending {
    char kind;                ///< 'O' OK, 'C' CONFIG
    Clock::time_point due;    ///< open-loop due time (steady requests)
    int window;               ///< sub-window of the step, -1 during warmup
    std::uint64_t trace_id;   ///< non-zero for sampled requests
    Clock::time_point sent{};
  };
  struct Steady {
    Client c;
    std::deque<Pending> expect;
    std::uint64_t reported = 0;
  };
  struct Churn {
    Client c;
    std::deque<char> expect;
    Clock::time_point due{};
    int evals = 0;
    Objective f;
  };
  struct StatusPoll {
    Clock::time_point sent;
    std::uint64_t confirmed;  ///< connections the server had answered by then
  };

  double exp_gap(double rate) { return -std::log(1.0 - rng_.uniform()) / rate; }

  std::vector<Client*> clients() {
    return {&steady_[0].c, &steady_[1].c, &churn_.c, &status_};
  }

  [[nodiscard]] std::size_t outstanding() const {
    return steady_[0].expect.size() + steady_[1].expect.size() + status_expect_.size() +
           (churn_.c.is_open() ? 1 : 0);
  }

  void start_churn(Clock::time_point due) {
    churn_.due = due;
    churn_.evals = 0;
    churn_.f = {1 + 8 * rng_.uniform(), 1 + 8 * rng_.uniform()};
    churn_.expect.clear();
    if (!churn_.c.open(port_, *report_)) return;
    append_setup(churn_.c.out(), "churn", kChurnEvals);
    for (int i = 0; i < 4; ++i) churn_.expect.push_back('O');
    churn_.expect.push_back('C');
  }

  void fail(StepResult* st, const std::string& what) {
    report_->check(false, what);
    if (st != nullptr) ++st->errors;
  }

  /// Read replies on every connection, then flush what is queued.
  void service(StepResult* st) {
    for (auto& s : steady_) {
      const bool alive =
          s.c.pump([&](std::string_view line) { on_steady(s, line, st); });
      if (!alive) fail(st, "steady session dropped by the server");
    }
    if (churn_.c.is_open()) {
      bool ok = true;
      const bool alive = churn_.c.pump([&](std::string_view line) {
        if (ok) ok = on_churn(line, st);
      });
      if (!ok || (!alive && churn_.c.is_open())) {
        if (ok) fail(st, "churned session dropped by the server");
        churn_.c.close();
      }
    }
    const bool alive =
        status_.pump([&](std::string_view line) { on_status(line, st); });
    if (!alive) fail(st, "STATUS connection dropped by the server");
    for (Client* c : clients()) {
      if (c->is_open() && !c->flush()) fail(st, "client write failed");
    }
  }

  void on_steady(Steady& s, std::string_view line, StepResult* st) {
    const auto now = Clock::now();
    if (s.expect.empty()) {
      fail(st, "reply with no outstanding request on a steady session");
      return;
    }
    const Pending p = s.expect.front();
    s.expect.pop_front();
    if (p.kind == 'O') {
      if (line.substr(0, 2) != "OK") fail(st, "steady session setup refused");
      return;
    }
    if (!parse_config(line, msg_)) {
      fail(st, "steady reply out of order, malformed or out of range: " +
                   std::string(line));
      return;
    }
    if (received_lines.size() < kKeepLines) received_lines.emplace_back(line);
    if (st == nullptr || p.window < 0) return;  // handshake FETCH or warmup
    const auto window = static_cast<std::size_t>(p.window);
    st->lat_ms[window].push_back(1e-3 * us_between(p.due, now));
    if (p.trace_id != 0) sampled[p.trace_id] = {p.sent, now};
  }

  bool on_churn(std::string_view line, StepResult* st) {
    if (churn_.expect.empty()) {
      fail(st, "reply with no outstanding request on a churned session");
      return false;
    }
    const char want = churn_.expect.front();
    churn_.expect.pop_front();
    if (want == 'O') {
      if (line.substr(0, 2) != "OK") {
        fail(st, "churned session setup refused");
        return false;
      }
      return true;
    }
    if (want == 'B') {
      if (line != "OK bye") {
        fail(st, "churned session did not end cleanly");
        return false;
      }
      report_->check(true, "churned session");
      ++churned;
      churn_.c.close();
      return true;
    }
    if (line == "DONE") {
      fail(st, "churned session ended before its evaluations");
      return false;
    }
    const auto xy = parse_config(line, msg_);
    if (!xy) {
      fail(st, "churned CONFIG malformed or out of range");
      return false;
    }
    if (churn_.evals == 0) {
      open_ms.push_back(1e-3 * us_between(churn_.due, Clock::now()));
    }
    std::string& w = churn_.c.out();
    const double f = churn_.f(xy->first, xy->second);
    if (++churn_.evals == kChurnEvals) {
      w += "REPORT ";
      append_value(w, f);
      w += "\nBYE\n";
      churn_.expect.push_back('O');
      churn_.expect.push_back('B');
    } else {
      w += "REPORT+FETCH ";
      append_value(w, f);
      w += '\n';
      churn_.expect.push_back('C');
    }
    return true;
  }

  void on_status(std::string_view line, StepResult* st) {
    if (status_expect_.empty()) {
      fail(st, "STATUS reply with no outstanding poll");
      return;
    }
    const StatusPoll p = status_expect_.front();
    status_expect_.pop_front();
    status_us.push_back(us_between(p.sent, Clock::now()));
    ++status_polls;
    const auto doc = harmony::obs::json_parse(line);
    if (!doc || !doc->is_object()) {
      fail(st, "STATUS reply is not a JSON object");
      return;
    }
    // Every connection to any server of this process is one published
    // session: at least those the server had answered before the poll went
    // out, at most those opened before its reply came back.
    const double started = doc->number_or("sessions_started", -1);
    if (started < static_cast<double>(p.confirmed) ||
        started > static_cast<double>(g_connects)) {
      fail(st, "STATUS session count " + std::to_string(started) + " outside [" +
                   std::to_string(p.confirmed) + ", " + std::to_string(g_connects) +
                   "]");
    } else {
      report_->check(true, "status");
    }
  }

  int port_;
  Report* report_;
  harmony::obs::SearchTracer* tracer_;
  SeedStream rng_;
  Steady steady_[2];
  Churn churn_;
  Client status_;
  std::deque<StatusPoll> status_expect_;
  MessageView msg_;
  bool broken_ = false;
};

std::unique_ptr<harmony::TuningServer> start_server(
    harmony::obs::SearchTracer* tracer) {
  harmony::ServerOptions opts;
  opts.reactor_threads = 2;
  opts.tracer = tracer;
  // Collapsed simplexes restart instead of converging, so the steady
  // sessions keep proposing for the whole run; tuning sessions then end on
  // their START budget.
  opts.search.max_restarts = 1 << 20;
  auto server = std::make_unique<harmony::TuningServer>(opts);
  if (!server->start()) return nullptr;
  return server;
}

/// Mean nanoseconds per call of `f` over `passes` passes of `n` items.
template <typename F>
double ns_per(std::size_t n, int passes, F&& f) {
  if (n == 0) return 0;
  const auto t0 = Clock::now();
  for (int p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < n; ++i) f(i);
  }
  return 1e3 * us_between(t0, Clock::now()) /
         static_cast<double>(n * static_cast<std::size_t>(passes));
}

}  // namespace

void run_server_online(const RunOptions& o, Report& report) {
  harmony::obs::SearchTracer tracer;
  harmony::obs::SearchTracer* tr = o.trace ? &tracer : nullptr;

  // Set-up: server start, the two steady sessions and the STATUS poller up
  // and answered. A burst of them before every tuning repetition, so the
  // set-ups are spread over the window like the repetitions; the last
  // server stays up for the run.
  HostGauge gauge;
  gauge.sample(true);
  std::vector<Span> setups;
  std::unique_ptr<harmony::TuningServer> server;
  std::unique_ptr<OpenLoop> loop;
  const auto setup_burst = [&] {
    for (int i = 0; i < kSetupBurst; ++i) {
      loop.reset();
      if (server) server->stop();
      const auto t0 = Clock::now();
      server = start_server(tr);
      if (!server) throw std::runtime_error("tuning server failed to start");
      loop = std::make_unique<OpenLoop>(server->port(), o, report, tr);
      if (!loop->open()) throw std::runtime_error("steady sessions did not start");
      setups.push_back({t0, Clock::now()});
    }
  };
  setup_burst();
  check_thread_budget(report, "server_online");

  // Phase 1: the tuning schedule, repeated.
  std::vector<Objective> objectives;
  SeedStream orng(o.seed, 0x7e5);
  for (int i = 0; i < kTuneSessions; ++i) {
    objectives.push_back({1 + 8 * orng.uniform(), 1 + 8 * orng.uniform()});
  }
  std::vector<Span> untraced_reps, traced_reps;
  std::vector<double> rtt_p50, rtt_p90;
  std::vector<SessionOutcome> first;
  double traced_open_close = 0;
  SampledTimes tune_sampled;
  const auto t_tune = Clock::now();
  for (int i = 0;; ++i) {
    if (i > 0) {
      gauge.sample(true);
      setup_burst();
    }
    loop.reset();  // frees the connection budget for the schedule's two runners
    const bool traced = o.trace && i % 2 == 1;
    gauge.sample(true);
    const auto r0 = Clock::now();
    const auto rep = run_tune_rep(server->port(), objectives, traced, report,
                                  traced ? &tune_sampled : nullptr);
    (traced ? traced_reps : untraced_reps).push_back({r0, Clock::now()});
    if (!rep.ok) return;
    if (traced) {
      traced_open_close += rep.open_close_s;
    } else {
      rtt_p50.push_back(quantile(rep.rtt_ms, 0.50));
      rtt_p90.push_back(quantile(rep.rtt_ms, 0.90));
    }
    if (i == 0) {
      first = rep.outcomes;
    } else {
      report.check(rep.outcomes == first,
                   "tuning schedule repetition diverged from the first");
    }
    if (i + 1 >= (o.trace ? 4 : 3) && seconds_since(t_tune) >= 0.35 * o.seconds) break;
  }
  std::vector<double> imp, etb;
  int evals = 0;
  for (const auto& s : first) {
    imp.push_back(100.0 * (s.f_first - s.f_best) / s.f_first);
    etb.push_back(s.evals_to_best);
    evals += s.evals;
  }
  gauge.sample(true);
  const double tune_s = median(gauge.gauged(untraced_reps));
  // Each repetition's round-trip quantiles at its reference speed.
  for (std::size_t i = 0; i < untraced_reps.size(); ++i) {
    const double f = gauge.factor(untraced_reps[i]);
    rtt_p50[i] *= f;
    rtt_p90[i] *= f;
  }
  {
    std::vector<double> walls;
    for (const auto& r : untraced_reps) walls.push_back(us_between(r.from, r.to) * 1e-6);
    gauge.print("tune_s", median(walls), tune_s);
  }

  // Phase 2: open loop at the fixed offered rates, then the SLO ladder. The
  // generator spins close to each send, so it gets a CPU of its own: every
  // thread may use all CPUs again. (The open-loop figures are per-layer
  // metrics only: they measure the host's scheduler as much as the server.)
  unpin_all_threads();
  loop = std::make_unique<OpenLoop>(server->port(), o, report, tr);
  if (!loop->open()) return;
  // Window shares of the open-loop steps; the middle rate gets the most.
  const double step_s[] = {0.1 * o.seconds, 0.25 * o.seconds, 0.1 * o.seconds};
  const double ladder_s = 0.2 * o.seconds / static_cast<double>(std::size(kLadder));
  const char* names[] = {"lo", "mid", "hi"};
  std::vector<StepResult> steps;
  std::printf("%-8s %10s %10s %10s %10s %12s %8s\n", "step", "rate/s", "p50_ms",
              "p99_ms", "late_p99us", "backlog_end", "valid");
  const auto print_step = [](const char* name, const StepResult& s) {
    std::printf("%-8s %10.0f %10.4f %10.4f %10.1f %12zu %8s\n", name, s.rate, s.p(0.5),
                s.p(0.99), quantile(s.late_us, 0.99), s.backlog_at_end,
                s.generator_ok() ? "yes" : "no");
  };
  for (std::size_t i = 0; i < 3; ++i) {
    steps.push_back(loop->run_step(kRates[i], step_s[i]));
    const auto& s = steps.back();
    report.attempts(s.sent, s.unanswered,
                    std::string("requests unanswered at the end of step ") + names[i]);
    print_step(names[i], s);
    if (loop->broken()) return;
  }
  double max_rate = 0;
  for (const double rate : kLadder) {
    const auto s = loop->run_step(rate, ladder_s);
    // No growing backlog: at most 2 ms worth of arrivals still queued at the
    // step's end.
    const auto backlog_limit =
        std::max<std::size_t>(8, static_cast<std::size_t>(rate * 2e-3));
    const bool pass = s.generator_ok() && s.p(0.99) <= kSloP99Ms &&
                      s.unanswered == 0 && s.errors == 0 &&
                      s.backlog_at_end <= backlog_limit;
    print_step("ladder", s);
    if (!pass || loop->broken()) break;
    max_rate = rate;
  }

  // Protocol costs over the exact lines the generator sent and received.
  MessageView mv;
  std::vector<std::string> lines = loop->sent_lines;
  lines.insert(lines.end(), loop->received_lines.begin(), loop->received_lines.end());
  const double parse_ns = ns_per(lines.size(), 5, [&](std::size_t i) {
    (void)harmony::proto::parse_line(lines[i], mv);
  });
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Real("x", 0, 10));
  space.add(harmony::Parameter::Real("y", 0, 10));
  std::vector<harmony::Config> configs;
  for (const auto& line : loop->received_lines) {
    if (!harmony::proto::parse_line(line, mv)) continue;
    if (auto c = harmony::proto::decode_config(space, mv)) configs.push_back(*c);
  }
  std::string enc;
  const double encode_ns = ns_per(configs.size(), 5, [&](std::size_t i) {
    enc.clear();
    harmony::proto::encode_config(space, configs[i], enc);
  });

  report.check(loop->churned > 0 && loop->status_polls > 0,
               "no churned sessions or STATUS polls");
  std::printf("tuning schedule: %d sessions, %d evals, %zu+%zu repetitions; "
              "churned %llu sessions, %llu STATUS polls\n",
              kTuneSessions, evals, untraced_reps.size(), traced_reps.size(),
              static_cast<unsigned long long>(loop->churned),
              static_cast<unsigned long long>(loop->status_polls));
  const auto open_ms = loop->open_ms;
  const auto status_us = loop->status_us;
  const auto sampled = loop->sampled;
  loop.reset();
  server->stop();

  report.metric("setup_s", median(gauge.gauged(setups)), "s");
  report.metric("tune_s", tune_s, "s");
  report.metric("evals_per_s", evals / tune_s, "1/s");
  report.metric("improvement_pct", median(imp), "%");
  report.metric("evals_to_best", median(etb), "count");
  // One evaluation round trip as the tuning loop sees it: REPORT+FETCH of
  // the closed-loop schedule, per repetition. (The open-loop figures vary
  // too much from run to run on a shared host to gate on; they are the
  // server.rt_* per-layer metrics.)
  report.metric("rt_p50_ms", median(rtt_p50), "ms");
  report.metric("rt_p90_ms", median(rtt_p90), "ms");
  if (!o.trace) return;

  for (std::size_t i = 0; i < 3; ++i) {
    report.metric(std::string("server.rt_p50_ms.") + names[i], steps[i].p(0.50), "ms");
    report.metric(std::string("server.rt_p99_ms.") + names[i], steps[i].p(0.99), "ms");
  }
  report.metric("server.max_rate_at_slo", max_rate, "1/s");
  report.metric("server.open_p50_ms", quantile(open_ms, 0.50), "ms");
  report.metric("server.open_p99_ms", quantile(open_ms, 0.99), "ms");
  double late = 0;
  for (const auto& s : steps) late = std::max(late, quantile(s.late_us, 0.99));
  report.metric("gen.late_p99_us", late, "us");
  report.metric("core.server.status.p50_us", quantile(status_us, 0.50), "us");
  report.metric("core.protocol.parse_ns", parse_ns, "ns");
  report.metric("core.protocol.encode_ns", encode_ns, "ns");
  report.metric("obs.trace_overhead_pct",
                100.0 * (median(gauge.gauged(traced_reps)) / tune_s - 1.0), "%");

  // Server spans of sampled requests: handle / ask / tell, and what the
  // client saw outside the handler (syscalls, wakeups, queueing). Spans of
  // the traced tuning repetitions feed the ledger; the open-loop ones the
  // quantiles.
  std::unordered_map<std::uint64_t, double> handle_us;
  std::vector<double> handle, ask, tell;
  double tune_handle_us = 0, tune_ask_us = 0, tune_tell_us = 0;
  for (const auto& sp : tracer.spans()) {
    const double d = sp.t_end_us - sp.t_start_us;
    const bool in_tune = tune_sampled.count(sp.trace_id) != 0;
    if (sp.name == "server.handle") {
      handle_us[sp.trace_id] = d;
      if (in_tune) {
        tune_handle_us += d;
      } else {
        handle.push_back(d);
      }
    } else if (sp.name == "server.ask") {
      if (in_tune) {
        tune_ask_us += d;
      } else {
        ask.push_back(d);
      }
    } else if (sp.name == "server.tell") {
      if (in_tune) {
        tune_tell_us += d;
      } else {
        tell.push_back(d);
      }
    }
  }
  std::vector<double> outside;
  for (const auto& [tid, times] : sampled) {
    const auto it = handle_us.find(tid);
    if (it != handle_us.end()) {
      outside.push_back(us_between(times.first, times.second) - it->second);
    }
  }
  double tune_rtt_us = 0;
  for (const auto& [tid, times] : tune_sampled) {
    tune_rtt_us += us_between(times.first, times.second);
  }
  report.metric("core.server.handle.p50_us", quantile(handle, 0.50), "us");
  report.metric("core.server.handle.p99_us", quantile(handle, 0.99), "us");
  report.metric("core.server.ask.p50_us", quantile(ask, 0.50), "us");
  report.metric("core.server.tell.p50_us", quantile(tell, 0.50), "us");
  report.metric("core.server.outside.p50_us", quantile(outside, 0.50), "us");

  // Ledger of the traced tuning repetitions. Two connections run in
  // parallel, so each row is the per-connection critical path (sum / 2).
  double traced_wall = 0;
  for (const auto& r : traced_reps) traced_wall += us_between(r.from, r.to) * 1e-6;
  report.ledger_wall(traced_wall);
  const double per_conn = 0.5e-6;  // us summed over two connections -> s each
  report.ledger_row("core.server.ask", tune_ask_us * per_conn);
  report.ledger_row("core.server.tell", tune_tell_us * per_conn);
  report.ledger_row("core.server.handle.self",
                    (tune_handle_us - tune_ask_us - tune_tell_us) * per_conn);
  report.ledger_row("core.server.outside", (tune_rtt_us - tune_handle_us) * per_conn);
  report.ledger_row("session open/close", traced_open_close / 2);
}

}  // namespace perfbench
