#include "core/server_session.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "core/nelder_mead.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace harmony {

namespace {

void reply(std::string& out, std::string_view line) {
  out.append(line);
  out.push_back('\n');
}

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Registry name of the per-verb latency histogram.
const char* verb_histogram_name(std::string_view verb) {
  if (verb == "REPORT+FETCH") return "server.verb.report_fetch_s";
  if (verb == "FETCH") return "server.verb.fetch_s";
  if (verb == "REPORT") return "server.verb.report_s";
  if (verb == "BATCH") return "server.verb.batch_s";
  return "server.verb.result_s";
}

}  // namespace

ServerConnection::ServerConnection(const ServerOptions& opts, int session_no)
    : opts_(&opts),
      session_id_("server/" + std::to_string(session_no)),
      budget_(opts.default_max_iterations),
      status_(obs::StatusRegistry::global().publish_session(session_id_)),
      latency_(std::make_unique<obs::Histogram>()) {
  // Live-status slot for this session. Published unconditionally (the STATUS
  // verb is part of the protocol surface, not passive instrumentation); the
  // handle unpublishes when the connection ends.
  publish();
  obs::log_info("server", "session opened", session_id_);
}

ServerConnection::~ServerConnection() {
  if (worker_id_ != 0 && opts_->fleet != nullptr) {
    // Worker death: the dispatcher re-queues whatever this worker still had
    // in flight, so a killed worker never strands a candidate.
    opts_->fleet->detach(worker_id_);
    obs::log_warn("server", "worker detached (connection closed)", session_id_);
  }
  if (tenant_ != nullptr) {
    tenant_->sessions.fetch_sub(1, std::memory_order_relaxed);
  }
  obs::log_info("server", "session closed", session_id_);
}

void ServerConnection::publish(const char* phase_override) {
  // Reformat the incumbent only when it improved: the steady-state REPORT
  // path then updates two integers under the slot lock instead of
  // re-rendering strings every round trip.
  const bool best_moved =
      search_ && search_->best() && search_->best_objective() != published_best_;
  status_.update([&](obs::SessionStatus& s) {
    const auto* nm = dynamic_cast<const NelderMead*>(search_.get());
    s.phase = phase_override != nullptr
                  ? phase_override
                  : (search_ ? (nm != nullptr ? nm->phase_name() : "searching")
                             : "registering");
    s.iterations = static_cast<std::uint64_t>(roundtrips_);
    if (search_) {
      s.strategy = search_->name();
      if (best_moved) {
        s.best_value = search_->best_objective();
        s.best_config = space_.format(*search_->best());
      }
    }
  });
  if (best_moved) published_best_ = search_->best_objective();
}

bool ServerConnection::append_fetch_reply(std::string& out, bool count_fresh) {
  // ask() is idempotent while a candidate is outstanding (re-fetch resends
  // it) and returns nullopt once the iteration budget is spent or the
  // strategy stops proposing.
  const bool re_fetch = controller_->awaiting_tell();
  std::optional<Config> proposal;
  if (measure_stages_) {
    const auto t0 = std::chrono::steady_clock::now();
    proposal = controller_->ask(*search_);
    stage_ask_us_ = us_since(t0);
    record_stage_span("server.ask", stage_ask_us_);
  } else {
    proposal = controller_->ask(*search_);
  }
  if (!proposal) {
    reply(out, "DONE");
    return false;
  }
  if (count_fresh && !re_fetch) obs::count("server.fetches");
  out.append("CONFIG ");
  proto::encode_config(space_, *proposal, out);
  out.push_back('\n');
  return true;
}

bool ServerConnection::handle_report_value(std::string_view field,
                                           std::string& out,
                                           std::string_view verb) {
  const auto value = proto::parse_f64(field);
  if (!value) {
    reply(out, "ERR bad objective value");
    return false;
  }
  (void)verb;
  EvaluationResult r;
  r.objective = *value;
  r.valid = std::isfinite(*value);
  if (measure_stages_) {
    const auto t0 = std::chrono::steady_clock::now();
    controller_->tell(*search_, r);
    stage_tell_us_ = us_since(t0);
    record_stage_span("server.tell", stage_tell_us_);
  } else {
    controller_->tell(*search_, r);
  }
  // One completed FETCH -> REPORT pair is one tuning round trip.
  ++roundtrips_;
  obs::count("server.roundtrips");
  obs::observe("server.report_value", *value);
  if (tenant_ != nullptr) tenant_->evals.fetch_add(1, std::memory_order_relaxed);
  publish();
  return true;
}

void ServerConnection::handle_batch(std::string& out) {
  const int max_batch = std::max(1, opts_->max_batch);
  if (msg_.args.empty()) {
    // Bare BATCH is the negotiation probe: advertise the size cap.
    reply(out, "OK batch " + std::to_string(max_batch));
    return;
  }
  const auto n = proto::parse_i64(msg_.args[0]);
  if (!n || *n < 1 || *n > max_batch) {
    reply(out, "ERR bad batch count");
    return;
  }
  if (msg_.args.size() - 1 != static_cast<std::size_t>(*n)) {
    // Truncated (or over-long) frame. One ERR for the whole line; nothing
    // was consumed, so the client can re-send the frame intact.
    reply(out, "ERR batch count mismatch");
    return;
  }
  if (!search_ || !controller_->awaiting_tell()) {
    reply(out, "ERR nothing to report");
    return;
  }
  // Validate every value before telling the search anything: a batch is
  // atomic, so a malformed field (e.g. a trace token interleaved between
  // values) rejects the whole line instead of half-applying it.
  for (std::size_t i = 1; i < msg_.args.size(); ++i) {
    if (!proto::parse_f64(msg_.args[i])) {
      reply(out, "ERR bad objective value in batch");
      return;
    }
  }
  obs::count("server.batch_lines");
  // n report/fetch pairs -> n reply lines (CONFIG or DONE), same order. Once
  // the search finishes mid-batch the remaining values are dropped and
  // answered DONE — they measured configurations of a search that is over.
  bool done = false;
  for (std::size_t i = 1; i < msg_.args.size(); ++i) {
    if (done) {
      reply(out, "DONE");
      continue;
    }
    if (!handle_report_value(msg_.args[i], out, "BATCH")) {
      done = true;  // cannot happen after the validation pass, but stay safe
      continue;
    }
    obs::count("server.report_fetches");
    done = !append_fetch_reply(out, /*count_fresh=*/true);
  }
}

bool ServerConnection::handle_tenant(std::string& out) {
  if (tenant_ != nullptr) {
    reply(out, "ERR tenant already set");
    return true;
  }
  if (search_) {
    reply(out, "ERR session already started");
    return true;
  }
  if (msg_.args.size() != 1 || msg_.args[0].size() > 64) {
    reply(out, "ERR TENANT takes one name (<= 64 chars)");
    return true;
  }
  const std::string name(msg_.args[0]);
  auto& registry = obs::StatusRegistry::global();
  obs::StatusRegistry::TenantSlot* slot = registry.tenant_slot(name);
  // Atomic admission: claim the seat first, back out if that burst the
  // quota. No lock is held across the check, and losing racers shed.
  const std::int64_t occupied =
      slot->sessions.fetch_add(1, std::memory_order_relaxed) + 1;
  if (opts_->tenant_quota > 0 && occupied > opts_->tenant_quota) {
    slot->sessions.fetch_sub(1, std::memory_order_relaxed);
    slot->shed.fetch_add(1, std::memory_order_relaxed);
    registry.backpressure().shed_total.fetch_add(1, std::memory_order_relaxed);
    obs::count("server.shed_retry_after");
    obs::log_warn("server",
                  "tenant " + name + " over quota, shedding (retry-after " +
                      std::to_string(opts_->retry_after_s) + "s)",
                  session_id_);
    reply(out, "ERR retry-after " + std::to_string(opts_->retry_after_s) +
                   " tenant quota exceeded");
    return false;  // graceful shed: close after the reply flushes
  }
  tenant_ = slot;
  status_.update([&](obs::SessionStatus& s) { s.tenant = name; });
  obs::count("server.tenant_admits");
  obs::log_info("server", "tenant " + name, session_id_);
  reply(out, "OK tenant " + name);
  return true;
}

void ServerConnection::handle_attach(std::string& out) {
  if (opts_->fleet == nullptr) {
    reply(out, "ERR no fleet dispatcher");
    return;
  }
  if (!sender_) {
    reply(out, "ERR transport cannot push");
    return;
  }
  if (worker_id_ != 0) {
    reply(out, "ERR already attached");
    return;
  }
  if (search_) {
    reply(out, "ERR session already started");
    return;
  }
  if (msg_.args.empty() || msg_.args.size() > 2) {
    reply(out, "ERR ATTACH takes <name> [capacity]");
    return;
  }
  const std::string name(msg_.args[0]);
  int capacity = 1;
  if (msg_.args.size() == 2) {
    const auto v = proto::parse_i64(msg_.args[1]);
    if (!v || *v < 1 || *v > 1024) {
      reply(out, "ERR bad capacity");
      return;
    }
    capacity = static_cast<int>(*v);
  }
  worker_id_ = opts_->fleet->attach(name, capacity, sender_);
  status_.update([&](obs::SessionStatus& s) {
    s.app = name;
    s.phase = "worker";
  });
  obs::count("server.workers_attached");
  obs::log_info("server",
                "worker " + name + " attached, capacity " +
                    std::to_string(capacity),
                session_id_);
  reply(out, "OK worker " + std::to_string(worker_id_));
}

void ServerConnection::handle_result(std::string& out) {
  // Message-passing mode: a well-formed RESULT is not acknowledged (replies
  // would interleave with pushed WORK lines for no benefit); malformed or
  // never-issued results still answer ERR so a confused worker can tell.
  if (worker_id_ == 0 || opts_->fleet == nullptr) {
    reply(out, "ERR not attached");
    return;
  }
  if (msg_.args.size() < 2 || msg_.args.size() > 3) {
    reply(out, "ERR RESULT takes <id> <objective>|FAIL [cost_s]");
    return;
  }
  const auto id = proto::parse_i64(msg_.args[0]);
  if (!id || *id <= 0) {
    reply(out, "ERR bad work id");
    return;
  }
  bool run_ok = true;
  double objective = std::numeric_limits<double>::infinity();
  if (msg_.args[1] == "FAIL") {
    run_ok = false;
  } else {
    const auto v = proto::parse_f64(msg_.args[1]);
    if (!v) {
      reply(out, "ERR bad objective value");
      return;
    }
    objective = *v;
  }
  double cost_s = 0.0;
  if (msg_.args.size() == 3) {
    const auto v = proto::parse_f64(msg_.args[2]);
    if (!v || *v < 0.0) {
      reply(out, "ERR bad cost");
      return;
    }
    cost_s = *v;
  }
  ++roundtrips_;
  obs::count("server.worker_results");
  if (!opts_->fleet->on_result(worker_id_, static_cast<std::uint64_t>(*id),
                               run_ok, objective, cost_s)) {
    reply(out, "ERR unknown work id");
  }
}

void ServerConnection::record_stage_span(const char* name, double dur_us) {
  if (!trace_.sampled() || opts_->tracer == nullptr) return;
  obs::SearchTracer* tr = opts_->tracer;
  obs::SpanEvent sp;
  sp.trace_id = trace_.trace_id;
  sp.span_id = obs::next_trace_id();
  sp.parent_span = trace_.span_id;
  sp.name = name;
  sp.t_end_us = tr->now_us();
  sp.t_start_us = sp.t_end_us - dur_us;
  tr->record(sp);
}

void ServerConnection::finish_request(std::string_view verb,
                                      std::chrono::steady_clock::time_point t0) {
  // End timestamp before duration: both read steady_clock, so a preemption
  // between the two reads can only lengthen dt_us, which reconstructs the
  // root's start *earlier*. The stage children read in the opposite order
  // (duration first), shifting them later — so however the scheduler
  // interleaves, children never appear to start before their root.
  const double root_end_us = trace_.sampled() && opts_->tracer != nullptr
                                 ? opts_->tracer->now_us()
                                 : 0.0;
  const double dt_us = us_since(t0);
  const double dt_s = dt_us * 1e-6;

  if (trace_.sampled() && opts_->tracer != nullptr) {
    obs::SearchTracer* tr = opts_->tracer;
    obs::SpanEvent sp;
    sp.trace_id = trace_.trace_id;
    sp.span_id = trace_.span_id;
    sp.parent_span = trace_.parent_span;
    sp.name = "server.handle";
    sp.detail = std::string(verb);
    sp.t_end_us = root_end_us;
    sp.t_start_us = root_end_us - dt_us;
    tr->record(sp);
  }

  latency_->record(dt_s);
  auto& board = obs::StatusRegistry::global().latency();
  board.request_s.record(dt_s);
  if (tenant_ != nullptr) tenant_->request_s.record(dt_s);

  // Refreshing the published quantiles scans the histogram, so do it on the
  // first request and then every 64th instead of every round trip.
  ++requests_;
  if ((requests_ & 63) == 1) {
    status_.update([&](obs::SessionStatus& s) {
      s.p50_us = latency_->quantile(0.50) * 1e6;
      s.p95_us = latency_->quantile(0.95) * 1e6;
      s.p99_us = latency_->quantile(0.99) * 1e6;
    });
  }
  obs::observe(verb_histogram_name(verb), dt_s);

  if (opts_->slow_request_us > 0 &&
      dt_us > static_cast<double>(opts_->slow_request_us)) {
    board.slow_requests.fetch_add(1, std::memory_order_relaxed);
    obs::count("server.slow_requests");
    // The slow-request log is gated by its own option, not by obs::enabled():
    // setting a latency SLO is an explicit request to hear about misses.
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "slow request %.*s %.0fus (tell %.0fus, ask %.0fus) "
                  "trace=%016llx span=%016llx",
                  static_cast<int>(verb.size()), verb.data(), dt_us,
                  stage_tell_us_, stage_ask_us_,
                  static_cast<unsigned long long>(trace_.trace_id),
                  static_cast<unsigned long long>(trace_.span_id));
    obs::EventLog::global().record(obs::Severity::Warn, "server.slow", session_id_,
                                   buf);
  }
}

bool ServerConnection::handle_line(std::string_view line, std::string& out) {
#ifndef NDEBUG
  // Shard-affinity check (debug builds): every line of a session must be
  // handled by one thread for the no-locks-on-the-hot-path contract to be
  // sound. The first line binds the session to its shard's thread.
  if (home_thread_ == std::thread::id{}) {
    home_thread_ = std::this_thread::get_id();
  }
  assert(home_thread_ == std::this_thread::get_id() &&
         "session state crossed reactor shards");
#endif
  if (!proto::parse_line(line, msg_)) return true;  // blank line: ignore
  obs::count("server.messages");
  const auto handle_timer = obs::time_scope("server.handle_s");
  const std::string_view verb = msg_.verb;

  // Request verbs (the steady-state tuning/eval path) are latency-tracked
  // end to end; every other verb answers without touching the clock.
  const bool request_verb = verb == "REPORT+FETCH" || verb == "FETCH" ||
                            verb == "REPORT" || verb == "RESULT" ||
                            verb == "BATCH";
  trace_ = obs::TraceContext{};
  if (request_verb && !msg_.args.empty() &&
      proto::is_trace_token(msg_.args.back())) {
    // Optional trailing trace token: strip it before the per-verb arg-count
    // checks so untraced parsing below stays byte-identical. The sender's
    // span becomes the parent of this request's root span.
    if (const auto ctx = proto::parse_trace(msg_.args.back())) {
      trace_.trace_id = ctx->trace_id;
      trace_.parent_span = ctx->span_id;
      trace_.span_id = obs::next_trace_id();
    }
    msg_.args.pop_back();
  }
  measure_stages_ = request_verb && ((trace_.sampled() && opts_->tracer != nullptr) ||
                                     opts_->slow_request_us > 0);
  stage_tell_us_ = 0.0;
  stage_ask_us_ = 0.0;

  // Closes out the request on every exit path (ERR replies included).
  struct RequestScope {
    ServerConnection* conn;
    std::string_view verb;
    std::chrono::steady_clock::time_point t0;
    bool active;
    ~RequestScope() {
      if (active) conn->finish_request(verb, t0);
    }
  } scope{this, verb,
          request_verb ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{},
          request_verb};

  if (verb == "FETCH") {
    if (!search_) {
      reply(out, "ERR not started");
      return true;
    }
    append_fetch_reply(out, /*count_fresh=*/true);
  } else if (verb == "REPORT") {
    if (!search_ || !controller_->awaiting_tell()) {
      reply(out, "ERR nothing to report");
      return true;
    }
    if (msg_.args.size() != 1) {
      reply(out, "ERR REPORT takes one value");
      return true;
    }
    if (handle_report_value(msg_.args[0], out, verb)) reply(out, "OK");
  } else if (verb == "REPORT+FETCH") {
    // The pipelined steady state: report the pending candidate and fetch
    // the next one in a single exchange — one round trip per evaluation.
    if (!search_ || !controller_->awaiting_tell()) {
      reply(out, "ERR nothing to report");
      return true;
    }
    if (msg_.args.size() != 1) {
      reply(out, "ERR REPORT+FETCH takes one value");
      return true;
    }
    if (handle_report_value(msg_.args[0], out, verb)) {
      obs::count("server.report_fetches");
      (void)append_fetch_reply(out, /*count_fresh=*/true);
    }
  } else if (verb == "BATCH") {
    handle_batch(out);
  } else if (verb == "TENANT") {
    if (!handle_tenant(out)) return false;
  } else if (verb == "HELLO") {
    const std::string app = msg_.args.empty() ? "" : std::string(msg_.args[0]);
    status_.update([&](obs::SessionStatus& s) { s.app = app; });
    obs::log_info("server", "HELLO " + app, session_id_);
    reply(out, "OK harmony-server/1.0");
  } else if (verb == "PARAM") {
    if (search_) {
      reply(out, "ERR session already started");
      return true;
    }
    auto p = proto::decode_param(msg_);
    if (!p) {
      obs::log_warn("server", "malformed PARAM", session_id_);
      reply(out, "ERR malformed PARAM");
      return true;
    }
    try {
      space_.add(std::move(*p));
    } catch (const std::exception& e) {
      reply(out, std::string("ERR ") + e.what());
      return true;
    }
    reply(out, "OK");
  } else if (verb == "START") {
    if (space_.empty()) {
      reply(out, "ERR no parameters registered");
      return true;
    }
    if (search_) {
      reply(out, "ERR session already started");
      return true;
    }
    if (!msg_.args.empty()) {
      const auto v = proto::parse_i64(msg_.args[0]);
      if (!v || *v < 1 || *v > std::numeric_limits<int>::max()) {
        reply(out, "ERR bad iteration budget");
        return true;
      }
      budget_ = static_cast<int>(*v);
    }
    try {
      // One construction path for every session: the registry. A bare START
      // gets the server's default search (Nelder-Mead with opts_->search); a
      // prior STRATEGY line picks anything registered.
      search_ = strategy_name_.empty()
                    ? StrategyRegistry::make_default(space_, opts_->search)
                    : StrategyRegistry::make(strategy_name_, space_, strategy_opts_);
    } catch (const std::exception& e) {
      reply(out, std::string("ERR ") + e.what());
      return true;
    }
    controller_.emplace(space_,
                        ControllerLimits{budget_, std::numeric_limits<int>::max()});
    publish();
    obs::log_info("server", "search started, budget " + std::to_string(budget_),
                  session_id_);
    reply(out, "OK started");
  } else if (verb == "STRATEGY") {
    if (msg_.args.empty()) {
      // Bare STRATEGY lists the registry (valid any time, any session).
      std::string listing = "OK";
      for (const auto& n : StrategyRegistry::names()) {
        listing += ' ';
        listing += n;
      }
      reply(out, listing);
    } else if (search_) {
      reply(out, "ERR session already started");
    } else if (!StrategyRegistry::known(std::string(msg_.args[0]))) {
      const std::string name(msg_.args[0]);
      obs::log_warn("server", "unknown strategy " + name, session_id_);
      reply(out, "ERR unknown strategy " + name);
    } else {
      StrategyOptions sopts;
      std::string error;
      for (std::size_t i = 1; i < msg_.args.size(); ++i) {
        const std::string_view tok = msg_.args[i];
        const auto eq = tok.find('=');
        if (eq == std::string_view::npos || eq == 0) {
          error = "bad option '" + std::string(tok) + "' (expected key=value)";
          break;
        }
        sopts.emplace_back(std::string(tok.substr(0, eq)),
                           std::string(tok.substr(eq + 1)));
      }
      const std::string name(msg_.args[0]);
      if (error.empty()) (void)StrategyRegistry::validate(name, sopts, &error);
      if (!error.empty()) {
        obs::log_warn("server", "bad STRATEGY options: " + error, session_id_);
        reply(out, "ERR " + error);
      } else {
        strategy_name_ = name;
        strategy_opts_ = std::move(sopts);
        obs::log_info("server", "strategy " + strategy_name_, session_id_);
        reply(out, "OK " + strategy_name_);
      }
    }
  } else if (verb == "BEST") {
    if (!search_ || !search_->best()) {
      reply(out, "ERR no measurements yet");
      return true;
    }
    out.append("CONFIG ");
    proto::encode_config(space_, *search_->best(), out);
    out.push_back('\n');
  } else if (verb == "STATUS") {
    // One line of JSON: the whole live-status board. Any connection may ask
    // — harmony_top uses a dedicated admin connection.
    obs::count("server.status_polls");
    reply(out, obs::StatusRegistry::global().to_json());
  } else if (verb == "METRICS") {
    // Prometheus text exposition, terminated by a "# EOF" comment line ("#"
    // lines are valid exposition, so raw `echo METRICS | nc` output is
    // scrape-ready as-is).
    obs::count("server.status_polls");
    out.append(obs::MetricsRegistry::global().to_prometheus());
    out.append("# EOF\n");
  } else if (verb == "LOG") {
    // LOG [tail] [N] -> "LOG <n>" header then n JSONL event records.
    std::size_t want = opts_->log_tail_default;
    std::size_t arg_idx = 0;
    if (arg_idx < msg_.args.size() && msg_.args[arg_idx] == "tail") ++arg_idx;
    if (arg_idx < msg_.args.size()) {
      const auto v = proto::parse_i64(msg_.args[arg_idx]);
      if (!v || *v < 0) {
        reply(out, "ERR bad LOG count");
        return true;
      }
      want = static_cast<std::size_t>(*v);
    }
    const auto events = obs::EventLog::global().tail(want);
    std::ostringstream os;
    os << "LOG " << events.size() << "\n";
    for (const auto& e : events) {
      obs::EventLog::write_event_json(os, e);
      os << "\n";
    }
    out.append(os.str());
  } else if (verb == "ATTACH") {
    handle_attach(out);
  } else if (verb == "RESULT") {
    handle_result(out);
  } else if (verb == "PING") {
    if (worker_id_ != 0 && opts_->fleet != nullptr) {
      opts_->fleet->heartbeat(worker_id_);
    }
    reply(out, "PONG");
  } else if (verb == "DETACH") {
    if (worker_id_ == 0 || opts_->fleet == nullptr) {
      reply(out, "ERR not attached");
      return true;
    }
    opts_->fleet->detach(worker_id_);
    worker_id_ = 0;
    status_.update([&](obs::SessionStatus& s) { s.phase = "detached"; });
    obs::log_info("server", "worker detached", session_id_);
    reply(out, "OK detached");
  } else if (verb == "BYE") {
    reply(out, "OK bye");
    return false;
  } else {
    const std::string name(verb);
    obs::log_warn("server", "unknown verb " + name, session_id_);
    reply(out, "ERR unknown verb " + name);
  }
  return true;
}

}  // namespace harmony
