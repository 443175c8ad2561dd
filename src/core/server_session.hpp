#pragma once

/// \file server_session.hpp
/// Transport-independent protocol state machine for one tuning-server
/// connection. The server's reactor shard feeds it every complete line found
/// in a readable burst (which is how pipelined clients get their verbs
/// answered in order, in one write). Replies are appended to a caller-owned
/// output buffer — the handler never touches a socket.
///
/// Hot-path discipline: FETCH / REPORT / REPORT+FETCH parse through the
/// zero-copy proto::MessageView tokenizer (scratch reused per connection)
/// and encode through the append-into-buffer proto::encode_config, so the
/// steady-state request path performs no heap allocations except when the
/// incumbent improves (the live-status board then reformats its config).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#ifndef NDEBUG
#include <thread>
#endif
#include <vector>

#include "core/controller.hpp"
#include "core/param_space.hpp"
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "core/strategy.hpp"
#include "core/strategy_registry.hpp"
#include "core/work_sink.hpp"
#include "obs/status.hpp"

namespace harmony {

class ServerConnection {
 public:
  /// `opts` must outlive the connection (it belongs to the TuningServer).
  ServerConnection(const ServerOptions& opts, int session_no);
  ~ServerConnection();

  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;

  /// Handle one protocol line (no terminator), appending the reply — which
  /// may span several lines for STATUS/METRICS/LOG — to `out`. Returns
  /// false when the connection should be closed once `out` is flushed
  /// (BYE). Unknown or malformed verbs answer ERR and keep the connection
  /// open, so one bad verb in a pipelined burst poisons nothing else.
  [[nodiscard]] bool handle_line(std::string_view line, std::string& out);

  /// Completed fetch/report round trips (one per evaluation).
  [[nodiscard]] int roundtrips() const noexcept { return roundtrips_; }

  [[nodiscard]] const std::string& session_id() const noexcept {
    return session_id_;
  }

  /// Transport-provided sender for server-initiated lines (WORK pushes).
  /// Must deliver the payload to this connection's peer from any thread;
  /// transports that cannot push (none today) leave it unset and ATTACH is
  /// refused. Set once, right after construction, before any handle_line.
  void set_sender(WorkSink::PushFn sender) { sender_ = std::move(sender); }

  /// Nonzero once this connection ATTACHed as a fleet worker.
  [[nodiscard]] std::uint64_t worker_id() const noexcept { return worker_id_; }

  /// Tenant rollup slot once a TENANT line was admitted (null otherwise).
  [[nodiscard]] const obs::StatusRegistry::TenantSlot* tenant() const noexcept {
    return tenant_;
  }

 private:
  void publish(const char* phase_override = nullptr);
  /// True when a CONFIG line was appended, false for DONE.
  bool append_fetch_reply(std::string& out, bool count_fresh);
  bool handle_report_value(std::string_view field, std::string& out,
                           std::string_view verb);
  void handle_attach(std::string& out);
  void handle_result(std::string& out);
  void handle_batch(std::string& out);
  /// False when the connection must close (over-quota shed).
  [[nodiscard]] bool handle_tenant(std::string& out);

  /// Close out one request verb: record its handle time into the
  /// per-connection and process-wide latency histograms, refresh the
  /// session's published quantiles, log it when over the slow-request SLO,
  /// and emit the root span when the request is sampled.
  void finish_request(std::string_view verb,
                      std::chrono::steady_clock::time_point t0);

  /// Emit a child span of the current request (tell/ask stages) ending now
  /// and lasting `dur_us`. No-op unless the request is sampled and the
  /// server has a tracer.
  void record_stage_span(const char* name, double dur_us);

  const ServerOptions* opts_;
  std::string session_id_;
  ParamSpace space_;
  std::unique_ptr<SearchStrategy> search_;
  std::optional<SearchController> controller_;  // constructed at START
  int budget_;
  std::string strategy_name_;  // chosen via STRATEGY; empty = default
  StrategyOptions strategy_opts_;
  int roundtrips_ = 0;
  double published_best_ = std::numeric_limits<double>::infinity();
  obs::StatusRegistry::SessionHandle status_;
  proto::MessageView msg_;  // reusable tokenizer scratch

  // Fleet-worker state: the transport's push sender and, once ATTACHed, the
  // dispatcher-issued worker id (0 = plain tuning session). The destructor
  // detaches, so a dying worker's in-flight WORK re-dispatches elsewhere.
  WorkSink::PushFn sender_;
  std::uint64_t worker_id_ = 0;

  // Tracing + latency state for the request currently inside handle_line().
  // trace_ is zeroed per request; an unsampled request touches none of the
  // span machinery and allocates nothing. latency_ is the per-connection
  // histogram behind the session's published p50/p95/p99 (heap-held:
  // it is ~22 KiB and most ServerConnection uses are short-lived tests).
  obs::TraceContext trace_;
  bool measure_stages_ = false;
  double stage_tell_us_ = 0.0;
  double stage_ask_us_ = 0.0;
  std::uint64_t requests_ = 0;
  std::unique_ptr<obs::Histogram> latency_;

  // Multi-tenancy. tenant_ is resolved once at TENANT time (registry table
  // lock) and only its atomics are touched from then on — the request hot
  // path stays free of shared mutexes.
  obs::StatusRegistry::TenantSlot* tenant_ = nullptr;

#ifndef NDEBUG
  // Debug-build shard-affinity check: a session's verbs must all be handled
  // by the thread that first touched it (its reactor shard's thread).
  // Crossing shards would mean connection state is shared without locks —
  // assert instead of racing.
  std::thread::id home_thread_{};
#endif
};

}  // namespace harmony
